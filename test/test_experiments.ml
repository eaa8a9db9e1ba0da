(* Tests for the experiment-harness support library: the table
   renderer, the Example 4.1 automaton it ships, the text of E4 and the
   configuration profiles. *)

module Q = Proba.Rational

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_alignment () =
  let t = Experiments.Table.create [ "name"; "value" ] in
  Experiments.Table.row t [ "x"; "1" ];
  Experiments.Table.row t [ "longer"; "22" ];
  let s = Experiments.Table.to_string t in
  let lines = String.split_on_char '\n' s in
  (match lines with
   | header :: separator :: rows ->
     Alcotest.(check bool) "header first" true
       (String.length header > 0 && String.sub header 0 4 = "name");
     Alcotest.(check bool) "separator dashes" true
       (String.for_all (fun c -> c = '-' || c = ' ') separator);
     (* All non-empty lines align to the same width. *)
     let widths =
       List.filter_map
         (fun l -> if l = "" then None else Some (String.length l))
         (header :: separator :: rows)
     in
     Alcotest.(check bool) "consistent width" true
       (match widths with
        | w :: rest -> List.for_all (( = ) w) rest
        | [] -> false)
   | _ -> Alcotest.fail "expected header and separator")

let test_table_pads_and_truncates_rows () =
  let t = Experiments.Table.create [ "a"; "b" ] in
  Experiments.Table.row t [ "only" ];
  Experiments.Table.row t [ "x"; "y"; "extra" ];
  let s = Experiments.Table.to_string t in
  Alcotest.(check bool) "short row padded" true
    (Astring.String.is_infix ~affix:"only" s);
  Alcotest.(check bool) "extra cell dropped" false
    (Astring.String.is_infix ~affix:"extra" s)

let test_table_unicode_width () =
  (* Predicate names contain multibyte glyphs; the column math must
     count code points, not bytes. *)
  let t = Experiments.Table.create [ "set"; "v" ] in
  Experiments.Table.row t [ "RT ∪ C"; "1" ];
  Experiments.Table.row t [ "plain"; "2" ];
  let s = Experiments.Table.to_string t in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
  in
  let width l =
    (* count code points *)
    let n = String.length l in
    let rec go i acc =
      if i >= n then acc
      else begin
        let c = Char.code l.[i] in
        let skip =
          if c < 0x80 then 1 else if c < 0xE0 then 2
          else if c < 0xF0 then 3 else 4
        in
        go (i + skip) (acc + 1)
      end
    in
    go 0 0
  in
  match lines with
  | first :: rest ->
    Alcotest.(check bool) "visual alignment" true
      (List.for_all (fun l -> width l = width first) rest)
  | [] -> Alcotest.fail "empty table"

(* ------------------------------------------------------------------ *)
(* Race (Example 4.1 support automaton) *)

let test_race_all_states () =
  Alcotest.(check int) "nine states" 9
    (List.length Models.Race.all_states);
  (* They are pairwise distinct. *)
  let distinct =
    List.sort_uniq compare Models.Race.all_states
  in
  Alcotest.(check int) "no duplicates" 9 (List.length distinct)

let test_race_premise () =
  Alcotest.(check bool) "Prop 4.2 premise on the shipped automaton" true
    (Core.Event.check_premise Models.Race.pa
       ~states:Models.Race.all_states
       [ (Models.Race.Flip_p, Models.Race.p_heads, Q.half);
         (Models.Race.Flip_q, Models.Race.q_tails, Q.half) ])

let test_race_adversaries_agree_with_exploration () =
  let expl = Mdp.Explore.run Models.Race.pa in
  (* 9 syntactic states, but only those reachable from (?,?) count. *)
  Alcotest.(check int) "reachable states" 9 (Mdp.Explore.num_states expl)

(* ------------------------------------------------------------------ *)
(* E4: the one product caller of [Exec_automaton] and [Event] *)

(* Runs [f] with stdout sent to a temporary file and returns what it
   printed. *)
let capture_stdout f =
  let file = Filename.temp_file "prtb_e4" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
    f;
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  text

(* [prtb experiments e4] prints this table byte for byte: no timing,
   every probability exact.  Rows keep the table's trailing padding. *)
let e4_text =
  String.concat "\n"
    [ "";
      "=== E4: independence proof rules (Sec. 4, Prop 4.2, Ex. 4.1) ===";
      "paper claim: P[first(flip_P,H) ∩ first(flip_Q,T)] >= 1/4 \
       under every adversary; naive conditional independence fails";
      "";
      "Proposition 4.2 premise (every flip step gives its set probability \
       >= 1/2): OK";
      "";
      "adversary            event                  probability  \
       Prop 4.2 bound  ";
      "-------------------  ---------------------  -----------  \
       ----------------";
      "fair                 first(flip_P, H)       1/2          \
       -               ";
      "fair                 first(flip_Q, T)       1/2          \
       -               ";
      "fair                 conjunction            1/4          \
       >= 1/4 (product)";
      "fair                 next(...)              1/2          \
       >= 1/2 (min)    ";
      "fair                 P[H,T | both flipped]  1/4          \
       naive claim: 1/4";
      "dependency (Ex 4.1)  first(flip_P, H)       1/2          \
       -               ";
      "dependency (Ex 4.1)  first(flip_Q, T)       3/4          \
       -               ";
      "dependency (Ex 4.1)  conjunction            1/4          \
       >= 1/4 (product)";
      "dependency (Ex 4.1)  next(...)              1/2          \
       >= 1/2 (min)    ";
      "dependency (Ex 4.1)  P[H,T | both flipped]  1/2          \
       naive claim: 1/4";
      "";
      "" ]

let test_e4_pinned () =
  let e4 = List.assoc "e4" Experiments.Harness.experiments in
  let ctx = Experiments.Harness.make_ctx Experiments.Harness.quick in
  Alcotest.(check string) "prtb experiments e4" e4_text
    (capture_stdout (fun () -> e4 ctx))

(* ------------------------------------------------------------------ *)
(* Config profiles *)

let test_profiles_ordered () =
  let q = Experiments.Harness.quick in
  let d = Experiments.Harness.default in
  let f = Experiments.Harness.full in
  Alcotest.(check bool) "quick <= default trials" true
    (q.Experiments.Harness.sim_trials <= d.Experiments.Harness.sim_trials);
  Alcotest.(check bool) "default <= full trials" true
    (d.Experiments.Harness.sim_trials <= f.Experiments.Harness.sim_trials);
  Alcotest.(check bool) "full adds exhaustive sizes" true
    (List.length f.Experiments.Harness.lr_ns
     >= List.length d.Experiments.Harness.lr_ns);
  Alcotest.(check bool) "same seed everywhere" true
    (q.Experiments.Harness.seed = d.Experiments.Harness.seed
     && d.Experiments.Harness.seed = f.Experiments.Harness.seed)

let () =
  Alcotest.run "experiments"
    [ ("table",
       [ Alcotest.test_case "alignment" `Quick test_table_alignment;
         Alcotest.test_case "pads/truncates" `Quick
           test_table_pads_and_truncates_rows;
         Alcotest.test_case "unicode width" `Quick test_table_unicode_width ]);
      ("race",
       [ Alcotest.test_case "all states" `Quick test_race_all_states;
         Alcotest.test_case "premise" `Quick test_race_premise;
         Alcotest.test_case "exploration" `Quick
           test_race_adversaries_agree_with_exploration ]);
      ("e4", [ Alcotest.test_case "pinned text" `Quick test_e4_pinned ]);
      ("profiles",
       [ Alcotest.test_case "ordering" `Quick test_profiles_ordered ]) ]
