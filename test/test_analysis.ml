(* Tests for the model linter: deliberately broken fixture automata
   asserting that each diagnostic code fires with the right severity,
   plus a clean-model test asserting the four paper case studies lint
   without findings. *)

module Q = Proba.Rational
module D = Proba.Dist
module A = Analysis
module Diag = Analysis.Diagnostic
module Report = Analysis.Report

let lint ?is_tick ?accept_terminal ?claims ?plan ?fault_view ?max_states
    ?max_equal_pairs name pa =
  A.run
    (A.config ?is_tick ?accept_terminal ?claims ?plan ?fault_view
       ?max_states ?max_equal_pairs ~name pa)

let check_mem name code report =
  Alcotest.(check bool) (name ^ " fires") true (Report.mem code report)

let check_clean name report =
  Alcotest.(check int) (name ^ ": no errors") 0 (Report.errors report);
  Alcotest.(check int) (name ^ ": no warnings") 0 (Report.warnings report)

(* ------------------------------------------------------------------ *)
(* Broken fixtures *)

(* PA001: a step whose outcome weights sum to 5/6. *)
let test_unnormalized () =
  let enabled = function
    | 0 ->
      [ { Core.Pa.action = "leak";
          dist = D.unsafe_make [ (1, Q.half); (2, Q.of_ints 1 3) ] } ]
    | _ -> []
  in
  let pa =
    Core.Pa.make ~start:[ 0 ] ~enabled
      ~pp_state:(fun fmt -> Format.fprintf fmt "s%d") ()
  in
  let report = lint ~accept_terminal:(fun _ -> true) "unnormalized" pa in
  check_mem "PA001" Diag.PA001 report;
  Alcotest.(check bool) "error severity" true (Report.mem_error Diag.PA001 report);
  Alcotest.(check int) "exit 1" 1 (Report.exit_code report);
  let json = A.Json.to_string (Report.to_json report) in
  Alcotest.(check bool) "code in json" true
    (Astring.String.is_infix ~affix:"\"PA001\"" json)

(* PA002: duplicate outcomes and a zero-weight outcome; weights still
   sum to one so PA001 stays silent. *)
let test_zero_and_duplicate () =
  let enabled = function
    | 0 ->
      [ { Core.Pa.action = "flip";
          dist =
            D.unsafe_make
              [ (1, Q.half); (1, Q.of_ints 1 4); (2, Q.of_ints 1 4);
                (3, Q.zero) ] } ]
    | _ -> []
  in
  let pa = Core.Pa.make ~start:[ 0 ] ~enabled () in
  let report = lint ~accept_terminal:(fun _ -> true) "zero-dup" pa in
  check_mem "PA002" Diag.PA002 report;
  Alcotest.(check bool) "PA001 silent" false (Report.mem Diag.PA001 report);
  Alcotest.(check bool) "warnings only" false (Report.has_errors report);
  Alcotest.(check int) "strict exit 1" 1
    (Report.exit_code ~strict:true report)

(* PA003: equal_state identifies values modulo 2, but the default
   hash_state tells 0/2 apart, so exploration interns them twice. *)
let test_equal_hash_disagreement () =
  let enabled = function
    | i when i < 3 -> [ { Core.Pa.action = "next"; dist = D.point (i + 1) } ]
    | _ -> []
  in
  let pa =
    Core.Pa.make ~equal_state:(fun a b -> a mod 2 = b mod 2)
      ~start:[ 0 ] ~enabled ()
  in
  let report = lint ~accept_terminal:(fun _ -> true) "hash-vs-equal" pa in
  check_mem "PA003" Diag.PA003 report;
  Alcotest.(check bool) "error severity" true
    (Report.mem_error Diag.PA003 report)

(* PA010: a reachable stuck state the model does not accept. *)
let test_deadlock () =
  let enabled = function
    | 0 -> [ { Core.Pa.action = "fall"; dist = D.coin 1 2 } ]
    | 1 -> [ { Core.Pa.action = "loop"; dist = D.point 1 } ]
    | _ -> []  (* state 2 is stuck *)
  in
  let pa = Core.Pa.make ~start:[ 0 ] ~enabled () in
  let strict = lint ~accept_terminal:(fun s -> s = 1) "deadlock" pa in
  check_mem "PA010" Diag.PA010 strict;
  Alcotest.(check bool) "error with classifier" true
    (Report.mem_error Diag.PA010 strict);
  (* without a classifier the same state is only a warning *)
  let lax = lint "deadlock-lax" pa in
  check_mem "PA010 (lax)" Diag.PA010 lax;
  Alcotest.(check bool) "warning without classifier" false
    (Report.has_errors lax)

(* PA011: equal_action identifies the two actions, is_external does
   not classify them consistently. *)
let test_signature_violation () =
  let enabled = function
    | 0 ->
      [ { Core.Pa.action = `Send; dist = D.point 1 };
        { Core.Pa.action = `Recv; dist = D.point 1 } ]
    | _ -> []
  in
  let pa =
    Core.Pa.make ~equal_action:(fun _ _ -> true)
      ~is_external:(fun a -> a = `Send) ~start:[ 0 ] ~enabled ()
  in
  let report = lint ~accept_terminal:(fun _ -> true) "signature" pa in
  check_mem "PA011" Diag.PA011 report

(* PA012: a hand-rolled fault wrapper that marks process 1 crashed in
   its state yet forgets to filter process 1's steps out of [enabled];
   the fault-isolation check must catch the leak.  States are
   [(pos, crashed)], actions name the acting process. *)
let test_fault_leak () =
  let view = ((fun (_, crashed) -> crashed), fun i -> Some i) in
  let step pos crashed i =
    { Core.Pa.action = i; dist = D.point (pos + 1, crashed) }
  in
  let leaky (pos, crashed) =
    if pos >= 2 then [] else List.map (step pos crashed) [ 0; 1 ]
  in
  let pa = Core.Pa.make ~start:[ (0, [ 1 ]) ] ~enabled:leaky () in
  let report =
    lint ~accept_terminal:(fun _ -> true) ~fault_view:view "fault-leak" pa
  in
  check_mem "PA012" Diag.PA012 report;
  Alcotest.(check bool) "error severity" true
    (Report.mem_error Diag.PA012 report);
  (* the corrected wrapper really suppresses the crashed process *)
  let sound (pos, crashed) =
    if pos >= 2 then []
    else
      List.filter_map
        (fun i ->
           if List.mem i crashed then None else Some (step pos crashed i))
        [ 0; 1 ]
  in
  let fixed = Core.Pa.make ~start:[ (0, [ 1 ]) ] ~enabled:sound () in
  let ok =
    lint ~accept_terminal:(fun _ -> true) ~fault_view:view "fault-sound"
      fixed
  in
  Alcotest.(check bool) "PA012 silent on the fix" false
    (Report.mem Diag.PA012 ok)

(* PA020: a zero-time coin-flip loop -- probability mass cycles
   between states 0 and 1 without any tick. *)
let test_zero_time_cycle () =
  let enabled = function
    | 0 -> [ { Core.Pa.action = "flip"; dist = D.coin 1 2 } ]
    | 1 -> [ { Core.Pa.action = "back"; dist = D.point 0 } ]
    | _ -> [ { Core.Pa.action = "tick"; dist = D.point 2 } ]
  in
  let pa = Core.Pa.make ~start:[ 0 ] ~enabled () in
  let report = lint ~is_tick:(fun a -> a = "tick") "zeno" pa in
  check_mem "PA020" Diag.PA020 report;
  Alcotest.(check bool) "error severity" true
    (Report.mem_error Diag.PA020 report)

(* PA021: the adversary can self-loop in the start state forever, so
   no adversary-independent time bound exists; there is no
   probabilistic zero-time cycle, so PA020 must stay silent. *)
let test_tick_blockable () =
  let enabled = function
    | 0 ->
      [ { Core.Pa.action = "stay"; dist = D.point 0 };
        { Core.Pa.action = "tick"; dist = D.point 1 } ]
    | _ -> [ { Core.Pa.action = "tick"; dist = D.point 1 } ]
  in
  let pa = Core.Pa.make ~start:[ 0 ] ~enabled () in
  let report = lint ~is_tick:(fun a -> a = "tick") "blockable" pa in
  check_mem "PA021" Diag.PA021 report;
  Alcotest.(check bool) "PA020 silent" false (Report.mem Diag.PA020 report);
  Alcotest.(check bool) "error severity" true
    (Report.mem_error Diag.PA021 report)

(* PA021 past the first tick: state 0 can only tick, into state 1,
   where the adversary can repeat a non-tick self-loop forever.  The
   check must read every reachable state, not only those reached before
   a tick: exactly state 1 is flagged. *)
let test_tick_blockable_after_tick () =
  let enabled = function
    | 0 -> [ { Core.Pa.action = "tick"; dist = D.point 1 } ]
    | _ ->
      [ { Core.Pa.action = "stay"; dist = D.point 1 };
        { Core.Pa.action = "tick"; dist = D.point 1 } ]
  in
  let pa =
    Core.Pa.make ~start:[ 0 ] ~enabled
      ~pp_state:(fun fmt -> Format.fprintf fmt "s%d") ()
  in
  let report = lint ~is_tick:(fun a -> a = "tick") "blockable-later" pa in
  check_mem "PA021" Diag.PA021 report;
  Alcotest.(check (list (option string))) "witnessed at s1 only"
    [ Some "s1" ]
    (List.filter_map
       (fun d ->
          if d.Diag.code = Diag.PA021 then Some d.Diag.witness else None)
       (Report.diagnostics report))

(* The Walker discipline (deadline c, budget b) is exactly what makes
   every adversary tick: the same shape must pass PA020/PA021. *)
let walker_enabled = function
  | `Done -> [ { Core.Pa.action = "tick"; dist = D.point `Done } ]
  | `Walk (c, b) ->
    let tick =
      if c > 0 then
        [ { Core.Pa.action = "tick"; dist = D.point (`Walk (c - 1, 1)) } ]
      else []
    in
    let flip =
      if b > 0 then
        [ { Core.Pa.action = "flip";
            dist = D.coin `Done (`Walk (1, b - 1)) } ]
      else []
    in
    tick @ flip

let walker_pa = Core.Pa.make ~start:[ `Walk (1, 1) ] ~enabled:walker_enabled ()

let test_walker_time_clean () =
  let report = lint ~is_tick:(fun a -> a = "tick") "walker" walker_pa in
  check_clean "walker" report

(* CL001: a composition planned under a schema that is not marked
   execution closed; Claim.compose itself must also keep refusing. *)
let test_compose_not_closed () =
  let adhoc = Core.Schema.make ~execution_closed:false "adhoc" in
  let u = Core.Pred.make "U" (fun s -> s = `Walk (1, 1)) in
  let v = Core.Pred.make "V" (fun _ -> true) in
  let w = Core.Pred.make "W" (fun s -> s = `Done) in
  let c1 =
    Core.Claim.axiom ~reason:"fixture" ~schema:adhoc ~pre:u ~post:v
      ~time:Q.one ~prob:Q.half ()
  in
  let c2 =
    Core.Claim.axiom ~reason:"fixture" ~schema:adhoc ~pre:v ~post:w
      ~time:Q.one ~prob:Q.half ()
  in
  (match Core.Claim.compose c1 c2 with
   | exception Core.Claim.Rule_violation _ -> ()
   | _ -> Alcotest.fail "compose accepted a non-closed schema");
  let report =
    lint ~is_tick:(fun a -> a = "tick")
      ~plan:[ ("phase1;phase2", c1, c2) ]
      "bad-plan" walker_pa
  in
  check_mem "CL001" Diag.CL001 report;
  Alcotest.(check bool) "error severity" true
    (Report.mem_error Diag.CL001 report);
  (* the same plan under an execution-closed schema is fine *)
  let closed = Core.Schema.unit_time in
  let c1' =
    Core.Claim.axiom ~reason:"fixture" ~schema:closed ~pre:u ~post:v
      ~time:Q.one ~prob:Q.half ()
  and c2' =
    Core.Claim.axiom ~reason:"fixture" ~schema:closed ~pre:v ~post:w
      ~time:Q.one ~prob:Q.half ()
  in
  let ok_plan =
    lint ~is_tick:(fun a -> a = "tick")
      ~claims:[ ("composed", Core.Claim.compose c1' c2') ]
      ~plan:[ ("phase1;phase2", c1', c2') ]
      "good-plan" walker_pa
  in
  Alcotest.(check bool) "CL001 silent" false (Report.mem Diag.CL001 ok_plan)

(* CL002: pre- and post-sets no reachable state satisfies. *)
let test_unsatisfiable_claim () =
  let nowhere = Core.Pred.make "nowhere" (fun _ -> false) in
  let all = Core.Pred.make "all" (fun _ -> true) in
  let vacuous =
    Core.Claim.axiom ~reason:"fixture" ~schema:Core.Schema.unit_time
      ~pre:nowhere ~post:all ~time:Q.one ~prob:Q.one ()
  in
  let dead_post =
    Core.Claim.axiom ~reason:"fixture" ~schema:Core.Schema.unit_time
      ~pre:all ~post:nowhere ~time:Q.one ~prob:Q.half ()
  in
  let report =
    lint ~is_tick:(fun a -> a = "tick")
      ~claims:[ ("vacuous", vacuous); ("dead-post", dead_post) ]
      "unsat" walker_pa
  in
  check_mem "CL002" Diag.CL002 report;
  Alcotest.(check bool) "error severity" true
    (Report.mem_error Diag.CL002 report)

(* PA000: the exploration bound is respected and reported. *)
let test_exploration_bound () =
  let report = lint ~max_states:2 "bounded" walker_pa in
  check_mem "PA000" Diag.PA000 report;
  Alcotest.(check bool) "no errors" false (Report.has_errors report)

(* ------------------------------------------------------------------ *)
(* Clean models: the four paper case studies *)

let test_paper_models_clean () =
  let lr = Lehmann_rabin.Automaton.make { n = 2; g = 1; k = 1 } in
  check_clean "lehmann-rabin"
    (lint ~is_tick:Lehmann_rabin.Automaton.is_tick "lr" lr);
  let ir = Itai_rodeh.Automaton.make { n = 2; g = 1; k = 1 } in
  check_clean "itai-rodeh"
    (lint ~is_tick:Itai_rodeh.Automaton.is_tick "election" ir);
  let sc = Shared_coin.Automaton.make { n = 1; bound = 2; g = 1; k = 1 } in
  check_clean "shared-coin"
    (lint ~is_tick:Shared_coin.Automaton.is_tick "coin" sc);
  let bo =
    Ben_or.Automaton.make ~initial:[| false; true; true |]
      { n = 3; f = 1; cap = 1; g = 1; k = 1 }
  in
  check_clean "ben-or" (lint ~is_tick:Ben_or.Automaton.is_tick "consensus" bo)

(* ------------------------------------------------------------------ *)
(* Infrastructure units: JSON, capping, report algebra, claim views *)

let test_json_escaping () =
  let j =
    A.Json.Obj
      [ ("k\"ey", A.Json.Str "a\\b\nc\td\x01");
        ("xs", A.Json.Arr [ A.Json.Int 1; A.Json.Bool false; A.Json.Null ]) ]
  in
  Alcotest.(check string) "escaped"
    "{\"k\\\"ey\":\"a\\\\b\\nc\\td\\u0001\",\"xs\":[1,false,null]}"
    (A.Json.to_string j)

let test_diagnostic_cap () =
  let mk i =
    Diag.v Diag.PA001 Diag.Error ~model:"m" (Printf.sprintf "d%d" i)
  in
  let ds = List.init 10 mk in
  let capped = Diag.cap ~limit:3 ds in
  Alcotest.(check int) "3 kept + 1 note" 4 (List.length capped);
  let note = List.nth capped 3 in
  Alcotest.(check bool) "note is info" true
    (note.Diag.severity = Diag.Info);
  Alcotest.(check (list string)) "uncapped untouched"
    (List.map (fun d -> d.Diag.message) (Diag.cap ~limit:3 [ mk 0 ]))
    [ "d0" ]

let test_report_algebra () =
  let stats model =
    { Report.model; states = 1; choices = 1; branches = 1; skipped = [] }
  in
  let err = Diag.v Diag.PA001 Diag.Error ~model:"a" "boom" in
  let warn = Diag.v Diag.PA002 Diag.Warning ~model:"b" "meh" in
  let r =
    Report.merge (Report.make (stats "a") [ err ])
      (Report.make (stats "b") [ warn ])
  in
  Alcotest.(check int) "errors" 1 (Report.errors r);
  Alcotest.(check int) "warnings" 1 (Report.warnings r);
  Alcotest.(check int) "two models" 2 (List.length (Report.stats r));
  Alcotest.(check int) "exit" 1 (Report.exit_code r);
  Alcotest.(check int) "empty exit" 0 (Report.exit_code Report.empty)

let test_claim_introspection () =
  let u = Core.Pred.make "U" (fun _ -> true) in
  let v = Core.Pred.make "V" (fun _ -> true) in
  let w = Core.Pred.make "W" (fun _ -> true) in
  let mk pre post =
    Core.Claim.axiom ~reason:"r" ~schema:Core.Schema.unit_time ~pre ~post
      ~time:Q.one ~prob:Q.half ()
  in
  let composed = Core.Claim.compose (mk u v) (mk v w) in
  (match Core.Claim.rule composed with
   | Core.Claim.Composed (a, b) ->
     Alcotest.(check string) "left pre" "U" (Core.Pred.name (Core.Claim.pre a));
     Alcotest.(check string) "right post" "W"
       (Core.Pred.name (Core.Claim.post b))
   | _ -> Alcotest.fail "expected a compose node");
  Alcotest.(check int) "two children" 2
    (List.length (Core.Claim.subclaims composed));
  let nodes = ref 0 in
  Core.Claim.iter_derivation (fun _ -> incr nodes) composed;
  Alcotest.(check int) "three nodes" 3 !nodes

(* ------------------------------------------------------------------ *)
(* Randomized JSON round trips.

   The server speaks Analysis.Json on the wire, so [of_string] must
   invert [to_string] on every tree the emitter can produce.  The
   generator leans on the hostile corners: strings over the full byte
   range (quotes, backslashes, control characters that serialize as
   \uXXXX, multi-byte UTF-8 fragments), deep nesting, duplicate object
   keys.  Two deliberate exclusions, both emitter normalizations rather
   than bugs: integral floats serialize without a fraction and so parse
   back as [Int], and NaN/infinity serialize as [null]. *)

let json_gen =
  let open QCheck.Gen in
  let any_string =
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12)
  in
  let leaf =
    oneof
      [ return A.Json.Null;
        map (fun b -> A.Json.Bool b) bool;
        map (fun i -> A.Json.Int i) int;
        (* m + 0.3 is never integral, so the fraction survives
           serialization and the value parses back as [Num]. *)
        map
          (fun m -> A.Json.Num (float_of_int m +. 0.3))
          (int_range (-1_000_000) 1_000_000);
        map (fun s -> A.Json.Str s) any_string ]
  in
  sized
  @@ fix (fun self size ->
      if size <= 0 then leaf
      else
        frequency
          [ (3, leaf);
            ( 1,
              map
                (fun xs -> A.Json.Arr xs)
                (list_size (int_bound 4) (self (size / 2))) );
            ( 1,
              map
                (fun kvs -> A.Json.Obj kvs)
                (list_size (int_bound 4)
                   (pair any_string (self (size / 2)))) ) ])

let json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"of_string inverts to_string"
    (QCheck.make json_gen ~print:(fun j -> A.Json.to_string j))
    (fun j ->
       match A.Json.of_string (A.Json.to_string j) with
       | Ok j' -> j' = j
       | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg)

let test_json_unicode_escapes () =
  (* \uXXXX escapes decode to UTF-8 bytes; re-serializing keeps the raw
     bytes (only control characters are re-escaped). *)
  let cases =
    [ ("\"\\u0041\"", "A");
      ("\"\\u00e9\"", "\xc3\xa9");
      ("\"\\u20ac\"", "\xe2\x82\xac");
      ("\"a\\u0000b\"", "a\x00b") ]
  in
  List.iter
    (fun (doc, expect) ->
       match A.Json.of_string doc with
       | Ok (A.Json.Str s) -> Alcotest.(check string) doc expect s
       | Ok _ -> Alcotest.fail (doc ^ ": not a string")
       | Error e -> Alcotest.fail (doc ^ ": " ^ e))
    cases

let test_json_deep_nesting () =
  let deep = ref (A.Json.Int 0) in
  for _ = 1 to 200 do
    deep := A.Json.Arr [ A.Json.Obj [ ("k", !deep) ] ]
  done;
  match A.Json.of_string (A.Json.to_string !deep) with
  | Ok j -> Alcotest.(check bool) "deep round trip" true (j = !deep)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [ ( "fixtures",
        [ Alcotest.test_case "PA001 unnormalized" `Quick test_unnormalized;
          Alcotest.test_case "PA002 zero/duplicate" `Quick
            test_zero_and_duplicate;
          Alcotest.test_case "PA003 equal vs hash" `Quick
            test_equal_hash_disagreement;
          Alcotest.test_case "PA010 deadlock" `Quick test_deadlock;
          Alcotest.test_case "PA011 signature" `Quick
            test_signature_violation;
          Alcotest.test_case "PA012 fault leak" `Quick test_fault_leak;
          Alcotest.test_case "PA020 zero-time cycle" `Quick
            test_zero_time_cycle;
          Alcotest.test_case "PA021 tick blockable" `Quick
            test_tick_blockable;
          Alcotest.test_case "PA021 tick blockable after a tick" `Quick
            test_tick_blockable_after_tick;
          Alcotest.test_case "CL001 non-closed compose" `Quick
            test_compose_not_closed;
          Alcotest.test_case "CL002 unsatisfiable sets" `Quick
            test_unsatisfiable_claim;
          Alcotest.test_case "PA000 exploration bound" `Quick
            test_exploration_bound ] );
      ( "clean models",
        [ Alcotest.test_case "walker timing clean" `Quick
            test_walker_time_clean;
          Alcotest.test_case "paper case studies" `Quick
            test_paper_models_clean ] );
      ( "infrastructure",
        [ Alcotest.test_case "json escaping" `Quick test_json_escaping;
          Alcotest.test_case "diagnostic cap" `Quick test_diagnostic_cap;
          Alcotest.test_case "report algebra" `Quick test_report_algebra;
          Alcotest.test_case "claim introspection" `Quick
            test_claim_introspection ] );
      ( "json round trips",
        [ QCheck_alcotest.to_alcotest json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick
            test_json_unicode_escapes;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting ] ) ]
