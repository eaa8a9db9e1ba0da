(* Arena snapshots (lib/snapshot): round-trips and refusals.

   Round-trips assert what docs/SNAPSHOTS.md promises: a loaded arena
   is bit-identical to the freshly compiled one on both planes -- the
   exact rational plane is serialized and the float plane is recomputed
   exactly as [Arena.compile] computes it -- so every engine verdict is
   byte-for-byte the same.  Refusals assert the strict-parser
   contract: version skew, truncation, a one-byte tamper and a
   fingerprint mismatch are all named errors, never a silently wrong
   arena. *)

module Q = Proba.Rational
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or
module Store = Snapshot.Store
module Codec = Snapshot.Codec

let bits = Int64.bits_of_float

(* The arena fingerprint as first specified: every number rendered
   through [string_of_int] and [Rational.to_wire] into one string, then
   digested.  [Arena.fingerprint] writes the same bytes in place. *)
let reference_fingerprint ~n ~expanded ~step_off ~out_off ~tgt ~prob_q ~tick
    ~actions ~states =
  let buf = Buffer.create 8192 in
  let add_int i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ','
  in
  Buffer.add_string buf "arena/1;";
  add_int n;
  add_int expanded;
  Array.iter add_int step_off;
  Array.iter add_int out_off;
  Array.iter add_int tgt;
  Array.iter
    (fun q ->
       Buffer.add_string buf (Q.to_wire q);
       Buffer.add_char buf ',')
    prob_q;
  Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) tick;
  Buffer.add_char buf ';';
  Array.iter (fun act -> add_int (Hashtbl.hash act)) actions;
  Buffer.add_char buf ';';
  Array.iter (fun s -> add_int (Hashtbl.hash s)) states;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let arena_reference_fingerprint (type s a) (a : (s, a) Mdp.Arena.t) =
  let open Mdp.Arena in
  reference_fingerprint ~n:a.n ~expanded:a.expanded ~step_off:a.step_off
    ~out_off:a.out_off ~tgt:a.tgt ~prob_q:a.prob_q ~tick:a.tick
    ~actions:a.actions ~states:(Array.init a.n (state a))

(* Bit-identical across both probability planes, plus the
   structural arrays the engines traverse. *)
let check_arena (type s a) name ~(fresh : (s, a) Mdp.Arena.t)
    ~(loaded : (s, a) Mdp.Arena.t) =
  Alcotest.(check string)
    (name ^ ": fingerprint")
    (Mdp.Arena.fingerprint fresh)
    (Mdp.Arena.fingerprint loaded);
  Alcotest.(check string)
    (name ^ ": fingerprint bytes")
    (arena_reference_fingerprint fresh)
    (Mdp.Arena.fingerprint loaded);
  Alcotest.(check int) (name ^ ": states") fresh.Mdp.Arena.n
    loaded.Mdp.Arena.n;
  Alcotest.(check int)
    (name ^ ": expanded")
    fresh.Mdp.Arena.expanded loaded.Mdp.Arena.expanded;
  Alcotest.(check bool)
    (name ^ ": CSR offsets")
    true
    (fresh.Mdp.Arena.step_off = loaded.Mdp.Arena.step_off
     && fresh.Mdp.Arena.out_off = loaded.Mdp.Arena.out_off
     && fresh.Mdp.Arena.tgt = loaded.Mdp.Arena.tgt
     && fresh.Mdp.Arena.tick = loaded.Mdp.Arena.tick);
  (* derived, never stored: the loaded arena recomputes the same order *)
  Alcotest.(check bool)
    (name ^ ": zero-time order")
    true
    (Mdp.Arena.zero_time fresh = Mdp.Arena.zero_time loaded);
  Alcotest.(check (list int))
    (name ^ ": start indices")
    (Mdp.Arena.start_indices fresh)
    (Mdp.Arena.start_indices loaded);
  Alcotest.(check bool)
    (name ^ ": exact plane")
    true
    (Array.for_all2 Q.equal fresh.Mdp.Arena.prob_q loaded.Mdp.Arena.prob_q);
  Alcotest.(check bool)
    (name ^ ": float plane")
    true
    (Array.for_all2
       (fun a b -> bits a = bits b)
       fresh.Mdp.Arena.prob_f loaded.Mdp.Arena.prob_f)

let claim_string = function
  | Ok c -> Format.asprintf "%a" Core.Claim.pp c
  | Error e -> "composition failed: " ^ e

let reload config loaded =
  match Store.of_string (Store.encode config loaded) with
  | Ok (c, l) -> (c, l)
  | Error e -> Alcotest.failf "round-trip refused: %s" e

let lr_config =
  { Store.model = "lr"; n = 3; g = 1; k = 1; topology = "ring"; bound = 0;
    cap = 0; f = 0; initial = [||]; sym = Analysis.Symmetry.Off }

let test_roundtrip_lr () =
  let fresh = Models.lr ~n:3 () in
  match reload lr_config (Store.Lr fresh) with
  | c, Store.Lr loaded ->
    Alcotest.(check string) "model" "lr" c.Store.model;
    check_arena "lr" ~fresh:fresh.LR.Proof.arena ~loaded:loaded.LR.Proof.arena;
    Alcotest.(check string) "lr: composed claim"
      (claim_string (LR.Proof.composed fresh))
      (claim_string (LR.Proof.composed loaded));
    Alcotest.(check bool) "lr: Lemma 6.1" true
      (LR.Invariant.check loaded.LR.Proof.expl = None);
    Alcotest.(check (float 0.0)) "lr: max expected time"
      (LR.Proof.max_expected_time fresh)
      (LR.Proof.max_expected_time loaded)
  | _, _ -> Alcotest.fail "lr decoded to another model"

let test_roundtrip_lr_sym () =
  let fresh = Models.lr ~n:3 ~sym:Analysis.Symmetry.On () in
  let config = { lr_config with Store.sym = Analysis.Symmetry.On } in
  match reload config (Store.Lr fresh) with
  | c, Store.Lr loaded ->
    Alcotest.(check bool) "sym mode survives" true
      (c.Store.sym = Analysis.Symmetry.On);
    (match loaded.LR.Proof.sym with
     | Some cert ->
       Alcotest.(check bool) "certificate still reduced" true
         cert.Analysis.Symmetry.reduced
     | None -> Alcotest.fail "symmetry certificate lost in round-trip");
    check_arena "lr-sym" ~fresh:fresh.LR.Proof.arena
      ~loaded:loaded.LR.Proof.arena;
    Alcotest.(check string) "lr-sym: composed claim"
      (claim_string (LR.Proof.composed fresh))
      (claim_string (LR.Proof.composed loaded))
  | _, _ -> Alcotest.fail "lr-sym decoded to another model"

let test_roundtrip_lr_line () =
  let fresh = Models.lr_topo ~topo:(LR.Topology.line 3) () in
  let config = { lr_config with Store.topology = "line" } in
  match reload config (Store.Lr_topo fresh) with
  | _, Store.Lr_topo loaded ->
    check_arena "lr-line" ~fresh:fresh.LR.Proof.tarena
      ~loaded:loaded.LR.Proof.tarena;
    Alcotest.(check string) "lr-line: composed claim"
      (claim_string (LR.Proof.composed_topo fresh))
      (claim_string (LR.Proof.composed_topo loaded))
  | _, _ -> Alcotest.fail "lr-line decoded to another model"

let test_roundtrip_election () =
  let fresh = Models.election ~n:3 () in
  let config = { lr_config with Store.model = "election" } in
  match reload config (Store.Election fresh) with
  | _, Store.Election loaded ->
    check_arena "election" ~fresh:fresh.IR.Proof.arena
      ~loaded:loaded.IR.Proof.arena;
    Alcotest.(check string) "election: composed claim"
      (claim_string (IR.Proof.composed fresh))
      (claim_string (IR.Proof.composed loaded));
    Alcotest.(check (float 0.0)) "election: max expected time"
      (IR.Proof.max_expected_time fresh)
      (IR.Proof.max_expected_time loaded)
  | _, _ -> Alcotest.fail "election decoded to another model"

let test_roundtrip_coin () =
  let fresh = Models.coin ~n:2 ~bound:3 () in
  let config = { lr_config with Store.model = "coin"; n = 2; bound = 3 } in
  match reload config (Store.Coin fresh) with
  | _, Store.Coin loaded ->
    check_arena "coin" ~fresh:fresh.SC.Proof.arena
      ~loaded:loaded.SC.Proof.arena;
    Alcotest.(check bool) "coin: direct bound" true
      (Q.equal (SC.Proof.direct_bound fresh) (SC.Proof.direct_bound loaded));
    Alcotest.(check (float 0.0)) "coin: exact expected time"
      (SC.Proof.expected_exact fresh)
      (SC.Proof.expected_exact loaded)
  | _, _ -> Alcotest.fail "coin decoded to another model"

let test_roundtrip_consensus () =
  let initial = [| false; false; true |] in
  let fresh = Models.consensus ~n:3 ~f:1 ~cap:2 ~initial () in
  let config =
    { lr_config with Store.model = "consensus"; cap = 2; f = 1; initial }
  in
  match reload config (Store.Consensus fresh) with
  | c, Store.Consensus loaded ->
    Alcotest.(check bool) "initial estimates survive" true
      (c.Store.initial = initial);
    check_arena "consensus" ~fresh:fresh.BO.Proof.arena
      ~loaded:loaded.BO.Proof.arena;
    Alcotest.(check bool) "consensus: agreement" true
      (BO.Proof.agreement_violation loaded = None);
    Alcotest.(check (list string)) "consensus: decision curve"
      (List.map Q.to_string
         (BO.Proof.decision_curve fresh ~rounds:[ 1; 2 ]))
      (List.map Q.to_string
         (BO.Proof.decision_curve loaded ~rounds:[ 1; 2 ]))
  | _, _ -> Alcotest.fail "consensus decoded to another model"

(* Coin runs at n = 1, so a snapshot of it loads: the store accepts
   exactly what [prtb compile] can write. *)
let test_roundtrip_coin_one () =
  let p =
    { Models.family = `Coin; n = 1; g = 1; k = 1; topology = "ring";
      bound = 4; cap = 2 }
  in
  let fresh = Models.resolve p in
  match reload (Store.config_of ~sym:Analysis.Symmetry.Off p) fresh with
  | c, Store.Coin loaded ->
    Alcotest.(check int) "n" 1 c.Store.n;
    (match fresh with
     | Store.Coin fresh ->
       check_arena "coin n=1" ~fresh:fresh.SC.Proof.arena
         ~loaded:loaded.SC.Proof.arena
     | _ -> Alcotest.fail "coin resolved to another model")
  | _, _ -> Alcotest.fail "coin n=1 decoded to another model"

(* ----------------------------------------------------------------- *)
(* Preloading: a saved snapshot seeds the registry under exactly the
   key the service resolves, for every instance kind -- the served
   bodies then cost no exploration and no compile, and match a cold
   build's bytes. *)

let clear_registry () =
  Models.set_capacity (Some 1);
  Models.set_capacity None

let test_preload_keys () =
  let max_states = Server.Service.default_max_states in
  let query model ?(n = 3) ?(topology = "ring") ?(bound = 2) ?(cap = 2) sym =
    { Server.Protocol.model; n; g = 1; k = 1; topology; bound; cap;
      max_states = None; sym; plane = "interval"; deadline_ms = None }
  in
  let path = Filename.temp_file "prtb-preload" ".prtba" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       List.iter
         (fun (name, (q : Server.Protocol.check_query)) ->
            let bodies () =
              ( Analysis.Json.to_string (Server.Service.check_json q),
                Analysis.Json.to_string (Server.Service.cert_json q) )
            in
            clear_registry ();
            let cold = bodies () in
            let sym = Option.get (Analysis.Symmetry.mode_of_string q.sym) in
            let p = Server.Protocol.params q in
            Store.save ~path (Store.config_of ~sym p)
              (Models.resolve ~max_states ~sym p);
            clear_registry ();
            (match Store.preload ~max_states ~path () with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "%s: preload refused: %s" name e);
            let before = Models.stats () in
            let warm = bodies () in
            let after = Models.stats () in
            Alcotest.(check int) (name ^ ": no exploration")
              before.Models.explorations after.Models.explorations;
            Alcotest.(check int) (name ^ ": no compile")
              before.Models.compiles after.Models.compiles;
            Alcotest.(check (pair string string)) (name ^ ": cold bodies")
              cold warm)
         [ ("lr ring", query `Lr "off");
           ("lr line", query `Lr ~topology:"line" "off");
           ("election", query `Election "on");
           ("coin", query `Coin "off");
           ("consensus", query `Consensus ~cap:1 "on") ])

(* ----------------------------------------------------------------- *)
(* Refusals. *)

let contains ~sub s = Astring.String.is_infix ~affix:sub s

let refused name ~expect bytes =
  match Store.of_string bytes with
  | Ok _ -> Alcotest.failf "%s: accepted instead of refused" name
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: error names the cause (%S in %S)" name expect e)
      true (contains ~sub:expect e)

let small_snapshot =
  lazy (Store.encode lr_config (Store.Lr (Models.lr ~n:3 ())))

let test_refuse_version_skew () =
  let bytes = Bytes.of_string (Lazy.force small_snapshot) in
  (* "prtba/1\n" -- the version digit is byte 6 *)
  Bytes.set bytes 6 '9';
  refused "version skew" ~expect:"version" (Bytes.to_string bytes)

let test_refuse_truncation () =
  let bytes = Lazy.force small_snapshot in
  refused "truncation" ~expect:"truncated"
    (String.sub bytes 0 (String.length bytes - 7));
  refused "empty" ~expect:"magic" ""

let test_refuse_tamper () =
  let original = Lazy.force small_snapshot in
  (* Flip the last digest hex character: the seal itself no longer
     matches the bytes it covers. *)
  let bytes = Bytes.of_string original in
  Bytes.set bytes (Bytes.length bytes - 1) 'x';
  refused "digest tamper" ~expect:"digest" (Bytes.to_string bytes);
  (* Flip one content byte mid-file (inside a section payload): the
     digest catches it.  Whatever frame the flip lands in, the result
     must be a refusal, never a quietly different arena. *)
  let bytes = Bytes.of_string original in
  let mid = Bytes.length bytes / 2 in
  Bytes.set bytes mid
    (Char.chr ((Char.code (Bytes.get bytes mid) + 1) land 0xff));
  (match Store.of_string (Bytes.to_string bytes) with
   | Ok _ -> Alcotest.fail "one-byte tamper accepted"
   | Error _ -> ())

let test_refuse_fingerprint_mismatch () =
  match Codec.decode (Lazy.force small_snapshot) with
  | Error e -> Alcotest.failf "decode of a good snapshot failed: %s" e
  | Ok sections ->
    (* A well-formed, correctly sealed container whose stored
       fingerprint disagrees with the arena the current code rebuilds
       -- the staleness surface, distinct from corruption. *)
    let sections =
      List.map
        (fun (name, payload) ->
           if name = "fingerprint" then
             (name, String.make (String.length payload) '0')
           else (name, payload))
        sections
    in
    refused "fingerprint mismatch" ~expect:"fingerprint"
      (Codec.encode sections)

(* The structural refusals: a sealed container whose transition arrays
   disagree.  The digest cannot catch these (the faulty bytes are
   sealed as written), so the loader's own checks must, and each error
   names the array and what is wrong with it. *)
let with_section name edit =
  match Codec.decode (Lazy.force small_snapshot) with
  | Error e -> Alcotest.failf "decode of a good snapshot failed: %s" e
  | Ok sections ->
    Codec.encode
      (List.map
         (fun (what, payload) ->
            if what = name then (what, edit payload) else (what, payload))
         sections)

let ints edit payload =
  Codec.ints_to_string (edit (Result.get_ok (Codec.ints_of_string payload)))

let test_refuse_structure () =
  let n = Mdp.Arena.num_states (Models.lr ~n:3 ()).LR.Proof.arena in
  List.iter
    (fun (name, section, edit, array, cause) ->
       let bytes = with_section section edit in
       refused name ~expect:array bytes;
       refused name ~expect:cause bytes)
    [ ( "non-monotone out_off", "out_off",
        ints (fun a ->
            let a = Array.copy a in
            a.(1) <- a.(2) + 1;
            a),
        "out_off", "not monotone" );
      ( "target beyond the states", "tgt",
        ints (fun a ->
            let a = Array.copy a in
            a.(0) <- n;
            a),
        "tgt", "out of range" );
      ( "frontier state with steps", "counts",
        ints (fun c -> [| c.(0); c.(0) - 1 |]),
        "step_off", "frontier" );
      ( "start index out of range", "starts", ints (fun _ -> [| n |]),
        "start", "out of range" );
      ( "prob_q one entry short", "prob_q",
        (fun payload ->
           let q = Result.get_ok (Codec.rats_of_string payload) in
           Codec.rats_to_string (Array.sub q 0 (Array.length q - 1))),
        "prob_q", "branches" ) ]

(* A states array holding one state twice, resealed with the
   fingerprint such an arena would have: the digest and the fingerprint
   both agree with the bytes, so only the intern table's rebuild can
   see that index 1 is index 0 again. *)
let test_refuse_duplicate_state () =
  match Codec.decode (Lazy.force small_snapshot) with
  | Error e -> Alcotest.failf "decode of a good snapshot failed: %s" e
  | Ok sections ->
    let get of_string name =
      Result.get_ok (of_string (List.assoc name sections))
    in
    let ints = get Codec.ints_of_string in
    let states : LR.State.t array =
      Marshal.from_string (List.assoc "states" sections) 0
    in
    states.(1) <- states.(0);
    let counts = ints "counts" in
    let fingerprint =
      reference_fingerprint ~n:counts.(0) ~expanded:counts.(1)
        ~step_off:(ints "step_off") ~out_off:(ints "out_off") ~tgt:(ints "tgt")
        ~prob_q:(get Codec.rats_of_string "prob_q")
        ~tick:(get Codec.bools_of_string "tick")
        ~actions:
          (Marshal.from_string (List.assoc "actions" sections) 0
           : LR.Automaton.action array)
        ~states
    in
    let bytes =
      Codec.encode
        (List.map
           (fun (name, payload) ->
              match name with
              | "states" -> (name, Marshal.to_string states [])
              | "fingerprint" -> (name, fingerprint)
              | _ -> (name, payload))
           sections)
    in
    refused "duplicate state" ~expect:"state 1 repeats state 0" bytes

(* Int sections hold [string_of_int]'s spelling and nothing else: each
   alias of a stored offset is refused naming the section, although it
   denotes the very value the fingerprint was taken over. *)
let test_refuse_int_spellings () =
  let out_off =
    Result.get_ok
      (Codec.ints_of_string
         (List.assoc "out_off"
            (Result.get_ok (Codec.decode (Lazy.force small_snapshot)))))
  in
  let k = Array.length out_off - 1 in
  let v = out_off.(k) in
  Alcotest.(check bool) "a value with two digits" true (v >= 10);
  let digits = string_of_int v in
  List.iter
    (fun alias ->
       let respelled payload =
         let cut = String.rindex payload ',' + 1 in
         String.sub payload 0 cut ^ alias
       in
       let bytes = with_section "out_off" respelled in
       refused ("out_off as " ^ alias) ~expect:{|section "out_off"|} bytes;
       refused ("out_off as " ^ alias)
         ~expect:(Printf.sprintf "bad integer %S" alias) bytes)
    [ Printf.sprintf "0x%x" v; "+" ^ digits;
      String.sub digits 0 1 ^ "_"
      ^ String.sub digits 1 (String.length digits - 1);
      "0" ^ digits ]

(* ----------------------------------------------------------------- *)
(* The section codecs on their own. *)

let test_codec_ints () =
  List.iter
    (fun arr ->
       let s = Codec.ints_to_string arr in
       Alcotest.(check string) "same bytes as string_of_int"
         (String.concat "," (Array.to_list (Array.map string_of_int arr)))
         s;
       Alcotest.(check (array int)) ("round trip " ^ s) arr
         (Result.get_ok (Codec.ints_of_string s)))
    [ [||]; [| 0 |]; [| -1 |]; [| 0; 1; -1; 10; -10; 123456 |];
      [| max_int; min_int; max_int - 1; min_int + 1; 0 |] ];
  List.iter
    (fun (s, bad) ->
       match Codec.ints_of_string s with
       | Ok _ -> Alcotest.failf "ints %S accepted" s
       | Error e ->
         Alcotest.(check string) ("ints " ^ s)
           (Printf.sprintf "bad integer %S" bad) e)
    [ ("1,,2", ""); ("1,2,", ""); (",", ""); ("1,0x10", "0x10");
      ("+5", "+5"); ("1_0,3", "1_0"); ("01", "01"); ("-0", "-0");
      ("9223372036854775808", "9223372036854775808");
      ("1, 2", " 2") ]

let test_codec_rats () =
  let big =
    Q.make (Proba.Bigint.pow Proba.Bigint.two 100) (Proba.Bigint.of_int 3)
  in
  List.iter
    (fun arr ->
       let s = Codec.rats_to_string arr in
       Alcotest.(check string) "same bytes as to_wire"
         (String.concat ""
            (Array.to_list
               (Array.map
                  (fun q ->
                     let w = Q.to_wire q in
                     string_of_int (String.length w) ^ ":" ^ w)
                  arr)))
         s;
       Alcotest.(check (list string)) ("round trip " ^ s)
         (Array.to_list (Array.map Q.to_string arr))
         (Array.to_list
            (Array.map Q.to_string (Result.get_ok (Codec.rats_of_string s)))))
    [ [||]; [| Q.zero |];
      (* equal spellings of one length in a row, and different values
         of one length in between *)
      [| Q.half; Q.half; Q.of_ints 1 3; Q.half; Q.of_ints 2 3; Q.one; Q.one;
         Q.of_ints (-1) 2; Q.neg Q.one; Q.half |];
      [| Q.of_int max_int; Q.of_int min_int; Q.of_ints 1 max_int;
         Q.of_ints (-7) 4096; big; Q.neg big; big |] ];
  List.iter
    (fun (s, expect) ->
       match Codec.rats_of_string s with
       | Ok _ -> Alcotest.failf "rats %S accepted" s
       | Error e ->
         Alcotest.(check bool)
           (Printf.sprintf "rats %S: %S names %S" s e expect)
           true (contains ~sub:expect e))
    [ ("3:2/4", "non-canonical rational \"2/4\"");
      ("3:1/22:+1", "malformed rational \"+1\"");
      ("2:-0", "non-canonical");
      ("3:1/1", "non-canonical");
      ("9:1/2", "rational frame: truncated");
      ("x:1", "rational frame: bad length prefix");
      ("01:1", "rational frame: bad length prefix") ]

let prop_codec_ints =
  QCheck.Test.make ~name:"int sections round-trip" ~count:300
    QCheck.(
      array (oneof [ int; int_range (-20) 20; oneofl [ max_int; min_int ] ]))
    (fun arr -> Codec.ints_of_string (Codec.ints_to_string arr) = Ok arr)

let prop_codec_rats =
  let rat =
    QCheck.Gen.(
      map2
        (fun n d -> Q.of_ints n (if d = 0 then 1 else d))
        (oneof [ int; int_range (-9) 9 ])
        (oneof [ int; int_range (-9) 9 ]))
  in
  QCheck.Test.make ~name:"rational sections round-trip" ~count:300
    (QCheck.make
       ~print:(fun a ->
           String.concat " " (Array.to_list (Array.map Q.to_string a)))
       QCheck.Gen.(array rat))
    (fun arr ->
       match Codec.rats_of_string (Codec.rats_to_string arr) with
       | Ok back ->
         Array.length back = Array.length arr
         && Array.for_all2 Q.equal arr back
       | Error _ -> false)

(* Configs [prtb compile] never writes: a field the model does not read
   off its neutral value, or consensus off its conventions.  Each is
   refused naming the field, before any arena is rebuilt. *)
let test_refuse_foreign_config () =
  let lr = Store.Lr (Models.lr ~n:3 ()) in
  let consensus =
    Store.Consensus
      (Models.consensus ~n:3 ~f:1 ~cap:2 ~initial:[| false; false; true |] ())
  in
  let consensus_config =
    { lr_config with Store.model = "consensus"; cap = 2; f = 1;
                     initial = [| false; false; true |] }
  in
  List.iter
    (fun (name, config, loaded, expect) ->
       refused name ~expect (Store.encode config loaded))
    [ ( "lr with a bound", { lr_config with Store.bound = 7 }, lr,
        {|bound must be "0" for lr n=3 (got "7")|} );
      ( "lr with a fault bound and estimates",
        { lr_config with Store.f = 3; initial = [| true |] }, lr,
        {|f must be "0" for lr n=3 (got "3")|} );
      ( "lr with estimates", { lr_config with Store.initial = [| true |] }, lr,
        {|initial must be "" for lr n=3 (got "1")|} );
      ( "consensus off the fault bound",
        { consensus_config with Store.f = 0; initial = [| true; true; true |] },
        consensus, {|f must be "1" for consensus n=3 (got "0")|} );
      ( "consensus off the mixed start",
        { consensus_config with Store.initial = [| true; true; true |] },
        consensus, {|initial must be "001" for consensus n=3 (got "111")|} ) ]

(* A save that cannot land (here: the rename onto a directory) raises
   and takes its temp file with it. *)
let test_save_failure_cleans_up () =
  let dir = Filename.temp_dir "prtb-save" "" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
       (match
          Store.save ~path:dir lr_config (Store.Lr (Models.lr ~n:3 ()))
        with
        | () -> Alcotest.fail "saved onto a directory"
        | exception Sys_error _ -> ());
       Alcotest.(check bool) "no temp file left" false
         (Sys.file_exists (dir ^ ".tmp")))

let test_load_missing_file () =
  match Store.load ~path:"/nonexistent/snapshot.prtba" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error _ -> ()

let () =
  Alcotest.run "snapshot"
    [ ( "roundtrip",
        [ Alcotest.test_case "lr ring" `Quick test_roundtrip_lr;
          Alcotest.test_case "lr ring, sym=on" `Quick test_roundtrip_lr_sym;
          Alcotest.test_case "lr line" `Quick test_roundtrip_lr_line;
          Alcotest.test_case "election" `Quick test_roundtrip_election;
          Alcotest.test_case "coin" `Quick test_roundtrip_coin;
          Alcotest.test_case "consensus" `Quick test_roundtrip_consensus;
          Alcotest.test_case "coin n=1" `Quick test_roundtrip_coin_one ] );
      ( "codec",
        [ Alcotest.test_case "int sections" `Quick test_codec_ints;
          Alcotest.test_case "rational sections" `Quick test_codec_rats;
          QCheck_alcotest.to_alcotest prop_codec_ints;
          QCheck_alcotest.to_alcotest prop_codec_rats ] );
      ( "preload",
        [ Alcotest.test_case "keys match the resolver" `Quick
            test_preload_keys ] );
      ( "refusal",
        [ Alcotest.test_case "version skew" `Quick test_refuse_version_skew;
          Alcotest.test_case "truncation" `Quick test_refuse_truncation;
          Alcotest.test_case "one-byte tamper" `Quick test_refuse_tamper;
          Alcotest.test_case "fingerprint mismatch" `Quick
            test_refuse_fingerprint_mismatch;
          Alcotest.test_case "inconsistent transition arrays" `Quick
            test_refuse_structure;
          Alcotest.test_case "duplicate state" `Quick
            test_refuse_duplicate_state;
          Alcotest.test_case "non-canonical integers" `Quick
            test_refuse_int_spellings;
          Alcotest.test_case "config prtb compile never writes" `Quick
            test_refuse_foreign_config;
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
          Alcotest.test_case "failed save leaves no temp file" `Quick
            test_save_failure_cleans_up ] )
    ]
