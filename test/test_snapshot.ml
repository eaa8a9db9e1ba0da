(* Arena snapshots (lib/snapshot): round-trips and refusals.

   Round-trips assert what docs/SNAPSHOTS.md promises: a loaded arena
   is bit-identical to the freshly compiled one on every plane -- the
   exact rational plane is serialized, the float plane is recomputed
   exactly as [Arena.compile] computes it, and the dyadic and interval
   planes rebuild from the exact plane -- so every engine verdict is
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

(* Bit-identical across all three probability planes, plus the
   structural arrays the engines traverse. *)
let check_arena (type s a) name ~(fresh : (s, a) Mdp.Arena.t)
    ~(loaded : (s, a) Mdp.Arena.t) =
  Alcotest.(check string)
    (name ^ ": fingerprint")
    (Mdp.Arena.fingerprint fresh)
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
       fresh.Mdp.Arena.prob_f loaded.Mdp.Arena.prob_f);
  let flo, fhi = Mdp.Arena.interval_plane fresh in
  let llo, lhi = Mdp.Arena.interval_plane loaded in
  Alcotest.(check bool)
    (name ^ ": interval plane")
    true
    (Array.for_all2 (fun a b -> bits a = bits b) flo llo
     && Array.for_all2 (fun a b -> bits a = bits b) fhi lhi)

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
      ( "preload",
        [ Alcotest.test_case "keys match the resolver" `Quick
            test_preload_keys ] );
      ( "refusal",
        [ Alcotest.test_case "version skew" `Quick test_refuse_version_skew;
          Alcotest.test_case "truncation" `Quick test_refuse_truncation;
          Alcotest.test_case "one-byte tamper" `Quick test_refuse_tamper;
          Alcotest.test_case "fingerprint mismatch" `Quick
            test_refuse_fingerprint_mismatch;
          Alcotest.test_case "missing file" `Quick test_load_missing_file ] )
    ]
