(* The certificate pipeline, end to end: emission from the real case
   studies, the independent verifier's rule arithmetic, integrity
   (every single-byte tamper detected, value tampers pinned to the
   owning node), arena-fingerprint determinism, and exact Bigint-tier
   rationals across the wire. *)

module J = Analysis.Json
module Q = Proba.Rational
module B = Proba.Bigint
module N = Cert.Node
module V = Cert.Verify
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin

(* ------------------------------------------------------------------ *)
(* Helpers. *)

let query ?(model = `Lr) ?(n = 3) ?(g = 1) ?(k = 1) ?(topology = "ring")
    ?(bound = 2) ?(cap = 2) ?(sym = "off") ?(plane = "interval") () =
  { Server.Protocol.model; n; g; k; topology; bound; cap;
    max_states = None; sym; plane; deadline_ms = None }

let cert_of_query q =
  match N.of_json (Server.Service.cert_json q) with
  | Ok c -> c
  | Error e -> Alcotest.failf "cert_json did not yield a certificate: %s" e

let expect_ok c =
  match V.run c with
  | Ok s -> s
  | Error e -> Alcotest.failf "verify failed: %s" (V.error_to_string e)

let expect_err what c =
  match V.run c with
  | Ok _ -> Alcotest.failf "%s: a bad certificate verified" what
  | Error e -> e

(* Hand-built DAGs for the structural tests: two checked leaves chained
   by a compose node, built exactly the way the verifier re-checks them
   -- then individual premises are broken one at a time. *)

let schema_name = "Unit-Time"

let cfg =
  { N.model = "lr"; n = 3; plane = "interval"; sym = "off";
    faults = "none"; budget = "states:1000"; params = [ ("g", "1") ] }

let leaf ~pre ~post ~time ~prob =
  let unhashed =
    { N.pre; post; time = Q.of_int time; prob;
      node_schema = schema_name; closed = true;
      rule =
        N.Checked
          { evidence = "test: exact backward induction";
            fingerprint = String.make 32 'a'; config = cfg };
      hash = "" }
  in
  { unhashed with N.hash = N.node_hash unhashed ~child_hashes:[] }

let compose_node ?time ?prob (a, ca) (b, cb) =
  let time = Option.value time ~default:(Q.add ca.N.time cb.N.time) in
  let prob = Option.value prob ~default:(Q.mul ca.N.prob cb.N.prob) in
  let unhashed =
    { N.pre = ca.N.pre; post = cb.N.post; time; prob;
      node_schema = schema_name; closed = true; rule = N.Compose (a, b);
      hash = "" }
  in
  { unhashed with
    N.hash = N.node_hash unhashed ~child_hashes:[ ca.N.hash; cb.N.hash ] }

let render (n : N.node) =
  Printf.sprintf "%s --%s-->_%s %s  [%s]" n.N.pre (Q.to_string n.N.time)
    (Q.to_string n.N.prob) n.N.post n.N.node_schema

let assemble ?claim ?digest ~root nodes =
  let nodes = Array.of_list nodes in
  let claim = Option.value claim ~default:(render nodes.(root)) in
  let digest =
    Option.value digest
      ~default:
        (N.certificate_digest ~version:1 ~model:"lr" ~claim ~root
           ~node_hashes:(List.map (fun n -> n.N.hash) (Array.to_list nodes)))
  in
  { N.version = 1; model = "lr"; claim; root; nodes; digest }

let half = Q.half
let l1 () = leaf ~pre:"T" ~post:"M" ~time:2 ~prob:half
let l2 () = leaf ~pre:"M" ~post:"C" ~time:3 ~prob:half

let good_pair () =
  let a = l1 () and b = l2 () in
  assemble ~root:2 [ a; b; compose_node (0, a) (1, b) ]

(* ------------------------------------------------------------------ *)
(* Emission from the four case studies. *)

let check_model name q ~min_leaves =
  let c = cert_of_query q in
  let s = expect_ok c in
  Alcotest.(check string) (name ^ " model") name c.N.model;
  Alcotest.(check bool)
    (name ^ " has checked leaves") true
    (s.V.leaves >= min_leaves);
  Alcotest.(check bool) (name ^ " fully verified") true s.V.fully_verified;
  Alcotest.(check string)
    (name ^ " claim text re-derived") c.N.claim s.V.root_claim

let test_emit_lr () =
  check_model "lr" (query ~model:`Lr ()) ~min_leaves:5

let test_emit_election () =
  check_model "election" (query ~model:`Election ()) ~min_leaves:2

let test_emit_coin () =
  check_model "coin" (query ~model:`Coin ~n:2 ()) ~min_leaves:2

let test_emit_consensus () =
  check_model "consensus" (query ~model:`Consensus ()) ~min_leaves:1

(* An uncertifiable query (the adversary can block every 1-round
   decision) answers a structured header, not a certificate. *)
let test_emit_uncertified () =
  let j = Server.Service.cert_json (query ~model:`Consensus ~cap:1 ()) in
  (match J.member "verdict" j with
   | Some (J.Str "uncertified") -> ()
   | other ->
     Alcotest.failf "expected an uncertified header, got %s"
       (match other with Some v -> J.to_string v | None -> "no verdict"));
  match N.of_json j with
  | Ok _ -> Alcotest.fail "an uncertified header parsed as a certificate"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Wire round-trips and determinism. *)

let test_roundtrip_bytes () =
  let c = cert_of_query (query ~model:`Lr ()) in
  let s = N.to_string c in
  match N.of_string s with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok c' ->
    Alcotest.(check string) "byte-identical re-serialization" s
      (N.to_string c');
    ignore (expect_ok c')

let test_emission_deterministic () =
  let q = query ~model:`Coin ~n:2 () in
  Alcotest.(check string) "same query, same bytes"
    (J.to_string (Server.Service.cert_json q))
    (J.to_string (Server.Service.cert_json q))

(* ------------------------------------------------------------------ *)
(* Tamper detection. *)

(* Acceptance: flipping ANY single byte of a serialized certificate is
   detected -- either the strict parser refuses it or the verifier
   fails.  The sweep covers every byte, so there is no unhashed,
   unchecked slack anywhere in the wire format. *)
let test_tamper_every_byte () =
  let body = N.to_string (cert_of_query (query ~model:`Coin ~n:2 ())) in
  let undetected = ref [] in
  String.iteri
    (fun i c ->
       let b = Bytes.of_string body in
       Bytes.set b i (Char.chr (Char.code c lxor 1));
       match N.of_string (Bytes.to_string b) with
       | Error _ -> ()
       | Ok cert ->
         (match V.run cert with
          | Error _ -> ()
          | Ok _ -> undetected := i :: !undetected))
    body;
  Alcotest.(check (list int)) "every byte flip detected" [] !undetected

(* A tampered value field is pinned to the node that owns it. *)
let tamper_once body ~sub ~at_offset f =
  match Astring.String.find_sub ~sub body with
  | None -> Alcotest.failf "substring %S not found" sub
  | Some i ->
    let j = i + String.length sub + at_offset in
    let b = Bytes.of_string body in
    Bytes.set b j (f (Bytes.get b j));
    Bytes.to_string b

let expect_named_node what body =
  match N.of_string body with
  | Error _ -> Alcotest.failf "%s: expected a verify failure, parse failed" what
  | Ok cert ->
    (match V.run cert with
     | Ok _ -> Alcotest.failf "%s: tampered certificate verified" what
     | Error e ->
       Alcotest.(check bool)
         (what ^ " names the failing node") true
         (e.V.node <> None))

let test_tamper_named_node () =
  let body = N.to_string (cert_of_query (query ~model:`Coin ~n:2 ())) in
  (* a fingerprint byte, kept inside the hex alphabet so only the hash
     check can catch it *)
  expect_named_node "fingerprint"
    (tamper_once body ~sub:"\"fingerprint\":\"" ~at_offset:0 (fun c ->
         if c = '0' then '1' else '0'));
  (* an evidence byte *)
  expect_named_node "evidence"
    (tamper_once body ~sub:"\"evidence\":\"" ~at_offset:0 (fun _ -> 'X'));
  (* a weight: the first digit of the first node's time *)
  expect_named_node "time weight"
    (tamper_once body ~sub:"\"time\":\"" ~at_offset:0 (fun c ->
         if c = '1' then '2' else '1'))

(* ------------------------------------------------------------------ *)
(* The verifier's own rule arithmetic (independent of hashes: these
   certificates carry self-consistent hashes over wrong payloads). *)

let test_verify_good_pair () =
  let s = expect_ok (good_pair ()) in
  Alcotest.(check int) "nodes" 3 s.V.nodes;
  Alcotest.(check int) "leaves" 2 s.V.leaves;
  Alcotest.(check bool) "fully verified" true s.V.fully_verified

let test_verify_bad_sum () =
  let a = l1 () and b = l2 () in
  let c =
    assemble ~root:2
      [ a; b; compose_node ~time:(Q.of_int 4) (0, a) (1, b) ]
  in
  let e = expect_err "wrong time sum" c in
  Alcotest.(check (option int)) "pinned to the compose node" (Some 2) e.V.node

let test_verify_bad_product () =
  let a = l1 () and b = l2 () in
  let c =
    assemble ~root:2 [ a; b; compose_node ~prob:Q.half (0, a) (1, b) ]
  in
  let e = expect_err "wrong probability product" c in
  Alcotest.(check (option int)) "pinned to the compose node" (Some 2) e.V.node

let test_verify_dangling_child () =
  let a = l1 () and b = l2 () in
  (* compose refers to itself: child index not strictly below parent *)
  let c = assemble ~root:2 [ a; b; compose_node (0, a) (2, b) ] in
  let e = expect_err "dangling child" c in
  Alcotest.(check (option int)) "pinned" (Some 2) e.V.node

let test_verify_unreachable_node () =
  let a = l1 () and b = l2 () in
  let stray = leaf ~pre:"X" ~post:"Y" ~time:1 ~prob:Q.one in
  let c = assemble ~root:2 [ a; b; compose_node (0, a) (1, b); stray ] in
  let e = expect_err "unreachable node" c in
  Alcotest.(check (option int)) "names the stray" (Some 3) e.V.node

let test_verify_claim_mismatch () =
  let c = { (good_pair ()) with N.claim = "T --5-->_1/2 C  [Unit-Time]" } in
  (* the digest covers the claim, so recompute it for the lie: only the
     claim/render cross-check may catch this *)
  let c =
    { c with
      N.digest =
        N.certificate_digest ~version:1 ~model:"lr" ~claim:c.N.claim
          ~root:c.N.root
          ~node_hashes:
            (List.map (fun n -> n.N.hash) (Array.to_list c.N.nodes)) }
  in
  ignore (expect_err "claim text mismatch" c)

let test_verify_digest_mismatch () =
  let c = good_pair () in
  let c = { c with N.digest = String.make 32 '0' } in
  ignore (expect_err "digest mismatch" c)

let test_verify_trivial_rules () =
  let incl =
    { N.sub = "A"; sup = "B"; incl_evidence = "checked over 10 states";
      assumed = false }
  in
  let mk ~time ~prob =
    let unhashed =
      { N.pre = "A"; post = "B"; time; prob; node_schema = schema_name;
        closed = true; rule = N.Trivial incl; hash = "" }
    in
    { unhashed with N.hash = N.node_hash unhashed ~child_hashes:[] }
  in
  ignore (expect_ok (assemble ~root:0 [ mk ~time:Q.zero ~prob:Q.one ]));
  ignore
    (expect_err "trivial with time 1"
       (assemble ~root:0 [ mk ~time:Q.one ~prob:Q.one ]));
  ignore
    (expect_err "trivial with prob 1/2"
       (assemble ~root:0 [ mk ~time:Q.zero ~prob:Q.half ]))

let test_verify_assumed_inclusion_not_fully_verified () =
  let incl =
    { N.sub = "A"; sup = "B"; incl_evidence = ""; assumed = true }
  in
  let unhashed =
    { N.pre = "A"; post = "B"; time = Q.zero; prob = Q.one;
      node_schema = schema_name; closed = true; rule = N.Trivial incl;
      hash = "" }
  in
  let n = { unhashed with N.hash = N.node_hash unhashed ~child_hashes:[] } in
  let s = expect_ok (assemble ~root:0 [ n ]) in
  Alcotest.(check bool) "assumed => not fully verified" false
    s.V.fully_verified;
  Alcotest.(check int) "counted as an assumption" 1 s.V.axioms

(* Parse-level strictness: non-canonical rationals and unknown fields
   are rejected before the verifier even runs. *)
let test_parse_strictness () =
  let body = N.to_string (good_pair ()) in
  let bad_rational =
    Astring.String.cuts ~sep:"\"prob\":\"1/2\"" body
    |> String.concat "\"prob\":\"2/4\""
  in
  (match N.of_string bad_rational with
   | Ok _ -> Alcotest.fail "non-canonical rational accepted"
   | Error e ->
     Alcotest.(check bool) "message blames the rational" true
       (Astring.String.is_infix ~affix:"2/4" e));
  let unknown_field =
    Astring.String.cuts ~sep:"\"version\":1" body
    |> String.concat "\"version\":1,\"extra\":true"
  in
  (match N.of_string unknown_field with
   | Ok _ -> Alcotest.fail "unknown top-level field accepted"
   | Error _ -> ());
  match N.of_string (Astring.String.cuts ~sep:"\"version\":1" body
                     |> String.concat "\"version\":2") with
  | Ok _ -> Alcotest.fail "unsupported version accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Composition from arrows already checked: what a surface composes from
   the arrows it has just rendered must be what [composed] derives on its
   own, down to the certificate bytes; and /check must check each arrow
   once. *)

let claim_text = function
  | Ok c -> Format.asprintf "%a" Core.Claim.pp c
  | Error e -> "error: " ^ e

let cert_bytes arena = function
  | Ok c ->
    J.to_string
      (N.to_json
         (Cert.Emit.emit ~config:cfg ~fingerprint:(Mdp.Arena.fingerprint arena)
            c))
  | Error e -> "error: " ^ e

let same_composition name arena ~precomputed ~composed =
  Alcotest.(check string) (name ^ " claim") (claim_text composed)
    (claim_text precomputed);
  Alcotest.(check string) (name ^ " certificate bytes")
    (cert_bytes arena composed) (cert_bytes arena precomputed);
  Alcotest.(check bool) (name ^ " composes") true (Result.is_ok precomputed)

let test_compose_lr_ring () =
  let inst = Models.lr ~n:3 () in
  let arrows = LR.Proof.arrows inst in
  same_composition "lr ring" inst.LR.Proof.arena
    ~precomputed:(LR.Proof.compose_arrows inst arrows)
    ~composed:(LR.Proof.composed inst);
  (* The first arrow that does not hold names the failure, as when
     [composed] checked them itself. *)
  let broken =
    List.map
      (fun (a : LR.Proof.arrow) ->
         if a.LR.Proof.label = "A.15" || a.LR.Proof.label = "A.11" then
           { a with LR.Proof.claim = None; attained = Q.zero }
         else a)
      arrows
  in
  Alcotest.(check string) "first failing arrow"
    "error: A.15 does not hold at the paper's bound: attained 0 < 1"
    (claim_text (LR.Proof.compose_arrows inst broken))

let test_compose_lr_star () =
  let inst = Models.lr_topo ~topo:(LR.Topology.star 3) () in
  same_composition "lr star" inst.LR.Proof.tarena
    ~precomputed:
      (LR.Proof.compose_arrows_topo inst (LR.Proof.arrows_topo inst))
    ~composed:(LR.Proof.composed_topo inst)

let test_compose_election () =
  let inst = Models.election ~n:3 () in
  same_composition "election" inst.IR.Proof.arena
    ~precomputed:(IR.Proof.compose_arrows (IR.Proof.arrows inst))
    ~composed:(IR.Proof.composed inst)

let test_compose_coin () =
  let inst = Models.coin ~n:2 ~bound:3 () in
  same_composition "coin" inst.SC.Proof.arena
    ~precomputed:(SC.Proof.compose_arrows (SC.Proof.arrows inst))
    ~composed:(SC.Proof.composed inst)

(* Tick layers are the checker's unit of work.  [layered f] is [f]'s
   result and the layers it solved. *)
let layered f =
  let before = Mdp.Finite_horizon.layers_solved () in
  let r = Sys.opaque_identity (f ()) in
  (r, Mdp.Finite_horizon.layers_solved () - before)

let layers f = snd (layered f)

(* A cold /check body costs its arrows once plus the direct bound and
   the expected time, with no second round of arrow checks for the
   composed claim; on a warm instance it solves nothing. *)
let test_check_json_checks_arrows_once () =
  let cold = LR.Proof.build ~n:3 () in
  let arrows = layers (fun () -> LR.Proof.arrows cold) in
  let rest =
    layers (fun () ->
        (LR.Proof.direct_bound cold, LR.Proof.max_expected_time cold))
  in
  Alcotest.(check bool) "the arrows solve tick layers" true (arrows >= 5);
  let q = query ~model:`Lr ~n:3 () in
  (* A zero registry capacity keeps nothing: each call builds anew. *)
  Models.set_capacity (Some 0);
  let cold_check =
    Fun.protect
      ~finally:(fun () -> Models.set_capacity None)
      (fun () -> layers (fun () -> Server.Service.check_json q))
  in
  Alcotest.(check int) "cold check_json: arrows once, then the bounds"
    (arrows + rest) cold_check;
  ignore (Server.Service.check_json q);
  Alcotest.(check int) "warm check_json: nothing" 0
    (layers (fun () -> Server.Service.check_json q))

(* ------------------------------------------------------------------ *)
(* Solved passes, shared across planes and surfaces. *)

let header_keys = [ "schema"; "model"; "params"; "verdict" ]

(* A /check body's result fields, its header dropped. *)
let result_fields = function
  | J.Obj fields ->
    J.to_string
      (J.Obj (List.filter (fun (k, _) -> not (List.mem k header_keys)) fields))
  | body -> Alcotest.failf "not an object: %s" (J.to_string body)

let cold_fields inst = J.to_string (J.Obj (Models.check_fields inst))

let cold_cert ~plane inst =
  let config =
    { N.model = "lr"; n = 3; plane; sym = "off"; faults = "none";
      budget = Printf.sprintf "states:%d" Server.Service.default_max_states;
      params = Models.leaf_params (Server.Protocol.params (query ())) }
  in
  match Models.certificate ~config inst with
  | Ok c -> J.to_string (N.to_json c)
  | Error e -> Alcotest.failf "cold certificate refused: %s" e

(* After /check on one plane, /check on the other and /cert solve no
   tick layer, and answer what a cold arena outside the registry
   answers. *)
let test_warm_surfaces_solve_nothing () =
  let q = query () in
  ignore (Server.Service.check_json q);
  let exact = { q with Server.Protocol.plane = "exact" } in
  let check_body, check_layers =
    layered (fun () -> Server.Service.check_json exact)
  in
  let cert_body, cert_layers =
    layered (fun () -> Server.Service.cert_json q)
  in
  Alcotest.(check int) "/check on the other plane" 0 check_layers;
  Alcotest.(check int) "/cert" 0 cert_layers;
  Alcotest.(check string) "/check body = the cold arena's"
    (cold_fields (Models.Lr (LR.Proof.build ~n:3 ())))
    (result_fields check_body);
  Alcotest.(check string) "/cert body = the cold arena's"
    (cold_cert ~plane:"interval" (Models.Lr (LR.Proof.build ~n:3 ())))
    (J.to_string cert_body)

(* A pass cut by a deadline stores nothing: the next full check on the
   same arena solves every layer a cold one does, and answers the same
   body. *)
let test_cut_pass_stores_nothing () =
  let cold_body, cold_layers =
    layered (fun () -> cold_fields (Models.Lr (LR.Proof.build ~n:3 ())))
  in
  let inst = LR.Proof.build ~n:3 () in
  let clock = Core.Budget.start (Core.Budget.v ~wall:0.001 ()) in
  (match
     Core.Budget.with_deadline clock (fun () -> LR.Proof.direct_bound inst)
   with
   | _ -> Alcotest.fail "the 1 ms deadline did not cut the pass"
   | exception Core.Budget.Deadline_exceeded _ -> ());
  let body, solved = layered (fun () -> cold_fields (Models.Lr inst)) in
  Alcotest.(check int) "the next check solves every layer" cold_layers
    solved;
  Alcotest.(check string) "and answers the cold body" cold_body body

(* ------------------------------------------------------------------ *)
(* Arena fingerprints. *)

let fp_lr ?g ?sym n =
  Mdp.Arena.fingerprint (LR.Proof.build ?g ?sym ~n ()).LR.Proof.arena

let test_fingerprint_deterministic () =
  Alcotest.(check string) "two independent builds agree" (fp_lr 3) (fp_lr 3)

let test_fingerprint_distinct () =
  let fps =
    [ ("lr n=3", fp_lr 3); ("lr n=4", fp_lr 4); ("lr n=3 g=2", fp_lr ~g:2 3);
      ( "lr n=3 sym=on",
        fp_lr ~sym:Analysis.Symmetry.On 3 );
      ( "election n=3",
        Mdp.Arena.fingerprint
          (IR.Proof.build ~n:3 ()).IR.Proof.arena ) ]
  in
  List.iteri
    (fun i (ni, fi) ->
       List.iteri
         (fun j (nj, fj) ->
            if i < j && String.equal fi fj then
              Alcotest.failf "%s and %s share fingerprint %s" ni nj fi)
         fps)
    fps

(* ------------------------------------------------------------------ *)
(* Bigint-tier rationals across the wire (numerators and denominators
   far past native-int promotion). *)

let big_q num den = Q.make (B.of_string num) (B.of_string den)

let test_bigint_wire_roundtrip () =
  let huge =
    [ big_q "123456789012345678901234567890123456789"
        "987654321098765432109876543210987654321";
      Q.pow Q.half 300;
      Q.pow (Q.of_ints 3 7) 64 ]
  in
  List.iter
    (fun v ->
       (* bare wire codec *)
       (match Q.of_wire (Q.to_wire v) with
        | Ok v' -> Alcotest.(check bool) "wire round-trip exact" true
                     (Q.equal v v')
        | Error e -> Alcotest.failf "of_wire: %s" e);
       (* through the JSON layer *)
       let s = J.to_string (J.Obj [ ("q", J.Str (Q.to_wire v)) ]) in
       match J.of_string s with
       | Error e -> Alcotest.failf "json parse: %s" e
       | Ok j ->
         (match J.member "q" j with
          | Some (J.Str w) ->
            (match Q.of_wire w with
             | Ok v' ->
               Alcotest.(check bool) "json round-trip exact" true
                 (Q.equal v v')
             | Error e -> Alcotest.failf "of_wire after json: %s" e)
          | _ -> Alcotest.fail "missing field"))
    huge

let test_bigint_certificate_roundtrip () =
  let prob = Q.pow Q.half 300 in
  let time = Q.of_bigint (B.of_string (String.make 40 '9')) in
  let unhashed =
    { N.pre = "A"; post = "B"; time; prob; node_schema = schema_name;
      closed = true;
      rule =
        N.Checked
          { evidence = "bigint tier"; fingerprint = String.make 32 'b';
            config = cfg };
      hash = "" }
  in
  let n = { unhashed with N.hash = N.node_hash unhashed ~child_hashes:[] } in
  let c = assemble ~root:0 [ n ] in
  ignore (expect_ok c);
  match N.of_string (N.to_string c) with
  | Error e -> Alcotest.failf "round-trip: %s" e
  | Ok c' ->
    ignore (expect_ok c');
    Alcotest.(check bool) "probability exact" true
      (Q.equal prob c'.N.nodes.(0).N.prob);
    Alcotest.(check bool) "time exact" true
      (Q.equal time c'.N.nodes.(0).N.time)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cert"
    [ ( "emission",
        [ Alcotest.test_case "lr emits + verifies" `Quick test_emit_lr;
          Alcotest.test_case "election emits + verifies" `Quick
            test_emit_election;
          Alcotest.test_case "coin emits + verifies" `Quick test_emit_coin;
          Alcotest.test_case "consensus emits + verifies" `Quick
            test_emit_consensus;
          Alcotest.test_case "uncertified query yields a header" `Quick
            test_emit_uncertified;
          Alcotest.test_case "round-trip is byte-identical" `Quick
            test_roundtrip_bytes;
          Alcotest.test_case "emission is deterministic" `Quick
            test_emission_deterministic ] );
      ( "tamper",
        [ Alcotest.test_case "every single-byte flip detected" `Quick
            test_tamper_every_byte;
          Alcotest.test_case "value tampers name the owning node" `Quick
            test_tamper_named_node ] );
      ( "verifier rules",
        [ Alcotest.test_case "well-formed pair verifies" `Quick
            test_verify_good_pair;
          Alcotest.test_case "wrong time sum" `Quick test_verify_bad_sum;
          Alcotest.test_case "wrong probability product" `Quick
            test_verify_bad_product;
          Alcotest.test_case "dangling child index" `Quick
            test_verify_dangling_child;
          Alcotest.test_case "unreachable node" `Quick
            test_verify_unreachable_node;
          Alcotest.test_case "claim text mismatch" `Quick
            test_verify_claim_mismatch;
          Alcotest.test_case "digest mismatch" `Quick
            test_verify_digest_mismatch;
          Alcotest.test_case "trivial-claim side conditions" `Quick
            test_verify_trivial_rules;
          Alcotest.test_case "assumed inclusion counts as axiom" `Quick
            test_verify_assumed_inclusion_not_fully_verified;
          Alcotest.test_case "strict parsing" `Quick test_parse_strictness ] );
      ( "fingerprints",
        [ Alcotest.test_case "deterministic across builds and planes" `Quick
            test_fingerprint_deterministic;
          Alcotest.test_case "distinct across configurations" `Quick
            test_fingerprint_distinct ] );
      ( "composition",
        [ Alcotest.test_case "lr ring from checked arrows" `Quick
            test_compose_lr_ring;
          Alcotest.test_case "lr star from checked arrows" `Quick
            test_compose_lr_star;
          Alcotest.test_case "election from checked arrows" `Quick
            test_compose_election;
          Alcotest.test_case "coin from checked arrows" `Quick
            test_compose_coin;
          Alcotest.test_case "check_json checks arrows once" `Quick
            test_check_json_checks_arrows_once ] );
      ( "solved passes",
        [ Alcotest.test_case "warm surfaces solve nothing" `Quick
            test_warm_surfaces_solve_nothing;
          Alcotest.test_case "a cut pass stores nothing" `Quick
            test_cut_pass_stores_nothing ] );
      ( "bigint wire",
        [ Alcotest.test_case "rationals round-trip exactly" `Quick
            test_bigint_wire_roundtrip;
          Alcotest.test_case "certificate carries bigint weights" `Quick
            test_bigint_certificate_roundtrip ] ) ]
