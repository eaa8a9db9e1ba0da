(* Benchmark harness.

   Running [dune exec bench/main.exe] does two things:

   1. regenerates every experiment table of the reproduction (E1-E9 of
      DESIGN.md, recorded in EXPERIMENTS.md) -- the "tables and
      figures" of the paper;
   2. times the computational kernel behind each experiment with
      Bechamel (one [Test.make] per experiment), plus substrate
      micro-benchmarks.

   Flags: --quick (smaller experiment instances), --tables-only,
   --bench-only, --json PATH (persist per-kernel ns/run + run metadata, the format of
   the committed BENCH_baseline.json), --check-against PATH (exit
   nonzero if any guarded kernel -- the e* experiment pipelines plus
   the subsystem kernels of [guarded_prefixes] -- regressed more than
   3x against a previously persisted baseline: a coarse guard, robust
   to CI noise).  The guard keys on kernel names, so renaming a kernel
   drops it from the guard.  --help prints the flags; an unknown
   argument exits 2. *)

open Bechamel
open Toolkit

module Q = Proba.Rational
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or

(* ----------------------------------------------------------------- *)
(* Kernels shared by the benchmarks (prepared once). *)

let lr3 = lazy (Models.lr ~n:3 ())
let ir4 = lazy (Models.election ~n:4 ())

let bench_tests () =
  let lr3 = Lazy.force lr3 in
  let ir4 = Lazy.force ir4 in
  let arena = lr3.LR.Proof.arena in
  let lr3_target = Mdp.Arena.indicator arena LR.Regions.c in
  let e1 =
    Test.make ~name:"e1:arrow A.11 (G -5-> P, n=3)"
      (Staged.stage (fun () ->
           let target = Mdp.Arena.indicator arena LR.Regions.p in
           Mdp.Finite_horizon.min_reach arena ~target ~ticks:5))
  in
  (* The arena memoizes its solved passes, zero-time order and weights,
     so a kernel that asks [lr3] again times memo hits.  e2 and e8
     compile a fresh arena from the cached fragment on every run, whose
     memos start empty: they time the passes (and the compile, which
     [arena:compile] times alone); the fragment keeps its region
     sets. *)
  let fresh_lr3 () =
    { lr3 with
      LR.Proof.arena =
        Mdp.Arena.compile ~is_tick:LR.Automaton.is_tick lr3.LR.Proof.expl }
  in
  let e2 =
    Test.make ~name:"e2:check+compose T -13->_1/8 C (n=3)"
      (Staged.stage (fun () -> LR.Proof.composed (fresh_lr3 ())))
  in
  let e3 =
    Test.make ~name:"e3:max expected time (VI, n=3)"
      (Staged.stage (fun () ->
           Mdp.Expected_time.max_expected_ticks arena ~target:lr3_target ()))
  in
  let e4 =
    Test.make ~name:"e4:event schema evaluation (Example 4.1)"
      (Staged.stage (fun () ->
           let tree =
             Core.Exec_automaton.unfold Models.Race.pa
               Models.Race.dependency_adversary Models.Race.start
               ~max_depth:4
           in
           let conj =
             Core.Event.conj
               (Core.Event.first Models.Race.Flip_p
                  Models.Race.p_heads)
               (Core.Event.first Models.Race.Flip_q
                  Models.Race.q_tails)
           in
           Core.Exec_automaton.prob_exact conj tree))
  in
  let e5 =
    Test.make ~name:"e5:Lemma 6.1 sweep (n=3, 8092 states)"
      (Staged.stage (fun () -> LR.Invariant.check lr3.LR.Proof.expl))
  in
  let e6 =
    Test.make ~name:"e6:qualitative liveness (n=3)"
      (Staged.stage (fun () ->
           Mdp.Qualitative.always_reaches arena ~target:lr3_target))
  in
  let e7 =
    Test.make ~name:"e7:explore LR n=3"
      (Staged.stage (fun () -> LR.Proof.build ~n:3 ()))
  in
  let e8 =
    Test.make ~name:"e8:direct bound (13 units, n=3)"
      (Staged.stage (fun () -> LR.Proof.direct_bound (fresh_lr3 ())))
  in
  let e9 =
    Test.make ~name:"e9:election ladder (n=4)"
      (Staged.stage (fun () -> IR.Proof.arrows ir4))
  in
  let e10 =
    let star = Models.lr_topo ~topo:(LR.Topology.star 3) () in
    Test.make ~name:"e10:star topology arrows"
      (Staged.stage (fun () -> LR.Proof.arrows_topo star))
  in
  let e11 =
    let coin = Models.coin ~n:2 ~bound:4 () in
    Test.make ~name:"e11:shared coin pipeline (n=2, B=4)"
      (Staged.stage (fun () ->
           (SC.Proof.arrows coin, SC.Proof.expected_exact coin)))
  in
  let e12 =
    let consensus =
      Models.consensus ~n:3 ~f:1 ~cap:2 ~initial:[| false; false; true |] ()
    in
    Test.make ~name:"e12:Ben-Or safety + 2-round bound (n=3)"
      (Staged.stage (fun () ->
           ( BO.Proof.agreement_violation consensus,
             BO.Proof.decision_curve consensus ~rounds:[ 2 ] )))
  in
  let arena_compile =
    Test.make ~name:"arena:compile LR n=3"
      (Staged.stage (fun () ->
           Mdp.Arena.compile ~is_tick:LR.Automaton.is_tick
             lr3.LR.Proof.expl))
  in
  let arena_sweep =
    Test.make ~name:"arena:sweep max_reach exact plane (13 ticks, n=3)"
      (Staged.stage (fun () ->
           Mdp.Finite_horizon.max_reach arena ~target:lr3_target ~ticks:13))
  in
  (* Symmetry reduction: the canonicalizer is the per-successor cost
     --sym adds to exploration.  For LR it is the spec's in-place one,
     which compares images without building them: on a 2-core x86-64
     host this state costs 90 ns and 11 words per call, against 317 ns
     and 105 words through the generic orbit closure (a plain loop of
     2 M calls, best of 7, median of three rounds).  The lr4
     kernel times [Analysis.Symmetry.explored] on the 162964-state
     instance: the exploration that interns its 40846 orbit
     representatives through the canonicalizer, plus the certification
     of every orbit member, which is most of the time.  (The arena
     compile that [LR.Proof.build] adds on top is the [arena:compile]
     kernel's business.)  The name is kept because the regression
     guard keys on it. *)
  let sym_canon =
    let canon =
      Analysis.Symmetry.canonicalizer ~equal:LR.State.equal
        (LR.Symmetry.ring ~n:3 ())
    in
    let s = Mdp.Arena.state arena 4000 in
    Test.make ~name:"sym:canon (ring orbit minimum, n=3)"
      (Staged.stage (fun () -> canon s))
  in
  let explore_lr4_reduced =
    let pa = LR.Automaton.make { LR.Automaton.n = 4; g = 1; k = 1 } in
    let spec = LR.Symmetry.ring ~n:4 () in
    Test.make ~name:"explore:lr4-reduced (certified orbit quotient)"
      (Staged.stage (fun () ->
           Analysis.Symmetry.explored ~model:"lr" ~mode:Analysis.Symmetry.On
             spec pa))
  in
  let sim =
    let params = { LR.Automaton.n = 8; g = 1; k = 1 } in
    let pa = LR.Automaton.make params in
    let start = LR.State.all_trying ~n:8 ~g:1 ~k:1 in
    let sched = LR.Schedulers.uniform pa in
    let rng = Proba.Rng.create ~seed:9 in
    Test.make ~name:"sim:one LR trajectory to C (n=8)"
      (Staged.stage (fun () ->
           Sim.Engine.run pa sched ~rng:(Proba.Rng.split rng)
             ~stop:(Core.Pred.mem LR.Regions.c)
             ~duration:LR.Automaton.duration start))
  in
  (* The reach engine picks its tier from the arena's weights: LR's
     fair coins are dyadic, so the row named for pure rationals (kept
     for the regression guard's name) now times the fixed-point tier.
     No shipped model has other weights, so the rational tier is timed
     on a stand-in built here: a 2 000-state ring whose one tick step
     moves up with probability 1/3 and down with 2/3. *)
  let rational_engine =
    Test.make ~name:"engine:A.11 with pure rationals (n=3)"
      (Staged.stage (fun () ->
           let target = Mdp.Arena.indicator arena LR.Regions.p in
           Mdp.Finite_horizon.min_reach arena ~target ~ticks:5))
  in
  let rational_tier =
    let m = 2000 in
    let thirds i =
      Proba.Dist.make
        [ ((i + 1) mod m, Q.of_ints 1 3); ((i + m - 1) mod m, Q.of_ints 2 3) ]
    in
    let pa =
      Core.Pa.make ~start:[ 0 ]
        ~enabled:(fun i -> [ { Core.Pa.action = (); dist = thirds i } ])
        ()
    in
    let thirds_arena = Mdp.Arena.of_pa ~is_tick:(fun () -> true) pa in
    let target = Array.init m (fun i -> i = m / 2) in
    Test.make ~name:"engine:rational tier (1/3 weights, 2000 states, 5 ticks)"
      (Staged.stage (fun () ->
           Mdp.Finite_horizon.min_reach thirds_arena ~target ~ticks:5))
  in
  let substrate =
    let a = Proba.Bigint.of_string "123456789123456789123456789" in
    let b = Proba.Bigint.of_string "987654321987654321" in
    let q1 = Q.of_ints 355 113 in
    let q2 = Q.of_ints 22 7 in
    [ Test.make ~name:"substrate:bigint mul (96x60 bits)"
        (Staged.stage (fun () -> Proba.Bigint.mul a b));
      Test.make ~name:"substrate:bigint divmod"
        (Staged.stage (fun () -> Proba.Bigint.divmod a b));
      Test.make ~name:"substrate:rational add"
        (Staged.stage (fun () -> Q.add q1 q2));
      Test.make ~name:"substrate:rng bits64"
        (let rng = Proba.Rng.create ~seed:1 in
         Staged.stage (fun () -> Proba.Rng.bits64 rng));
      Test.make ~name:"substrate:dist bind (coin, 4 outcomes)"
        (Staged.stage (fun () ->
             Proba.Dist.bind (Proba.Dist.coin 0 1) (fun x ->
                 Proba.Dist.coin x (x + 2)))) ]
  in
  (* The certificate pipeline, with the claim proved once outside the
     measured region: [cert:emit] times the total serialization
     (Claim.fold + Merkle hashing + JSON rendering), [cert:verify] the
     strict parse + the independent rule re-check -- the whole
     [verify-cert] hot path, which by design explores nothing. *)
  let cert_tests =
    let claim =
      match LR.Proof.composed lr3 with
      | Ok c -> c
      | Error e -> failwith ("cert bench: " ^ e)
    in
    let config =
      { Cert.Node.model = "lr"; n = 3; plane = "interval"; sym = "off";
        faults = "none"; budget = "states:2000000";
        params = [ ("g", "1"); ("k", "1"); ("topology", "ring") ] }
    in
    let fingerprint = Mdp.Arena.fingerprint arena in
    let emit () =
      Analysis.Json.to_string
        (Cert.Node.to_json (Cert.Emit.emit ~config ~fingerprint claim))
    in
    let body = emit () in
    [ Test.make ~name:"cert:emit (lr n=3 claim DAG)"
        (Staged.stage emit);
      Test.make ~name:"cert:verify (lr n=3, parse + re-check)"
        (Staged.stage (fun () ->
             match Cert.Node.of_string body with
             | Error e -> failwith ("cert bench: " ^ e)
             | Ok cert -> (
                 match Cert.Verify.run cert with
                 | Ok s -> s.Cert.Verify.nodes
                 | Error e ->
                   failwith ("cert bench: " ^ Cert.Verify.error_to_string e))))
    ]
  in
  (* The verification service, measured through a real socket: one
     full client cycle (connect + request + close) per run against an
     in-process daemon.  The /check kernel is pre-warmed so it times a
     result-cache hit (HTTP + dispatch + cache lookup), not
     re-verification.  Every kernel opens its own connection and
     closes it on completion: a shared keep-alive connection would
     park a worker domain between kernels until its read timeout, so
     whichever kernel ran second used to see timeout-sized latencies
     on a small pool. *)
  let serve_tests =
    let d =
      Server.Daemon.start
        { Server.Daemon.default_config with
          Server.Daemon.port = 0; domains = 2; cache_mb = 32;
          read_timeout = 1.0 }
    in
    at_exit (fun () ->
        Server.Daemon.stop d;
        Server.Daemon.wait d);
    let url =
      { Server.Http.host = "127.0.0.1";
        port = Server.Daemon.port d; target = "/" }
    in
    let roundtrip ?meth ?body target =
      let conn = Server.Http.Conn.create url in
      Fun.protect
        ~finally:(fun () -> Server.Http.Conn.close conn)
        (fun () ->
           match Server.Http.Conn.request conn ?meth ?body target with
           | Ok r -> r.Server.Http.status
           | Error e -> failwith ("serve bench: " ^ e))
    in
    (* Warm outside the measured region: daemon start + the one real
       verification happen here, so the kernels time steady-state
       client cycles only. *)
    ignore (roundtrip "/check?model=lr&n=3");
    let batch_body =
      {|{"queries":[{"endpoint":"/check","model":"lr","n":"3"},{"endpoint":"/check","model":"lr","n":"3"}]}|}
    in
    [ Test.make ~name:"serve:throughput (/health client cycle)"
        (Staged.stage (fun () -> roundtrip "/health"));
      Test.make ~name:"serve:cache-hit (/check lr n=3, warm)"
        (Staged.stage (fun () -> roundtrip "/check?model=lr&n=3"));
      (* The /batch envelope on warm elements: parse the envelope,
         dedup the two equal keys, answer both from the result cache
         and raw-splice the bodies -- the per-element overhead the
         batch surface adds on top of a cache hit. *)
      Test.make ~name:"serve:batch (POST /batch, 2x lr n=3, warm)"
        (Staged.stage (fun () ->
             roundtrip ~meth:"POST" ~body:batch_body "/batch"));
      (* The degraded path end to end: an uncached query (the line
         topology is never warmed, and SRV122 bodies are never cached)
         whose 1 ms allowance expires mid-exploration, so every round
         trip times arm-deadline + cut engines + build the SRV122
         body. *)
      Test.make ~name:"serve:deadline (/check lr line, 1ms, degraded)"
        (Staged.stage (fun () ->
             roundtrip "/check?model=lr&n=3&topology=line&deadline_ms=1")) ]
  in
  (* The snapshot cold path [prtb serve --snapshot-dir] pays once per
     file at startup: strict container decode (digest check included)
     + fragment rebuild + arena assembly + fingerprint comparison.
     Encoded once outside the measured region. *)
  let snapshot_tests =
    let config =
      { Snapshot.Store.model = "lr"; n = 3; g = 1; k = 1;
        topology = "ring"; bound = 0; cap = 0; f = 0; initial = [||];
        sym = Analysis.Symmetry.Off }
    in
    let bytes = Snapshot.Store.encode config (Snapshot.Store.Lr lr3) in
    [ Test.make ~name:"serve:snapshot-cold (decode + assemble lr n=3)"
        (Staged.stage (fun () ->
             match Snapshot.Store.of_string bytes with
             | Ok _ -> ()
             | Error e -> failwith ("snapshot bench: " ^ e))) ]
  in
  (* One mixed chaos round: garbage and a valid request from two
     concurrent domains, fresh connections each.  A dedicated daemon --
     the serve kernels above deliberately park the shared daemon's
     single worker with their keep-alive connection. *)
  let chaos_tests =
    let d =
      Server.Daemon.start
        { Server.Daemon.default_config with
          Server.Daemon.port = 0; domains = 3; cache_mb = 8;
          read_timeout = 1.0 }
    in
    at_exit (fun () ->
        Server.Daemon.stop d;
        Server.Daemon.wait d);
    let url =
      { Server.Http.host = "127.0.0.1";
        port = Server.Daemon.port d; target = "/" }
    in
    [ Test.make ~name:"chaos:mixed (1 round, 2 clients)"
        (Staged.stage (fun () ->
             let o =
               Server.Chaos.run_scenario ~rounds:1 ~clients:2 ~seed:42 url
                 Server.Chaos.Mixed
             in
             if o.Server.Chaos.failures <> [] then
               failwith (List.hd o.Server.Chaos.failures);
             o.Server.Chaos.answered)) ]
  in
  Test.make_grouped ~name:"prtb"
    ([ e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12;
       rational_engine; rational_tier; arena_compile; arena_sweep;
       sym_canon; explore_lr4_reduced; sim ]
     @ substrate @ cert_tests @ serve_tests @ snapshot_tests
     @ chaos_tests)

(* ----------------------------------------------------------------- *)

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances (bench_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
         let estimate =
           match Analyze.OLS.estimates ols with
           | Some (t :: _) -> t
           | Some [] | None -> nan
         in
         (name, estimate) :: acc)
      results []
  in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "\n=== kernel timings (monotonic clock, per run) ===\n\n";
  List.iter
    (fun (name, estimate) ->
       let pretty =
         if estimate >= 1e9 then Printf.sprintf "%8.3f s " (estimate /. 1e9)
         else if estimate >= 1e6 then
           Printf.sprintf "%8.3f ms" (estimate /. 1e6)
         else if estimate >= 1e3 then
           Printf.sprintf "%8.3f us" (estimate /. 1e3)
         else Printf.sprintf "%8.1f ns" estimate
       in
       Printf.printf "  %-45s %s\n%!" name pretty)
    rows;
  rows

(* ----------------------------------------------------------------- *)
(* Persisted baseline (--json) and regression guard (--check-against). *)

module J = Analysis.Json

let emit_json ~path ~quick rows =
  let doc =
    J.Obj
      [ ("schema", J.Str "prtb-bench/1");
        ("ocaml", J.Str Sys.ocaml_version);
        ("word_size", J.Int Sys.word_size);
        ("hostname", J.Str (Unix.gethostname ()));
        ("unix_time", J.Num (Unix.gettimeofday ()));
        ("clock", J.Str "monotonic");
        ("quota_s", J.Num 0.5);
        ("quick", J.Bool quick);
        ( "results",
          J.Arr
            (List.map
               (fun (name, ns) ->
                  J.Obj [ ("name", J.Str name); ("ns_per_run", J.Num ns) ])
               rows) ) ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\nwrote %s (%d kernels)\n%!" path (List.length rows)

let baseline_rows path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  match J.of_string contents with
  | Error msg -> failwith (Printf.sprintf "%s: JSON parse error: %s" path msg)
  | Ok doc ->
    (match J.member "results" doc with
     | Some (J.Arr items) ->
       List.filter_map
         (fun item ->
            match J.member "name" item, J.member "ns_per_run" item with
            | Some (J.Str name), Some v ->
              Option.map (fun ns -> (name, ns)) (J.to_float_opt v)
            | _, _ -> None)
         items
     | Some _ | None ->
       failwith (Printf.sprintf "%s: missing \"results\" array" path))

(* The tier-1-covered kernels: the e1-e12 experiment pipelines plus
   the subsystem kernels whose fast paths the suite also exercises
   (symmetry canonicalization, the certified lr4 orbit quotient, the
   served degraded path, the snapshot cold load, the chaos round and
   the certificate emit/verify pipeline).
   The substrate and sim micro-benchmarks are too jittery for even a
   coarse CI gate. *)
let guarded_prefixes =
  [ "prtb/sym:"; "prtb/explore:"; "prtb/serve:deadline";
    "prtb/serve:snapshot-cold"; "prtb/chaos:"; "prtb/cert:" ]

let guarded name =
  let has_prefix p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  (has_prefix "prtb/e"
   && (match name.[String.length "prtb/e"] with
       | '0' .. '9' -> true
       | _ -> false))
  || List.exists has_prefix guarded_prefixes

let check_against ~path rows =
  let baseline = baseline_rows path in
  let failures = ref [] in
  List.iter
    (fun (name, ns) ->
       if guarded name && Float.is_finite ns then
         match List.assoc_opt name baseline with
         | Some base when Float.is_finite base && base > 0.0 ->
           let ratio = ns /. base in
           if ratio > 3.0 then failures := (name, base, ns, ratio) :: !failures
         | Some _ | None -> ())
    rows;
  match !failures with
  | [] ->
    Printf.printf "regression guard: all guarded kernels within 3x of %s\n%!"
      path
  | fs ->
    Printf.printf "regression guard FAILED against %s:\n" path;
    List.iter
      (fun (name, base, ns, ratio) ->
         Printf.printf "  %-45s %.0f ns -> %.0f ns (%.1fx)\n" name base ns
           ratio)
      (List.rev fs);
    exit 1

let usage =
  String.concat "\n"
    [ "usage: main.exe [--quick] [--tables-only | --bench-only] [--json PATH]";
      "                [--check-against PATH]";
      "Regenerates the experiment tables, then times the kernels.";
      "  --quick               smaller experiment instances";
      "  --tables-only         the tables only, no timing";
      "  --bench-only          the timings only, no tables";
      "  --json PATH           write per-kernel ns/run and metadata to PATH";
      "  --check-against PATH  exit 1 if a guarded kernel is over 3x slower";
      "                        than in the baseline at PATH";
      "  --help                print this and exit";
      "" ]

type options = {
  quick : bool;
  tables_only : bool;
  bench_only : bool;
  json_path : string option;
  check_path : string option;
}

(* Every argument is a known flag or a known flag's value: [--help]
   prints the usage and exits 0, anything else exits 2 naming it. *)
let parse argv =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
         prerr_string ("main.exe: " ^ msg ^ "\n" ^ usage);
         exit 2)
      fmt
  in
  let rec go o = function
    | [] -> o
    | ("--help" | "-help" | "-h") :: _ ->
      print_string usage;
      exit 0
    | "--quick" :: rest -> go { o with quick = true } rest
    | "--tables-only" :: rest -> go { o with tables_only = true } rest
    | "--bench-only" :: rest -> go { o with bench_only = true } rest
    | "--json" :: path :: rest -> go { o with json_path = Some path } rest
    | "--check-against" :: path :: rest ->
      go { o with check_path = Some path } rest
    | [ ("--json" | "--check-against") as flag ] ->
      fail "%s needs a PATH" flag
    | arg :: _ -> fail "unknown argument %S" arg
  in
  go
    { quick = false; tables_only = false; bench_only = false;
      json_path = None; check_path = None }
    argv

let () =
  let { quick; tables_only; bench_only; json_path; check_path } =
    parse (List.tl (Array.to_list Sys.argv))
  in
  if not bench_only then begin
    let config =
      if quick then Experiments.Harness.quick else Experiments.Harness.default
    in
    Experiments.Harness.run_all (Experiments.Harness.make_ctx config)
  end;
  if not tables_only then begin
    let rows = run_benchmarks () in
    (match json_path with
     | Some path -> emit_json ~path ~quick rows
     | None -> ());
    match check_path with
    | Some path -> check_against ~path rows
    | None -> ()
  end
