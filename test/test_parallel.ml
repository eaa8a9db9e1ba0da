(* Tests for the domain pool and for the determinism contract of the
   parallel paths: a session pool must not move a byte of a served
   /check body (the exact engines are sequential and never read it),
   and Monte Carlo estimates are bit-identical with and without a
   pool. *)

module P = Parallel.Pool
module LR = Lehmann_rabin
module BO = Ben_or

(* Run [f] with a fresh pool of [domains], shutting it down afterwards
   even on failure. *)
let with_pool domains f =
  let pool = P.create ~domains in
  Fun.protect ~finally:(fun () -> P.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Pool unit tests *)

let test_parallel_for_covers () =
  List.iter
    (fun domains ->
       with_pool domains (fun pool ->
           let n = 1003 in
           let hits = Array.make n 0 in
           P.parallel_for pool ~n (fun i -> hits.(i) <- hits.(i) + 1);
           Alcotest.(check bool)
             (Printf.sprintf "each index once (%d domains)" domains)
             true
             (Array.for_all (( = ) 1) hits)))
    [ 1; 2; 4 ]

let test_parallel_for_empty () =
  with_pool 2 (fun pool ->
      let ran = ref false in
      P.parallel_for pool ~n:0 (fun _ -> ran := true);
      Alcotest.(check bool) "no work for n = 0" false !ran)

let test_map_reduce_is_sequential_fold () =
  (* List append is associative but not commutative: any reordering of
     chunk results would be visible. *)
  List.iter
    (fun domains ->
       with_pool domains (fun pool ->
           let n = 257 in
           let got =
             P.map_reduce pool ~n ~combine:( @ ) ~init:[] (fun i -> [ i ])
           in
           Alcotest.(check (list int))
             (Printf.sprintf "in order (%d domains)" domains)
             (List.init n Fun.id) got))
    [ 1; 3; 4 ]

let test_map_reduce_sum () =
  with_pool 4 (fun pool ->
      let n = 10_000 in
      let sum =
        P.map_reduce pool ~n ~combine:( + ) ~init:0 (fun i -> i)
      in
      Alcotest.(check int) "gauss" (n * (n - 1) / 2) sum)

let test_map_reduce_chunking () =
  with_pool 2 (fun pool ->
      List.iter
        (fun chunks ->
           let got =
             P.map_reduce pool ~chunks ~n:10 ~combine:( @ ) ~init:[]
               (fun i -> [ i ])
           in
           Alcotest.(check (list int))
             (Printf.sprintf "chunks = %d" chunks)
             (List.init 10 Fun.id) got)
        [ 1; 2; 7; 10; 64 ])

let test_exception_propagates () =
  with_pool 4 (fun pool ->
      Alcotest.check_raises "worker failure resurfaces"
        (Failure "boom 57")
        (fun () ->
           P.parallel_for pool ~n:100 (fun i ->
               if i = 57 then failwith "boom 57")))

let test_stop_cancels () =
  with_pool 2 (fun pool ->
      let cancelled =
        try
          P.parallel_for pool ~stop:(fun () -> Some "budget") ~n:1000
            (fun _ -> ());
          None
        with P.Cancelled reason -> Some reason
      in
      Alcotest.(check (option string)) "cancelled with reason"
        (Some "budget") cancelled)

let test_shutdown_idempotent () =
  let pool = P.create ~domains:3 in
  Alcotest.(check int) "domains" 3 (P.domains pool);
  P.shutdown pool;
  P.shutdown pool

(* ------------------------------------------------------------------ *)
(* Determinism under a session pool ([prtb check --domains N]).

   The exact, float and expected-time engines are sequential: their
   results must be bit-identical -- structurally equal, not merely
   numerically equal -- with and without a session pool installed, and
   so must every served /check body. *)

let pool_invariant ?(sizes = [ 1; 2; 4 ]) name f =
  let without = f () in
  List.iter
    (fun domains ->
       P.set_default (Some (P.create ~domains));
       let with_pool = Fun.protect ~finally:(fun () -> P.set_default None) f in
       Alcotest.(check bool)
         (Printf.sprintf "%s: %d-domain session pool" name domains)
         true (without = with_pool))
    sizes

let lr_inst = lazy (LR.Proof.build ~n:3 ())

let bo_inst =
  lazy (BO.Proof.build ~n:3 ~f:1 ~cap:1 ~initial:[| false; false; true |] ())

let lr_target () =
  let arena = (Lazy.force lr_inst).LR.Proof.arena in
  (arena, Mdp.Arena.indicator arena LR.Regions.c)

let test_lr_min_reach_bit_identical () =
  let arena, target = lr_target () in
  pool_invariant "LR min_reach" (fun () ->
      Mdp.Finite_horizon.min_reach arena ~target ~ticks:13)

let test_ben_or_min_reach_bit_identical () =
  let arena = (Lazy.force bo_inst).BO.Proof.arena in
  let target =
    Mdp.Arena.indicator arena
      (Core.Pred.make "decided" BO.Automaton.some_decided)
  in
  pool_invariant "Ben-Or min_reach" (fun () ->
      Mdp.Finite_horizon.min_reach arena ~target ~ticks:3)

let test_lr_max_reach_and_policy_pools () =
  let arena, target = lr_target () in
  pool_invariant "max_reach" (fun () ->
      Mdp.Finite_horizon.max_reach arena ~target ~ticks:5);
  pool_invariant "min_reach_with_policy" (fun () ->
      Mdp.Finite_horizon.min_reach_with_policy arena ~target ~ticks:5)

let test_float_engines_pool_invariant () =
  let arena, target = lr_target () in
  pool_invariant "max_expected_ticks" (fun () ->
      Mdp.Expected_time.max_expected_ticks arena ~target ())

(* Election n=5 is the body that once diverged: its float expected-time
   value iteration prints schedule-dependent low-order bits, so a
   pooled schedule changed the body. *)
let test_check_json_pool_invariant () =
  let q =
    { Server.Protocol.model = `Election; n = 5; g = 1; k = 1;
      topology = "ring"; bound = 4; cap = 2; max_states = None;
      sym = "off"; plane = "interval"; deadline_ms = None }
  in
  pool_invariant ~sizes:[ 2 ] "election n=5 /check body" (fun () ->
      Analysis.Json.to_string (Server.Service.check_json q))

(* ------------------------------------------------------------------ *)
(* Monte Carlo reproducibility *)

let mc_setup () =
  let inst = Lazy.force lr_inst in
  let pa = Mdp.Explore.automaton inst.LR.Proof.expl in
  { Sim.Monte_carlo.pa;
    scheduler = Sim.Scheduler.uniform pa;
    duration = LR.Automaton.duration;
    start = LR.State.all_trying ~n:3 ~g:1 ~k:1 }

let test_monte_carlo_pool_bit_identical () =
  let setup = mc_setup () in
  let target = Core.Pred.mem LR.Regions.c in
  let seq =
    Sim.Monte_carlo.estimate_reach setup ~target ~within:13 ~trials:400
      ~seed:42
  in
  List.iter
    (fun domains ->
       with_pool domains (fun pool ->
           let par =
             Sim.Monte_carlo.estimate_reach ~pool setup ~target ~within:13
               ~trials:400 ~seed:42
           in
           Alcotest.(check int)
             (Printf.sprintf "trials (%d domains)" domains)
             (Proba.Stat.Proportion.trials seq)
             (Proba.Stat.Proportion.trials par);
           Alcotest.(check int)
             (Printf.sprintf "successes (%d domains)" domains)
             (Proba.Stat.Proportion.successes seq)
             (Proba.Stat.Proportion.successes par)))
    [ 1; 4 ]

let test_monte_carlo_times_bit_identical () =
  let setup = mc_setup () in
  let target = Core.Pred.mem LR.Regions.c in
  let run pool =
    Sim.Monte_carlo.estimate_time ?pool setup ~target ~trials:300 ~seed:7 ()
  in
  let s_seq, missed_seq = run None in
  with_pool 4 (fun pool ->
      let s_par, missed_par = run (Some pool) in
      Alcotest.(check int) "missed" missed_seq missed_par;
      Alcotest.(check int) "count" (Proba.Stat.Summary.count s_seq)
        (Proba.Stat.Summary.count s_par);
      (* Welford replay in trial order: identical floats. *)
      Alcotest.(check bool) "mean bit-identical" true
        (Proba.Stat.Summary.mean s_seq = Proba.Stat.Summary.mean s_par);
      Alcotest.(check bool) "variance bit-identical" true
        (Proba.Stat.Summary.variance s_seq
         = Proba.Stat.Summary.variance s_par))

let test_monte_carlo_budgeted_counts () =
  let setup = mc_setup () in
  let target = Core.Pred.mem LR.Regions.c in
  (* Unlimited budget: the pooled path must run exactly the batched
     trial count the sequential path runs, with the same successes. *)
  let seq =
    Sim.Monte_carlo.estimate_reach_budgeted setup ~target ~within:13
      ~initial_trials:32 ~seed:5 ()
  in
  with_pool 4 (fun pool ->
      let par =
        Sim.Monte_carlo.estimate_reach_budgeted ~pool setup ~target
          ~within:13 ~initial_trials:32 ~seed:5 ()
      in
      Alcotest.(check int) "trials" seq.Sim.Monte_carlo.trials_run
        par.Sim.Monte_carlo.trials_run;
      Alcotest.(check int) "successes"
        (Proba.Stat.Proportion.successes seq.Sim.Monte_carlo.prop)
        (Proba.Stat.Proportion.successes par.Sim.Monte_carlo.prop);
      Alcotest.(check int) "batches" seq.Sim.Monte_carlo.batches
        par.Sim.Monte_carlo.batches)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [ ("pool",
       [ Alcotest.test_case "parallel_for covers" `Quick
           test_parallel_for_covers;
         Alcotest.test_case "parallel_for empty" `Quick
           test_parallel_for_empty;
         Alcotest.test_case "map_reduce ordered" `Quick
           test_map_reduce_is_sequential_fold;
         Alcotest.test_case "map_reduce sum" `Quick test_map_reduce_sum;
         Alcotest.test_case "map_reduce chunking" `Quick
           test_map_reduce_chunking;
         Alcotest.test_case "exception propagates" `Quick
           test_exception_propagates;
         Alcotest.test_case "stop cancels" `Quick test_stop_cancels;
         Alcotest.test_case "shutdown idempotent" `Quick
           test_shutdown_idempotent ]);
      ("determinism",
       [ Alcotest.test_case "LR min_reach bit-identical" `Quick
           test_lr_min_reach_bit_identical;
         Alcotest.test_case "Ben-Or min_reach bit-identical" `Quick
           test_ben_or_min_reach_bit_identical;
         Alcotest.test_case "max_reach and policy" `Quick
           test_lr_max_reach_and_policy_pools;
         Alcotest.test_case "float engines pool-invariant" `Quick
           test_float_engines_pool_invariant;
         Alcotest.test_case "check_json pool-invariant (election n=5)"
           `Quick test_check_json_pool_invariant ]);
      ("monte-carlo",
       [ Alcotest.test_case "estimate_reach bit-identical" `Quick
           test_monte_carlo_pool_bit_identical;
         Alcotest.test_case "estimate_time bit-identical" `Quick
           test_monte_carlo_times_bit_identical;
         Alcotest.test_case "budgeted counts agree" `Quick
           test_monte_carlo_budgeted_counts ]) ]
