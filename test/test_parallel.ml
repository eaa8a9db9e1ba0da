(* Tests for the fork-join regions, the server's domain pool, and the
   determinism contract of the parallel paths: the schedule of a fork
   region may not move a byte of a served /check body, and Monte Carlo
   estimates are bit-identical on any number of domains. *)

module P = Parallel.Pool
module F = Parallel.Fork
module LR = Lehmann_rabin
module BO = Ben_or
module MC = Sim.Monte_carlo

(* Run [f] with a fresh pool of [domains], shutting it down afterwards
   even on failure. *)
let with_pool domains f =
  let pool = P.create ~domains in
  Fun.protect ~finally:(fun () -> P.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* The Monte Carlo chunk grid over [Fork].

   The reference is a plain sequential loop: one generator split off
   the root per trial, trials run and recorded in order.  The
   estimators must match it for any helper count and for trial counts
   below, at and above the 64-chunk grid. *)

let lr_inst = lazy (LR.Proof.build ~n:3 ())

let mc_setup () =
  let inst = Lazy.force lr_inst in
  let pa = Mdp.Explore.automaton inst.LR.Proof.expl in
  { MC.pa;
    scheduler = Sim.Scheduler.uniform pa;
    duration = LR.Automaton.duration;
    start = LR.State.all_trying ~n:3 ~g:1 ~k:1 }

let lr_critical = Core.Pred.mem LR.Regions.c

let sequential_outcomes setup ~trials ~seed ?max_time () =
  let root = Proba.Rng.create ~seed in
  List.init trials (fun _ ->
      let rng = Proba.Rng.split root in
      Sim.Engine.run setup.MC.pa setup.MC.scheduler ~rng ~stop:lr_critical
        ~duration:setup.MC.duration ?max_time setup.MC.start)

let reference_successes setup ~trials ~seed ~within =
  List.length
    (List.filter
       (fun o -> o.Sim.Engine.why = Sim.Engine.Reached)
       (sequential_outcomes setup ~trials ~seed ~max_time:within ()))

let reference_summary setup ~trials ~seed =
  let summary = Proba.Stat.Summary.create () in
  List.iter
    (fun o ->
       if o.Sim.Engine.why = Sim.Engine.Reached then
         Proba.Stat.Summary.add summary (float_of_int o.Sim.Engine.elapsed))
    (sequential_outcomes setup ~trials ~seed ());
  summary

let check_summary name expected got =
  Alcotest.(check int) (name ^ ": count") (Proba.Stat.Summary.count expected)
    (Proba.Stat.Summary.count got);
  (* Welford statistics replayed in another order differ in low bits. *)
  Alcotest.(check bool) (name ^ ": mean bit-identical") true
    (Proba.Stat.Summary.mean expected = Proba.Stat.Summary.mean got);
  Alcotest.(check bool) (name ^ ": variance bit-identical") true
    (Proba.Stat.Summary.variance expected = Proba.Stat.Summary.variance got)

let test_chunks_cover_trials () =
  let setup = mc_setup () in
  List.iter
    (fun helpers ->
       let trials = 1003 in
       let summary, missed =
         MC.estimate_time ~helpers setup ~target:lr_critical ~trials ~seed:3
           ()
       in
       Alcotest.(check int)
         (Printf.sprintf "every trial once (%d helpers)" helpers)
         trials
         (Proba.Stat.Summary.count summary + missed))
    [ 0; 1; 3 ]

let test_no_trials () =
  let ran = ref false in
  let setup =
    { (mc_setup ()) with
      MC.scheduler = (fun _ _ -> ran := true; None) }
  in
  let prop =
    MC.estimate_reach ~helpers:2 setup ~target:lr_critical ~within:13
      ~trials:0 ~seed:1
  in
  let summary, missed =
    MC.estimate_time ~helpers:2 setup ~target:lr_critical ~trials:0 ~seed:1 ()
  in
  Alcotest.(check int) "no reach trials" 0 (Proba.Stat.Proportion.trials prop);
  Alcotest.(check int) "no timed trials" 0
    (Proba.Stat.Summary.count summary + missed);
  Alcotest.(check bool) "no work for 0 trials" false !ran

let test_times_in_trial_order () =
  let setup = mc_setup () in
  let trials = 257 in
  let expected = reference_summary setup ~trials ~seed:11 in
  List.iter
    (fun helpers ->
       let got, _ =
         MC.estimate_time ~helpers setup ~target:lr_critical ~trials ~seed:11
           ()
       in
       check_summary (Printf.sprintf "in order (%d helpers)" helpers)
         expected got)
    [ 0; 2; 3 ]

let test_successes_sum () =
  let setup = mc_setup () in
  let trials = 2000 in
  let got =
    MC.estimate_reach ~helpers:3 setup ~target:lr_critical ~within:13 ~trials
      ~seed:17
  in
  Alcotest.(check int) "trials" trials (Proba.Stat.Proportion.trials got);
  Alcotest.(check int) "successes"
    (reference_successes setup ~trials ~seed:17 ~within:13)
    (Proba.Stat.Proportion.successes got)

let test_chunk_grid_edges () =
  let setup = mc_setup () in
  List.iter
    (fun trials ->
       let got =
         MC.estimate_reach ~helpers:2 setup ~target:lr_critical ~within:13
           ~trials ~seed:23
       in
       Alcotest.(check int)
         (Printf.sprintf "successes, %d trials" trials)
         (reference_successes setup ~trials ~seed:23 ~within:13)
         (Proba.Stat.Proportion.successes got))
    [ 1; 2; 7; 63; 64; 65; 130 ]

let test_exception_propagates () =
  let setup =
    { (mc_setup ()) with MC.scheduler = (fun _ _ -> failwith "boom 57") }
  in
  Alcotest.check_raises "trial failure resurfaces" (Failure "boom 57")
    (fun () ->
       ignore
         (MC.estimate_reach ~helpers:3 setup ~target:lr_critical ~within:13
            ~trials:100 ~seed:1))

(* An expired deadline cancels a fixed-trial batch on every domain; an
   expired budget cuts a budgeted one after its exempt first trial. *)
let test_stop_cancels () =
  let setup = mc_setup () in
  let expired () = Core.Budget.start (Core.Budget.v ~wall:0.0 ()) in
  let cancelled =
    try
      Core.Budget.with_deadline (expired ()) (fun () ->
          ignore
            (MC.estimate_reach ~helpers:2 setup ~target:lr_critical
               ~within:13 ~trials:1000 ~seed:1));
      false
    with Core.Budget.Deadline_exceeded _ -> true
  in
  Alcotest.(check bool) "deadline cancels the batch" true cancelled;
  let b =
    MC.estimate_reach_budgeted ~helpers:3 setup ~target:lr_critical
      ~within:13 ~clock:(expired ()) ~initial_trials:200 ~seed:1 ()
  in
  Alcotest.(check int) "one trial under an expired budget" 1 b.MC.trials_run;
  Alcotest.(check int) "no completed batch" 0 b.MC.batches;
  Alcotest.(check bool) "stopped with a reason" true (b.MC.stopped <> None)

let test_shutdown_idempotent () =
  let pool = P.create ~domains:3 in
  Alcotest.(check int) "domains" 3 (P.domains pool);
  P.shutdown pool;
  P.shutdown pool

(* ------------------------------------------------------------------ *)
(* Fork regions *)

let test_fork_runs_each_once () =
  List.iter
    (fun helpers ->
       let n = 37 in
       let hits = Array.init n (fun _ -> Atomic.make 0) in
       let got =
         F.run ~helpers
           (Array.init n (fun i () ->
                Atomic.incr hits.(i);
                i * i))
       in
       Alcotest.(check (array int))
         (Printf.sprintf "results by index (%d helpers)" helpers)
         (Array.init n (fun i -> i * i))
         got;
       Alcotest.(check bool)
         (Printf.sprintf "each task once (%d helpers)" helpers)
         true
         (Array.for_all (fun a -> Atomic.get a = 1) hits))
    [ 0; 1; 3; 8 ];
  Alcotest.(check (array int)) "no tasks" [||] (F.run ~helpers:3 [||])

(* Slow tasks outlive the fast failures: the region must still wait for
   every started task before raising, and raise task 1's failure, the
   lowest-index one, whichever domain failed first. *)
let test_fork_lowest_exception_after_join () =
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  let task i () =
    Atomic.incr started;
    Fun.protect
      ~finally:(fun () -> Atomic.incr finished)
      (fun () ->
         if i = 0 || i = 2 then Unix.sleepf 0.05;
         if i mod 2 = 1 || i = 2 then failwith (Printf.sprintf "task %d" i))
  in
  Alcotest.check_raises "lowest-index failure wins" (Failure "task 1")
    (fun () -> ignore (F.run ~helpers:3 (Array.init 6 task)));
  Alcotest.(check int) "every started task finished before the raise"
    (Atomic.get started) (Atomic.get finished)

let test_fork_inline_on_pool_worker () =
  let seen = ref [||] and job_domain = ref None in
  with_pool 2 (fun pool ->
      Alcotest.(check bool) "job accepted" true
        (P.submit pool (fun () ->
             job_domain := Some (Domain.self ());
             seen := F.run ~helpers:3 (Array.init 8 (fun _ () -> Domain.self ())))));
  (* [shutdown] drained the job and joined its worker. *)
  Alcotest.(check int) "every task ran" 8 (Array.length !seen);
  Alcotest.(check bool) "all on the worker's own domain" true
    (Array.for_all (fun d -> Some d = !job_domain) !seen)

(* Both tasks wait until both have started, so they run on two domains;
   each then polls the caller's (already expired) deadline. *)
let test_fork_helper_polls_deadline () =
  let started = Atomic.make 0 in
  let domains = Array.make 2 None and fired = Array.init 2 (fun _ -> Atomic.make false) in
  let task i () =
    domains.(i) <- Some (Domain.self ());
    Atomic.incr started;
    let give_up = Unix.gettimeofday () +. 5.0 in
    while Atomic.get started < 2 && Unix.gettimeofday () < give_up do
      Domain.cpu_relax ()
    done;
    try Core.Budget.poll ()
    with Core.Budget.Deadline_exceeded _ as e ->
      Atomic.set fired.(i) true;
      raise e
  in
  let expired = Core.Budget.start (Core.Budget.v ~wall:0.0 ()) in
  let raised =
    try
      Core.Budget.with_deadline expired (fun () ->
          ignore (F.run ~helpers:1 (Array.init 2 task)));
      false
    with Core.Budget.Deadline_exceeded _ -> true
  in
  Alcotest.(check bool) "Deadline_exceeded reaches the caller" true raised;
  Alcotest.(check bool) "the tasks ran on two domains" true
    (domains.(0) <> domains.(1));
  Alcotest.(check bool) "the helper's poll fired too" true
    (Array.for_all Atomic.get fired)

(* Streaming regions.  Each test forces helpers, so consumers run
   concurrently with the producer even on a one-core host. *)

(* A producer that publishes [n] items one at a time, yielding between
   them so that consumers catch up and wait. *)
let producing n ~publish =
  for k = 1 to n do
    if k mod 7 = 0 then Unix.sleepf 0.001;
    publish k
  done;
  n

let test_stream_chunk_order () =
  List.iter
    (fun helpers ->
       let n = 103 and chunk = 8 in
       let hits = Array.init n (fun _ -> Atomic.make 0) in
       let made, got =
         F.stream ~helpers ~chunk (producing n) (fun lo hi ->
             for i = lo to hi - 1 do
               Atomic.incr hits.(i)
             done;
             (lo, hi))
       in
       let name = Printf.sprintf " (%d helpers)" helpers in
       Alcotest.(check int) ("producer's result" ^ name) n made;
       Alcotest.(check (array (pair int int)))
         ("chunks in index order" ^ name)
         (Array.init 13 (fun c -> (c * chunk, Int.min n ((c + 1) * chunk))))
         got;
       Alcotest.(check bool) ("each item once" ^ name) true
         (Array.for_all (fun a -> Atomic.get a = 1) hits))
    [ 0; 1; 3 ];
  let made, got =
    F.stream ~helpers:2 ~chunk:4 (fun ~publish:_ -> ()) (fun _ _ -> ())
  in
  Alcotest.(check int) "nothing published, no chunks" 0 (Array.length got);
  Alcotest.(check unit) "producer ran" () made

(* Consumers mark themselves active while they run; after [stream]
   returns or raises, none may still be. *)
let counting active f lo hi =
  Atomic.incr active;
  Fun.protect ~finally:(fun () -> Atomic.decr active) (fun () -> f lo hi)

let test_stream_producer_wins () =
  let active = Atomic.make 0 in
  Alcotest.check_raises "the producer's exception wins" (Failure "producer")
    (fun () ->
       ignore
         (F.stream ~helpers:2 ~chunk:4
            (fun ~publish ->
               ignore (producing 40 ~publish);
               Unix.sleepf 0.02;
               failwith "producer")
            (counting active (fun lo _ ->
                 Unix.sleepf 0.002;
                 if lo >= 8 then failwith (Printf.sprintf "chunk at %d" lo)))));
  Alcotest.(check int) "no consumer still running" 0 (Atomic.get active);
  (* Chunk 0 is still being consumed when the producer fails. *)
  Alcotest.check_raises "the producer fails mid-consumption"
    (Failure "producer") (fun () ->
        ignore
          (F.stream ~helpers:2 ~chunk:4
             (fun ~publish ->
                ignore (producing 12 ~publish);
                failwith "producer")
             (counting active (fun lo _ ->
                  if lo = 0 then Unix.sleepf 0.05))));
  Alcotest.(check int) "no consumer still running after the producer failed"
    0 (Atomic.get active);
  Alcotest.check_raises "else the lowest failing chunk" (Failure "chunk at 8")
    (fun () ->
       ignore
         (F.stream ~helpers:3 ~chunk:4 (producing 40)
            (counting active (fun lo _ ->
                 Unix.sleepf (if lo = 8 then 0.02 else 0.001);
                 if lo = 8 || lo = 12 || lo = 28 then
                   failwith (Printf.sprintf "chunk at %d" lo)))));
  Alcotest.(check int) "no consumer still running after a failure" 0
    (Atomic.get active);
  let _, got =
    F.stream ~helpers:2 ~chunk:3 (producing 30)
      (counting active (fun lo hi ->
           Unix.sleepf 0.001;
           hi - lo))
  in
  Alcotest.(check int) "every item consumed" 30 (Array.fold_left ( + ) 0 got);
  Alcotest.(check int) "no consumer still running after return" 0
    (Atomic.get active)

(* The producer publishes nothing and does not poll; the helper waiting
   for chunk 0 is the only code that can notice the deadline. *)
let test_stream_deadline_while_waiting () =
  let consumed = Atomic.make false in
  let deadline = Core.Budget.start (Core.Budget.v ~wall:0.02 ()) in
  let raised =
    try
      Core.Budget.with_deadline deadline (fun () ->
          ignore
            (F.stream ~helpers:1 ~chunk:4
               (fun ~publish:_ -> Unix.sleepf 0.2)
               (fun _ _ -> Atomic.set consumed true)));
      false
    with Core.Budget.Deadline_exceeded _ -> true
  in
  Alcotest.(check bool) "Deadline_exceeded reaches the caller" true raised;
  Alcotest.(check bool) "no chunk was consumed" false (Atomic.get consumed)

let test_stream_inline_on_pool_worker () =
  let order = ref [] and domains = ref [] and job_domain = ref None in
  let produced = ref false in
  with_pool 2 (fun pool ->
      Alcotest.(check bool) "job accepted" true
        (P.submit pool (fun () ->
             job_domain := Some (Domain.self ());
             ignore
               (F.stream ~helpers:3 ~chunk:5
                  (fun ~publish ->
                     ignore (producing 23 ~publish);
                     produced := true)
                  (fun lo _ ->
                     if not !produced then failwith "consumed mid-production";
                     order := lo :: !order;
                     domains := Domain.self () :: !domains)))));
  Alcotest.(check (list int)) "chunks in index order, after production"
    [ 0; 5; 10; 15; 20 ] (List.rev !order);
  Alcotest.(check bool) "all on the worker's own domain" true
    (List.for_all (fun d -> Some d = !job_domain) !domains)

(* ------------------------------------------------------------------ *)
(* The same /check bodies on any schedule.

   [check_json] on the main domain forks its regions (certification
   ranges and proof passes); inside a pool job the same regions run
   inline.  A zero registry capacity keeps nothing cached, so each side
   explores, certifies and checks anew. *)

let query ?(sym = "off") ?(topology = "ring") ?(bound = 4) ?(cap = 50)
    ?deadline_ms model n =
  { Server.Protocol.model; n; g = 1; k = 1; topology; bound; cap;
    max_states = None; sym; plane = "interval"; deadline_ms }

let schedule_queries =
  List.concat_map
    (fun sym ->
       [ query ~sym `Lr 3; query ~sym ~topology:"star" `Lr 3 ])
    [ "on"; "off" ]
  @ [ query `Election 5; query ~bound:2 `Coin 2; query ~cap:2 `Consensus 3 ]

let test_check_json_forked_equals_inline () =
  Models.set_capacity (Some 0);
  Fun.protect
    ~finally:(fun () -> Models.set_capacity None)
    (fun () ->
       List.iter
         (fun q ->
            let body () = Analysis.Json.to_string (Server.Service.check_json q) in
            let forked = body () in
            let inline = ref "" in
            with_pool 2 (fun pool ->
                ignore (P.submit pool (fun () -> inline := body ())));
            Alcotest.(check string)
              (Printf.sprintf "%s n=%d %s sym=%s"
                 (Models.name q.Server.Protocol.model) q.Server.Protocol.n
                 q.Server.Protocol.topology q.Server.Protocol.sym)
              forked !inline)
         schedule_queries)

(* A deadline that fires inside the proof passes: the instance is
   resolved beforehand -- built, but with no pass solved, since a solved
   pass would answer from the arena's memo -- so every poll that can
   fire runs in the fork region.  The answer is the SRV122 body, and
   once [check_json] has returned no pass is still sweeping. *)
let test_deadline_in_fork_region () =
  let q = query ~deadline_ms:1 `Lr 3 in
  ignore
    (Models.resolve ~max_states:Server.Service.default_max_states
       ~sym:Analysis.Symmetry.Off (Server.Protocol.params q));
  let body = Server.Service.check_json q in
  let field name =
    match body with
    | Analysis.Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  Alcotest.(check bool) "deadline-exceeded verdict" true
    (field "verdict" = Some (Analysis.Json.Str "deadline-exceeded"));
  Alcotest.(check bool) "SRV122" true
    (field "code" = Some (Analysis.Json.Str "SRV122"));
  let layers = Mdp.Finite_horizon.layers_solved () in
  Unix.sleepf 0.1;
  Alcotest.(check int) "no engine still running" layers
    (Mdp.Finite_horizon.layers_solved ());
  Alcotest.(check string) "the degraded body is a function of the query"
    (Analysis.Json.to_string body)
    (Analysis.Json.to_string (Server.Service.check_json q))

(* ------------------------------------------------------------------ *)
(* Determinism across placements.

   The exact, float and expected-time engines run whole on one domain:
   their results must be bit-identical -- structurally equal, not
   merely numerically equal -- on the caller and on a forced fork
   helper, and so must every served /check body. *)

let helper_invariant name f =
  let on_caller = f () in
  Array.iteri
    (fun i r ->
       Alcotest.(check bool)
         (Printf.sprintf "%s: copy %d on two domains" name i)
         true (on_caller = r))
    (Test_support.Two_domains.run f)

let bo_inst =
  lazy (BO.Proof.build ~n:3 ~f:1 ~cap:1 ~initial:[| false; false; true |] ())

let lr_target () =
  let arena = (Lazy.force lr_inst).LR.Proof.arena in
  (arena, Mdp.Arena.indicator arena LR.Regions.c)

let test_lr_min_reach_bit_identical () =
  let arena, target = lr_target () in
  helper_invariant "LR min_reach" (fun () ->
      Mdp.Finite_horizon.min_reach arena ~target ~ticks:13)

let test_ben_or_min_reach_bit_identical () =
  let arena = (Lazy.force bo_inst).BO.Proof.arena in
  let target =
    Mdp.Arena.indicator arena
      (Core.Pred.make "decided" BO.Automaton.some_decided)
  in
  helper_invariant "Ben-Or min_reach" (fun () ->
      Mdp.Finite_horizon.min_reach arena ~target ~ticks:3)

let test_lr_max_reach_and_policy_pools () =
  let arena, target = lr_target () in
  helper_invariant "max_reach" (fun () ->
      Mdp.Finite_horizon.max_reach arena ~target ~ticks:5);
  helper_invariant "min_reach_with_policy" (fun () ->
      Mdp.Finite_horizon.min_reach_with_policy arena ~target ~ticks:5)

let test_float_engines_pool_invariant () =
  let arena, target = lr_target () in
  helper_invariant "max_expected_ticks" (fun () ->
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
  helper_invariant "election n=5 /check body" (fun () ->
      Analysis.Json.to_string (Server.Service.check_json q))

(* ------------------------------------------------------------------ *)
(* Monte Carlo reproducibility: three forced helpers against inline, for
   every lr scheduler and every other family's uniform one. *)

let simulations () =
  List.map
    (fun scheduler -> (`Lr, scheduler))
    [ "uniform"; "eager"; "delayer"; "starver"; "round-robin" ]
  @ [ (`Election, "uniform"); (`Coin, "uniform"); (`Consensus, "uniform") ]
  |> List.map (fun (model, scheduler) ->
      let name = Printf.sprintf "%s/%s" (Models.name model) scheduler in
      match
        Models.simulation ~scheduler (Models.sim_params model ~n:3)
      with
      | Ok sim -> (name, sim)
      | Error e -> Alcotest.failf "%s: %s" name e)

let test_monte_carlo_pool_bit_identical () =
  List.iter
    (fun (name, Models.Simulation (setup, m)) ->
       let run helpers =
         MC.estimate_reach ~helpers setup ~target:m.target
           ~within:m.horizon ~trials:300 ~seed:42
       in
       let inline = run 0 and forked = run 3 in
       Alcotest.(check int) (name ^ ": trials")
         (Proba.Stat.Proportion.trials inline)
         (Proba.Stat.Proportion.trials forked);
       Alcotest.(check int) (name ^ ": successes")
         (Proba.Stat.Proportion.successes inline)
         (Proba.Stat.Proportion.successes forked))
    (simulations ())

let test_monte_carlo_times_bit_identical () =
  List.iter
    (fun (name, Models.Simulation (setup, m)) ->
       let run helpers =
         MC.estimate_time ~helpers setup ~target:m.target ~trials:200
           ~seed:7 ()
       in
       let s_inline, missed_inline = run 0
       and s_forked, missed_forked = run 3 in
       Alcotest.(check int) (name ^ ": missed") missed_inline missed_forked;
       check_summary name s_inline s_forked)
    (simulations ())

let test_monte_carlo_budgeted_counts () =
  (* Unlimited budget: the forked run must run exactly the batched trial
     count the inline run runs, with the same successes. *)
  List.iter
    (fun (name, Models.Simulation (setup, m)) ->
       let run helpers =
         MC.estimate_reach_budgeted ~helpers setup ~target:m.target
           ~within:m.horizon ~initial_trials:4 ~seed:5 ()
       in
       let inline = run 0 and forked = run 3 in
       Alcotest.(check int) (name ^ ": trials") inline.MC.trials_run
         forked.MC.trials_run;
       Alcotest.(check int) (name ^ ": successes")
         (Proba.Stat.Proportion.successes inline.MC.prop)
         (Proba.Stat.Proportion.successes forked.MC.prop);
       Alcotest.(check int) (name ^ ": batches") inline.MC.batches
         forked.MC.batches)
    (simulations ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [ ("pool",
       [ Alcotest.test_case "parallel_for covers" `Quick
           test_chunks_cover_trials;
         Alcotest.test_case "parallel_for empty" `Quick
           test_no_trials;
         Alcotest.test_case "map_reduce ordered" `Quick
           test_times_in_trial_order;
         Alcotest.test_case "map_reduce sum" `Quick test_successes_sum;
         Alcotest.test_case "map_reduce chunking" `Quick
           test_chunk_grid_edges;
         Alcotest.test_case "exception propagates" `Quick
           test_exception_propagates;
         Alcotest.test_case "stop cancels" `Quick test_stop_cancels;
         Alcotest.test_case "shutdown idempotent" `Quick
           test_shutdown_idempotent ]);
      ("fork",
       [ Alcotest.test_case "each task once, results by index" `Quick
           test_fork_runs_each_once;
         Alcotest.test_case "lowest exception after join" `Quick
           test_fork_lowest_exception_after_join;
         Alcotest.test_case "inline on a pool worker" `Quick
           test_fork_inline_on_pool_worker;
         Alcotest.test_case "stream: chunks in order" `Quick
           test_stream_chunk_order;
         Alcotest.test_case "stream: producer's exception wins" `Quick
           test_stream_producer_wins;
         Alcotest.test_case "stream: deadline while a consumer waits" `Quick
           test_stream_deadline_while_waiting;
         Alcotest.test_case "stream: inline on a pool worker" `Quick
           test_stream_inline_on_pool_worker;
         Alcotest.test_case "helpers poll the caller's deadline" `Quick
           test_fork_helper_polls_deadline;
         Alcotest.test_case "check_json forked = inline" `Quick
           test_check_json_forked_equals_inline;
         Alcotest.test_case "deadline inside a fork region" `Quick
           test_deadline_in_fork_region ]);
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
