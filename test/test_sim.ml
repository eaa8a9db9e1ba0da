(* Tests for the simulation library: schedulers, the trajectory engine,
   and Monte Carlo estimation, cross-checked against the exact values
   known for the toy automata. *)

module Q = Proba.Rational
module Toys = Test_support.Toys

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_scheduler_of_adversary () =
  let adv = Core.Adversary.first_enabled Toys.Choice.pa in
  let sched = Sim.Scheduler.of_adversary adv in
  let rng = Proba.Rng.create ~seed:1 in
  match sched rng (Core.Exec.initial Toys.Choice.S0) with
  | Some step ->
    Alcotest.(check bool) "same as adversary" true
      (step.Core.Pa.action = Toys.Choice.A)
  | None -> Alcotest.fail "expected a step"

let test_scheduler_uniform_covers () =
  let sched = Sim.Scheduler.uniform Toys.Choice.pa in
  let rng = Proba.Rng.create ~seed:2 in
  let seen_a = ref false and seen_b = ref false in
  for _ = 1 to 200 do
    match sched rng (Core.Exec.initial Toys.Choice.S0) with
    | Some { Core.Pa.action = Toys.Choice.A; _ } -> seen_a := true
    | Some { Core.Pa.action = Toys.Choice.B; _ } -> seen_b := true
    | None -> Alcotest.fail "unexpected halt"
  done;
  Alcotest.(check bool) "both choices sampled" true (!seen_a && !seen_b)

let test_scheduler_uniform_terminal () =
  let sched = Sim.Scheduler.uniform Toys.Choice.pa in
  let rng = Proba.Rng.create ~seed:3 in
  Alcotest.(check bool) "halts at terminal" true
    (sched rng (Core.Exec.initial Toys.Choice.S1) = None)

let test_scheduler_priority () =
  let rank _ a = if a = Toys.Choice.B then 0 else 1 in
  let sched = Sim.Scheduler.priority Toys.Choice.pa rank in
  let rng = Proba.Rng.create ~seed:4 in
  match sched rng (Core.Exec.initial Toys.Choice.S0) with
  | Some step ->
    Alcotest.(check bool) "lowest rank wins" true
      (step.Core.Pa.action = Toys.Choice.B)
  | None -> Alcotest.fail "expected a step"

let test_scheduler_halt_when () =
  let sched =
    Sim.Scheduler.halt_when
      (fun s -> s = Toys.Choice.S0)
      (Sim.Scheduler.uniform Toys.Choice.pa)
  in
  let rng = Proba.Rng.create ~seed:7 in
  Alcotest.(check bool) "halts on predicate" true
    (sched rng (Core.Exec.initial Toys.Choice.S0) = None)

(* ------------------------------------------------------------------ *)
(* Engine *)

let walker_setup scheduler =
  { Sim.Monte_carlo.pa = Toys.Walker.pa;
    scheduler;
    duration = (fun a -> if Toys.Walker.is_tick a then 1 else 0);
    start = Toys.Walker.start }

let test_engine_reaches () =
  let rng = Proba.Rng.create ~seed:8 in
  let outcome =
    Sim.Engine.run Toys.Walker.pa (Sim.Scheduler.uniform Toys.Walker.pa)
      ~rng
      ~stop:(fun s -> s = Toys.Walker.Done)
      ~duration:(fun a -> if Toys.Walker.is_tick a then 1 else 0)
      Toys.Walker.start
  in
  Alcotest.(check bool) "reached" true (outcome.Sim.Engine.why = Sim.Engine.Reached);
  Alcotest.(check bool) "final is done" true
    (outcome.Sim.Engine.final = Toys.Walker.Done);
  Alcotest.(check bool) "elapsed counts ticks" true
    (outcome.Sim.Engine.elapsed
     = Core.Exec.total_time
         ~duration:(fun a -> if Toys.Walker.is_tick a then 1 else 0)
         outcome.Sim.Engine.frag)

let test_engine_step_limit () =
  let rng = Proba.Rng.create ~seed:9 in
  let outcome =
    Sim.Engine.run Toys.Walker.pa (Sim.Scheduler.uniform Toys.Walker.pa)
      ~rng ~stop:(fun _ -> false) ~max_steps:10 Toys.Walker.start
  in
  Alcotest.(check bool) "step limit" true
    (outcome.Sim.Engine.why = Sim.Engine.Step_limit);
  Alcotest.(check int) "ten steps" 10 outcome.Sim.Engine.steps

let test_engine_deadlock () =
  let rng = Proba.Rng.create ~seed:10 in
  let outcome =
    Sim.Engine.run Toys.Choice.pa (Sim.Scheduler.uniform Toys.Choice.pa)
      ~rng ~stop:(fun _ -> false) Toys.Choice.S0
  in
  Alcotest.(check bool) "deadlock at terminal" true
    (outcome.Sim.Engine.why = Sim.Engine.Deadlock);
  Alcotest.(check int) "one step taken" 1 outcome.Sim.Engine.steps

let test_engine_halted () =
  let rng = Proba.Rng.create ~seed:11 in
  let outcome =
    Sim.Engine.run Toys.Choice.pa
      (Sim.Scheduler.of_adversary Core.Adversary.halt)
      ~rng ~stop:(fun _ -> false) Toys.Choice.S0
  in
  Alcotest.(check bool) "halted" true
    (outcome.Sim.Engine.why = Sim.Engine.Halted)

let test_engine_time_limit () =
  let rng = Proba.Rng.create ~seed:12 in
  (* The delaying scheduler ticks forever on Done, so a time limit must
     fire once the budget is exhausted. *)
  let outcome =
    Sim.Engine.run Toys.Walker.pa (Sim.Scheduler.uniform Toys.Walker.pa)
      ~rng ~stop:(fun _ -> false)
      ~duration:(fun a -> if Toys.Walker.is_tick a then 1 else 0)
      ~max_time:5 Toys.Walker.start
  in
  Alcotest.(check bool) "time limit" true
    (outcome.Sim.Engine.why = Sim.Engine.Time_limit);
  Alcotest.(check bool) "elapsed within bound" true
    (outcome.Sim.Engine.elapsed <= 5)

let test_engine_stop_immediately () =
  let rng = Proba.Rng.create ~seed:13 in
  let outcome =
    Sim.Engine.run Toys.Walker.pa (Sim.Scheduler.uniform Toys.Walker.pa)
      ~rng ~stop:(fun _ -> true) Toys.Walker.start
  in
  Alcotest.(check bool) "reached at once" true
    (outcome.Sim.Engine.why = Sim.Engine.Reached);
  Alcotest.(check int) "no steps" 0 outcome.Sim.Engine.steps

(* ------------------------------------------------------------------ *)
(* Termination taxonomy at the deadline itself.  A deterministic
   countdown makes every outcome exact: [n] ticks down to [1] (one time
   unit each), then a zero-duration [finish] reaches [0], which is
   terminal. *)

module Countdown = struct
  let enabled s =
    if s > 1 then [ { Core.Pa.action = "tick"; dist = Proba.Dist.point (s - 1) } ]
    else if s = 1 then
      [ { Core.Pa.action = "finish"; dist = Proba.Dist.point 0 } ]
    else []

  let pa =
    Core.Pa.make
      ~pp_state:(fun fmt s -> Format.fprintf fmt "%d" s)
      ~pp_action:Format.pp_print_string
      ~start:[ 3 ] ~enabled ()

  let duration = function "tick" -> 1 | _ -> 0

  let run ~stop ?max_time () =
    Sim.Engine.run pa (Sim.Scheduler.uniform pa)
      ~rng:(Proba.Rng.create ~seed:30) ~stop ~duration ?max_time 3
end

let test_engine_reached_at_exact_max_time () =
  (* The target appears at elapsed = max_time; "within t" includes t, so
     this is Reached, not Time_limit. *)
  let outcome = Countdown.run ~stop:(fun s -> s = 1) ~max_time:2 () in
  Alcotest.(check bool) "reached" true
    (outcome.Sim.Engine.why = Sim.Engine.Reached);
  Alcotest.(check int) "at the deadline" 2 outcome.Sim.Engine.elapsed

let test_engine_deadlock_at_exact_max_time () =
  (* The zero-duration finish still fires at the deadline, and the
     terminal it lands in is a Deadlock, not a Time_limit. *)
  let outcome = Countdown.run ~stop:(fun _ -> false) ~max_time:2 () in
  Alcotest.(check bool) "deadlock" true
    (outcome.Sim.Engine.why = Sim.Engine.Deadlock);
  Alcotest.(check int) "final is 0" 0 outcome.Sim.Engine.final;
  Alcotest.(check int) "elapsed is the deadline" 2
    outcome.Sim.Engine.elapsed

let test_engine_time_limit_before_deadline_step () =
  (* A unit-duration step that would end beyond the deadline is not
     taken: the run stops one state earlier with Time_limit. *)
  let outcome = Countdown.run ~stop:(fun _ -> false) ~max_time:1 () in
  Alcotest.(check bool) "time limit" true
    (outcome.Sim.Engine.why = Sim.Engine.Time_limit);
  Alcotest.(check int) "stopped before the long tick" 2
    outcome.Sim.Engine.final;
  Alcotest.(check int) "elapsed capped" 1 outcome.Sim.Engine.elapsed

let test_engine_halted_beats_time_limit () =
  (* The scheduler declining wins over the clock when both apply at the
     same instant. *)
  let sched =
    Sim.Scheduler.halt_when (fun s -> s = 2)
      (Sim.Scheduler.uniform Countdown.pa)
  in
  let outcome =
    Sim.Engine.run Countdown.pa sched ~rng:(Proba.Rng.create ~seed:31)
      ~stop:(fun _ -> false) ~duration:Countdown.duration ~max_time:1 3
  in
  Alcotest.(check bool) "halted" true
    (outcome.Sim.Engine.why = Sim.Engine.Halted);
  Alcotest.(check int) "at the deadline" 1 outcome.Sim.Engine.elapsed

let test_engine_seed_deterministic () =
  (* Two runs from identical seeds replay the same trajectory exactly;
     Proba.Rng is a pure function of its seed. *)
  let run () =
    Sim.Engine.run Toys.Walker.pa (Sim.Scheduler.uniform Toys.Walker.pa)
      ~rng:(Proba.Rng.create ~seed:32)
      ~stop:(fun s -> s = Toys.Walker.Done)
      ~duration:(fun a -> if Toys.Walker.is_tick a then 1 else 0)
      ~max_steps:500 Toys.Walker.start
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same steps" a.Sim.Engine.steps b.Sim.Engine.steps;
  Alcotest.(check int) "same elapsed" a.Sim.Engine.elapsed
    b.Sim.Engine.elapsed;
  Alcotest.(check bool) "same verdict" true
    (a.Sim.Engine.why = b.Sim.Engine.why);
  Alcotest.(check bool) "same final state" true
    (a.Sim.Engine.final = b.Sim.Engine.final)

(* ------------------------------------------------------------------ *)
(* Monte Carlo, cross-checked against the exact walker values *)

let delayer_sched =
  (* Tick when possible: realizes the exact minimum 1 - 2^-t. *)
  Sim.Scheduler.priority Toys.Walker.pa (fun _ a ->
      if Toys.Walker.is_tick a then 0 else 1)

let eager_sched =
  Sim.Scheduler.priority Toys.Walker.pa (fun _ a ->
      if Toys.Walker.is_tick a then 1 else 0)

let test_mc_reach_delayer () =
  let prop =
    Sim.Monte_carlo.estimate_reach (walker_setup delayer_sched)
      ~target:(fun s -> s = Toys.Walker.Done)
      ~within:2 ~trials:4000 ~seed:100
  in
  let lo, hi = Proba.Stat.Proportion.wilson_ci prop in
  (* Exact value under the delaying adversary: 3/4. *)
  Alcotest.(check bool) "CI brackets 0.75" true (lo <= 0.75 && 0.75 <= hi);
  Alcotest.(check int) "all trials counted" 4000
    (Proba.Stat.Proportion.trials prop)

let test_mc_reach_eager () =
  let prop =
    Sim.Monte_carlo.estimate_reach (walker_setup eager_sched)
      ~target:(fun s -> s = Toys.Walker.Done)
      ~within:1 ~trials:4000 ~seed:101
  in
  let lo, hi = Proba.Stat.Proportion.wilson_ci prop in
  (* Exact value under the eager adversary: 1 - 2^-2 = 3/4. *)
  Alcotest.(check bool) "CI brackets 0.75" true (lo <= 0.75 && 0.75 <= hi)

let test_mc_reach_reproducible () =
  let run () =
    Proba.Stat.Proportion.successes
      (Sim.Monte_carlo.estimate_reach (walker_setup delayer_sched)
         ~target:(fun s -> s = Toys.Walker.Done)
         ~within:3 ~trials:500 ~seed:42)
  in
  Alcotest.(check int) "same seed, same count" (run ()) (run ())

let test_mc_time () =
  let summary, missed =
    Sim.Monte_carlo.estimate_time (walker_setup delayer_sched)
      ~target:(fun s -> s = Toys.Walker.Done)
      ~trials:4000 ~seed:102 ()
  in
  Alcotest.(check int) "no missed trials" 0 missed;
  (* Worst-case expected ticks is exactly 2 (geometric, one flip per
     tick). *)
  let mean = Proba.Stat.Summary.mean summary in
  Alcotest.(check bool) "mean near 2" true (mean > 1.85 && mean < 2.15)

let test_mc_time_eager () =
  let summary, _ =
    Sim.Monte_carlo.estimate_time (walker_setup eager_sched)
      ~target:(fun s -> s = Toys.Walker.Done)
      ~trials:4000 ~seed:103 ()
  in
  (* Best-case expected ticks is exactly 1. *)
  let mean = Proba.Stat.Summary.mean summary in
  Alcotest.(check bool) "mean near 1" true (mean > 0.85 && mean < 1.15)

let test_scheduler_of_choice () =
  (* Replay "always pick the first enabled step" as a policy. *)
  let sched = Sim.Scheduler.of_choice (fun _ -> Some 0) Toys.Walker.pa in
  let rng = Proba.Rng.create ~seed:21 in
  (match sched rng (Core.Exec.initial Toys.Walker.start) with
   | Some step ->
     Alcotest.(check bool) "first step is tick" true
       (Toys.Walker.is_tick step.Core.Pa.action)
   | None -> Alcotest.fail "expected a step");
  (* Out-of-range and negative indices halt. *)
  let bad = Sim.Scheduler.of_choice (fun _ -> Some 99) Toys.Walker.pa in
  Alcotest.(check bool) "out of range halts" true
    (bad rng (Core.Exec.initial Toys.Walker.start) = None);
  let none = Sim.Scheduler.of_choice (fun _ -> Some (-1)) Toys.Walker.pa in
  Alcotest.(check bool) "negative halts" true
    (none rng (Core.Exec.initial Toys.Walker.start) = None)

(* ------------------------------------------------------------------ *)
(* Search *)

let test_search_finds_peak () =
  (* Maximize -(g - 7)^2 over integers by +-1 moves. *)
  let score g = -. float_of_int ((g - 7) * (g - 7)) in
  let neighbor g rng = if Proba.Rng.bool rng then g + 1 else g - 1 in
  let result =
    Sim.Search.hill_climb
      ~rng:(Proba.Rng.create ~seed:5)
      ~init:0 ~neighbor ~score ~steps:200 ()
  in
  Alcotest.(check int) "found the peak" 7 result.Sim.Search.best;
  Alcotest.(check (float 0.0)) "peak value" 0.0 result.Sim.Search.score

let test_search_trace_monotone () =
  let score g = float_of_int g in
  let neighbor g rng = g + Proba.Rng.int rng 3 - 1 in
  let result =
    Sim.Search.hill_climb
      ~rng:(Proba.Rng.create ~seed:6)
      ~init:0 ~neighbor ~score ~steps:50 ()
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "trace is nondecreasing" true
    (monotone result.Sim.Search.trace);
  Alcotest.(check int) "evaluations counted" 51 result.Sim.Search.evaluations

let test_search_restarts_keep_best () =
  (* A deceptive landscape: restarts cannot make the result worse. *)
  let score g = if g = 0 then 10.0 else float_of_int (-g * g) in
  let neighbor g rng = g + Proba.Rng.int rng 3 - 1 in
  let once =
    Sim.Search.hill_climb ~rng:(Proba.Rng.create ~seed:7) ~init:0 ~neighbor
      ~score ~steps:10 ()
  in
  let with_restarts =
    Sim.Search.hill_climb ~rng:(Proba.Rng.create ~seed:7) ~init:0 ~neighbor
      ~score ~steps:10 ~restarts:3 ()
  in
  Alcotest.(check bool) "restarts never hurt" true
    (with_restarts.Sim.Search.score >= once.Sim.Search.score)

(* ------------------------------------------------------------------ *)
(* Layered policy replay *)

let test_layered_policy_replay () =
  (* Extract the walker's 3-tick minimizing policy and replay it: the
     simulated reach frequency must match the exact minimum 7/8. *)
  let expl = Mdp.Explore.run Toys.Walker.pa in
  let arena = Mdp.Arena.compile ~is_tick:Toys.Walker.is_tick expl in
  let target =
    Array.init (Mdp.Explore.num_states expl) (fun i ->
        Mdp.Explore.state expl i = Toys.Walker.Done)
  in
  let values, policy =
    Mdp.Finite_horizon.min_reach_with_policy arena ~target ~ticks:3
  in
  let start_i = Option.get (Mdp.Explore.index expl Toys.Walker.start) in
  let exact = Q.to_float values.(start_i) in
  let choose remaining s =
    match Mdp.Explore.index expl s with
    | Some i when remaining >= 0 && remaining < Array.length policy ->
      Some policy.(remaining).(i)
    | Some _ | None -> None
  in
  let sched =
    Sim.Scheduler.of_layered_policy ~horizon:3
      ~duration:(fun a -> if Toys.Walker.is_tick a then 1 else 0)
      ~choose Toys.Walker.pa
  in
  let setup =
    { Sim.Monte_carlo.pa = Toys.Walker.pa; scheduler = sched;
      duration = (fun a -> if Toys.Walker.is_tick a then 1 else 0);
      start = Toys.Walker.start }
  in
  let prop =
    Sim.Monte_carlo.estimate_reach setup
      ~target:(fun s -> s = Toys.Walker.Done) ~within:3 ~trials:4000
      ~seed:15
  in
  let estimate = Proba.Stat.Proportion.estimate prop in
  Alcotest.(check (float 0.03))
    (Printf.sprintf "replay %.4f matches exact %.4f" estimate exact)
    exact estimate

let () =
  Alcotest.run "sim"
    [ ("scheduler",
       [ Alcotest.test_case "of_adversary" `Quick test_scheduler_of_adversary;
         Alcotest.test_case "uniform covers" `Quick
           test_scheduler_uniform_covers;
         Alcotest.test_case "uniform terminal" `Quick
           test_scheduler_uniform_terminal;
         Alcotest.test_case "priority" `Quick test_scheduler_priority;
         Alcotest.test_case "halt_when" `Quick test_scheduler_halt_when;
         Alcotest.test_case "of_choice" `Quick test_scheduler_of_choice ]);
      ("engine",
       [ Alcotest.test_case "reaches" `Quick test_engine_reaches;
         Alcotest.test_case "step limit" `Quick test_engine_step_limit;
         Alcotest.test_case "deadlock" `Quick test_engine_deadlock;
         Alcotest.test_case "halted" `Quick test_engine_halted;
         Alcotest.test_case "time limit" `Quick test_engine_time_limit;
         Alcotest.test_case "stop immediately" `Quick
           test_engine_stop_immediately;
         Alcotest.test_case "reached at exact max_time" `Quick
           test_engine_reached_at_exact_max_time;
         Alcotest.test_case "deadlock at exact max_time" `Quick
           test_engine_deadlock_at_exact_max_time;
         Alcotest.test_case "time limit before overlong step" `Quick
           test_engine_time_limit_before_deadline_step;
         Alcotest.test_case "halted beats time limit" `Quick
           test_engine_halted_beats_time_limit;
         Alcotest.test_case "seed deterministic" `Quick
           test_engine_seed_deterministic ]);
      ("search",
       [ Alcotest.test_case "finds peak" `Quick test_search_finds_peak;
         Alcotest.test_case "trace monotone" `Quick
           test_search_trace_monotone;
         Alcotest.test_case "restarts keep best" `Quick
           test_search_restarts_keep_best ]);
      ("layered-policy",
       [ Alcotest.test_case "replay matches exact" `Quick
           test_layered_policy_replay ]);
      ("monte-carlo",
       [ Alcotest.test_case "reach under delayer" `Quick test_mc_reach_delayer;
         Alcotest.test_case "reach under eager" `Quick test_mc_reach_eager;
         Alcotest.test_case "reproducible" `Quick test_mc_reach_reproducible;
         Alcotest.test_case "expected time (delayer)" `Quick test_mc_time;
         Alcotest.test_case "expected time (eager)" `Quick test_mc_time_eager ])
    ]
