(* Tests for the fault-injection subsystem and the budgeted, gracefully
   degrading verification engines: spec/budget parsing, the Inject
   wrapper's invariants, the exploration bound, budgeted Monte Carlo, and
   the end-to-end re-derivation of the Lehmann-Rabin bound under one
   crash. *)

module Q = Proba.Rational
module F = Faults.Fault
module I = Faults.Inject
module FL = Faults.Lr
module LR = Lehmann_rabin

(* ------------------------------------------------------------------ *)
(* Fault specs *)

let test_fault_spec () =
  Alcotest.(check bool) "none is none" true (F.is_none F.none);
  Alcotest.(check int) "total none" 0 (F.total F.none);
  let s = F.v ~crash:1 ~loss:2 () in
  Alcotest.(check int) "crash" 1 s.F.crash;
  Alcotest.(check int) "loss" 2 s.F.loss;
  Alcotest.(check int) "stuck" 0 s.F.stuck;
  Alcotest.(check int) "total" 3 (F.total s);
  Alcotest.(check bool) "not none" false (F.is_none s);
  (match F.v ~crash:(-1) () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative budget accepted")

let test_fault_of_string () =
  (match F.of_string "crash:1,loss:2" with
   | Ok s ->
     Alcotest.(check bool) "parsed" true (s = F.v ~crash:1 ~loss:2 ())
   | Error e -> Alcotest.fail e);
  (match F.of_string "none" with
   | Ok s -> Alcotest.(check bool) "none parses" true (F.is_none s)
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "unknown kind rejected" true
    (Result.is_error (F.of_string "melt:1"));
  Alcotest.(check bool) "negative rejected" true
    (Result.is_error (F.of_string "crash:-1"));
  Alcotest.(check bool) "junk rejected" true
    (Result.is_error (F.of_string "crash:one"));
  (* round trip through to_string *)
  let s = F.v ~crash:1 ~stuck:3 () in
  (match F.of_string (F.to_string s) with
   | Ok s' -> Alcotest.(check bool) "round trip" true (s = s')
   | Error e -> Alcotest.fail e);
  Alcotest.(check string) "none prints none" "none" (F.to_string F.none)

let test_budget_of_string () =
  (match Core.Budget.of_string "states:100000,wall:30s" with
   | Ok b ->
     Alcotest.(check bool) "states" true (b.Core.Budget.max_states = Some 100000);
     Alcotest.(check bool) "wall" true (b.Core.Budget.wall = Some 30.0)
   | Error e -> Alcotest.fail e);
  (* Monte Carlo's six doubling rounds are a constant, not a budget. *)
  Alcotest.(check (result unit string)) "retries refused by name"
    (Error "unknown budget dimension \"retries\" (expected states or wall)")
    (Result.map ignore (Core.Budget.of_string "states:10,retries:4"));
  (match Core.Budget.of_string "wall:500ms" with
   | Ok b ->
     Alcotest.(check bool) "ms suffix" true (b.Core.Budget.wall = Some 0.5);
     Alcotest.(check bool) "states unset" true
       (b.Core.Budget.max_states = None)
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "junk rejected" true
    (Result.is_error (Core.Budget.of_string "states:lots"));
  Alcotest.(check bool) "unknown dimension rejected" true
    (Result.is_error (Core.Budget.of_string "patience:3"))

(* ------------------------------------------------------------------ *)
(* The Inject wrapper on the real LR automaton *)

let lr_config ?(faults = F.v ~crash:1 ()) ?(release = true) () =
  { FL.params = { LR.Automaton.n = 3; g = 1; k = 1 }; faults; release }

let wrapped_start config =
  I.init ~budget:config.FL.faults (LR.State.all_trying ~n:3 ~g:1 ~k:1)

let test_inject_offers_crashes () =
  let config = lr_config () in
  let pa = FL.make config in
  let w = wrapped_start config in
  let steps = Core.Pa.enabled pa w in
  let crashes =
    List.filter
      (fun st -> match st.Core.Pa.action with
         | I.Crash _ -> true
         | _ -> false)
      steps
  in
  Alcotest.(check int) "one crash option per process" 3
    (List.length crashes);
  (* base behaviour survives alongside the injections *)
  Alcotest.(check bool) "base steps present" true
    (List.exists
       (fun st -> match st.Core.Pa.action with
          | I.Step _ -> true
          | _ -> false)
       steps)

let test_inject_crash_silences_process () =
  let config = lr_config () in
  let pa = FL.make config in
  let w = wrapped_start config in
  let crashed =
    match
      List.find_map
        (fun st -> match st.Core.Pa.action with
           | I.Crash 0 -> Some (fst (List.hd (Proba.Dist.support st.Core.Pa.dist)))
           | _ -> None)
        (Core.Pa.enabled pa w)
    with
    | Some w' -> w'
    | None -> Alcotest.fail "no crash step offered"
  in
  Alcotest.(check bool) "marked crashed" true (I.is_crashed crashed 0);
  Alcotest.(check (list int)) "faulted view" [ 0 ] (I.faulted crashed);
  Alcotest.(check int) "budget spent" 0 (I.remaining crashed).F.crash;
  (* no surviving step of the crashed process, and no second crash *)
  List.iter
    (fun st ->
       (match I.effective_proc FL.proc_of_action st.Core.Pa.action with
        | Some 0 -> Alcotest.fail "crashed process still steps"
        | Some _ | None -> ());
       match st.Core.Pa.action with
       | I.Crash _ -> Alcotest.fail "crash offered beyond the budget"
       | _ -> ())
    (Core.Pa.enabled pa crashed)

let test_inject_helpers () =
  Alcotest.(check bool) "crash is an injection" true
    (I.is_injection (I.Crash 0));
  Alcotest.(check bool) "step is not" false
    (I.is_injection (I.Step LR.Automaton.Tick));
  Alcotest.(check bool) "injections have no effective proc" true
    (I.effective_proc FL.proc_of_action (I.Lost 1) = None);
  Alcotest.(check int) "injections take zero time" 0
    (FL.duration (I.Crash 2));
  Alcotest.(check int) "tick keeps its duration" 1
    (FL.duration (I.Step LR.Automaton.Tick));
  Alcotest.(check bool) "tick classified" true
    (FL.is_tick (I.Step LR.Automaton.Tick));
  Alcotest.(check bool) "crash not a tick" false (FL.is_tick (I.Crash 0))

let test_faults_schema () =
  let sch = FL.schema (F.v ~crash:1 ()) in
  Alcotest.(check string) "derived name" "Unit-Time+faults(crash:1)"
    (Core.Schema.name sch);
  Alcotest.(check bool) "execution closure inherited" true
    (Core.Schema.execution_closed sch)

(* Regression: a base automaton whose state equality is coarser than
   structural equality (here a tag field that [equal_state] ignores).
   A coin flip with two PA-equal but structurally distinct outcomes
   must reach downstream analyses as a single outcome of mass 1 -- the
   Inject wrapper re-merges its lifted distributions under the base
   equality, and [Explore] coalesces outcomes that intern to the same
   index.  With the default structural merge only, both paths would
   carry split masses and inflate every sweep. *)
let test_inject_merges_pa_equal_outcomes () =
  let equal_state (a, _) (b, _) = a = b in
  let hash_state (a, _) = Hashtbl.hash a in
  let enabled (level, _) =
    if level >= 1 then []
    else
      [ { Core.Pa.action = "flip";
          dist =
            Proba.Dist.make
              [ ((level + 1, "heads"), Q.half);
                ((level + 1, "tails"), Q.half) ] } ]
  in
  let base =
    Core.Pa.make ~equal_state ~hash_state ~start:[ (0, "init") ] ~enabled ()
  in
  (* Through the Inject wrapper. *)
  let hooks =
    { I.procs = (fun _ -> 1);
      proc_of_action = (fun _ -> Some 0);
      on_crash = (fun s _ -> s);
      on_lost = (fun _ _ -> None);
      on_wake = (fun s _ -> s) }
  in
  let pa = I.wrap ~hooks ~budget:(F.v ~crash:1 ()) base in
  let w = List.hd (Core.Pa.start pa) in
  let flip =
    List.find (fun st -> not (I.is_injection st.Core.Pa.action))
      (Core.Pa.enabled pa w)
  in
  Alcotest.(check int) "wrapper merges outcomes" 1
    (Proba.Dist.size flip.Core.Pa.dist);
  (* Through exploration of the bare base automaton. *)
  let expl = Mdp.Explore.run base in
  Alcotest.(check int) "two interned states" 2 (Mdp.Explore.num_states expl);
  (match Test_support.Rows.steps expl 0 with
   | [| { Test_support.Rows.outcomes = [| (_, weight) |]; _ } |] ->
     Alcotest.(check bool) "full mass on one branch" true
       (Q.equal Q.one weight)
   | _ -> Alcotest.fail "explore should coalesce the split outcomes")

(* ------------------------------------------------------------------ *)
(* Bounded exploration: [max_states] is the one state bound *)

let test_run_budgeted_complete () =
  let pa = LR.Automaton.make { n = 2; g = 1; k = 1 } in
  let n = Mdp.Explore.num_states (Mdp.Explore.run pa) in
  (* A bound of exactly the reachable count is not reached. *)
  let expl = Mdp.Explore.run ~max_states:n pa in
  Alcotest.(check bool) "complete" true (Mdp.Explore.is_complete expl);
  Alcotest.(check int) "same count as unbounded" n
    (Mdp.Explore.num_states expl)

let test_run_budgeted_partial () =
  let pa = LR.Automaton.make { n = 3; g = 1; k = 1 } in
  Alcotest.check_raises "raises at exactly the bound"
    (Mdp.Explore.Too_many_states 50)
    (fun () -> ignore (Mdp.Explore.run ~max_states:50 pa))

(* ------------------------------------------------------------------ *)
(* Budgeted Monte Carlo *)

let test_estimate_budgeted_deterministic () =
  let config = lr_config () in
  let pa = FL.make config in
  let setup =
    { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
      duration = FL.duration; start = wrapped_start config }
  in
  let run () =
    Sim.Monte_carlo.estimate_reach_budgeted setup
      ~target:(Core.Pred.mem FL.live_crit) ~within:13
      ~initial_trials:1 ~seed:7 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same trials" a.Sim.Monte_carlo.trials_run
    b.Sim.Monte_carlo.trials_run;
  Alcotest.(check int) "same successes"
    (Proba.Stat.Proportion.successes a.Sim.Monte_carlo.prop)
    (Proba.Stat.Proportion.successes b.Sim.Monte_carlo.prop);
  (* six rounds from 1: 1 + 2 + ... + 32 trials when nothing stops
     early *)
  Alcotest.(check int) "doubling batches" 63 a.Sim.Monte_carlo.trials_run;
  Alcotest.(check int) "six batches" 6 a.Sim.Monte_carlo.batches

let test_estimate_budgeted_always_runs_one_trial () =
  let config = lr_config () in
  let pa = FL.make config in
  let setup =
    { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
      duration = FL.duration; start = wrapped_start config }
  in
  (* a wall budget that is already exhausted still yields >= 1 trial *)
  let est =
    Sim.Monte_carlo.estimate_reach_budgeted setup
      ~target:(Core.Pred.mem FL.live_crit) ~within:13
      ~budget:(Core.Budget.v ~wall:0.0 ()) ~seed:8 ()
  in
  Alcotest.(check bool) "at least one trial" true
    (est.Sim.Monte_carlo.trials_run >= 1);
  Alcotest.(check bool) "stopped for the wall" true
    (est.Sim.Monte_carlo.stopped <> None)

(* ------------------------------------------------------------------ *)
(* End to end: the LR n=3 one-crash claims *)

let test_derive_one_crash_release () =
  let d = FL.derive (lr_config ~release:true ()) in
  Alcotest.(check bool) "arrow1 attains 3/4" true
    (Q.equal d.FL.arrow1.Mdp.Checker.attained (Q.of_ints 3 4));
  Alcotest.(check bool) "arrow1 certified" true
    (d.FL.arrow1.Mdp.Checker.claim <> None);
  Alcotest.(check bool) "arrow2 attains 1" true
    (Q.equal d.FL.arrow2.Mdp.Checker.attained Q.one);
  (match d.FL.composed with
   | Ok c ->
     Alcotest.(check bool) "composed time 20" true
       (Q.equal (Core.Claim.time c) (Q.of_int 20));
     Alcotest.(check bool) "composed prob 3/4" true
       (Q.equal (Core.Claim.prob c) (Q.of_ints 3 4));
     Alcotest.(check string) "fault schema on the composition"
       "Unit-Time+faults(crash:1)"
       (Core.Schema.name (Core.Claim.schema c))
   | Error e -> Alcotest.fail ("composition failed: " ^ e));
  Alcotest.(check bool) "direct 13-unit bound 3/4" true
    (Q.equal d.FL.direct (Q.of_ints 3 4))

let test_derive_one_crash_no_release () =
  (* Without fork release the adversary waits for a philosopher to hold
     both forks and crashes it: the ring locks and every probability
     collapses to exactly 0. *)
  let d = FL.derive (lr_config ~release:false ()) in
  Alcotest.(check bool) "arrow1 collapses" true
    (Q.is_zero d.FL.arrow1.Mdp.Checker.attained);
  Alcotest.(check bool) "arrow2 collapses" true
    (Q.is_zero d.FL.arrow2.Mdp.Checker.attained);
  Alcotest.(check bool) "direct collapses" true (Q.is_zero d.FL.direct)

let test_derive_no_faults_matches_paper () =
  (* A zero budget degrades to the plain automaton: the paper's 13-unit
     1/8 bound must be met (the exact minimum is 1/2 at n=3). *)
  let d = FL.derive (lr_config ~faults:F.none ()) in
  Alcotest.(check bool) "direct >= 1/8" true
    (Q.compare d.FL.direct (Q.of_ints 1 8) >= 0)

let test_check_budgeted_exact () =
  match FL.check_budgeted ~seed:9 (lr_config ()) with
  | FL.Exact { arrow; inst } ->
    Alcotest.(check bool) "attained 3/4" true
      (Q.equal arrow.Mdp.Checker.attained (Q.of_ints 3 4));
    Alcotest.(check bool) "meets 1/8" true (arrow.Mdp.Checker.claim <> None);
    Alcotest.(check int) "full space" 9700
      (Mdp.Arena.num_states inst.FL.arena);
    (* The derivation reads the same arena: its direct 13-unit minimum
       is the ladder's arrow, solved once. *)
    Alcotest.(check bool) "direct is the ladder's minimum" true
      (Q.equal (FL.derivation inst).FL.direct arrow.Mdp.Checker.attained)
  | FL.Estimate _ ->
    Alcotest.fail "expected the exact rung under an unlimited budget"

let test_check_budgeted_degrades () =
  (* A state budget far below the 9700-state space forces the Monte
     Carlo rung; the call must not raise. *)
  match
    FL.check_budgeted ~budget:(Core.Budget.v ~max_states:200 ()) ~seed:10
      (lr_config ())
  with
  | FL.Estimate e ->
    Alcotest.(check bool) "says why" true (e.FL.reason <> "");
    Alcotest.(check bool) "ran trials" true
      (e.FL.est.Sim.Monte_carlo.trials_run > 0)
  | FL.Exact _ -> Alcotest.fail "200 states cannot hold the wrapped space"

(* Satellite regression: a 50 ms wall allowance must come back promptly
   with a structured verdict.  The ambient deadline's poll points cut
   the exploration / arena compile / checker sweeps mid-flight -- a
   verdict only "after the sweep" would take seconds here. *)
let test_wall_deadline_returns_promptly () =
  let t0 = Unix.gettimeofday () in
  let verdict =
    FL.check_budgeted
      ~budget:(Core.Budget.v ~wall:0.05 ())
      ~seed:11 (lr_config ())
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "returned in %.0f ms, not after the full sweep"
       (elapsed *. 1000.))
    true (elapsed < 5.0);
  match verdict with
  | FL.Estimate e ->
    Alcotest.(check bool) "at least one trial despite the tiny wall" true
      (e.FL.est.Sim.Monte_carlo.trials_run >= 1);
    Alcotest.(check bool) "says why" true (e.FL.reason <> "")
  | FL.Exact _ ->
    (* A machine fast enough to finish the 9700-state exact check
       inside 50 ms satisfies the bound trivially. *)
    ()

(* An already-expired ambient deadline must cut the BFS inner loop via
   its poll point, not only between phases. *)
let test_ambient_deadline_cuts_exploration () =
  let pa = FL.make (lr_config ()) in
  let clock = Core.Budget.start (Core.Budget.v ~wall:0.0 ()) in
  (match Core.Budget.with_deadline clock (fun () -> Mdp.Explore.run pa) with
   | exception Core.Budget.Deadline_exceeded _ -> ()
   | _ -> Alcotest.fail "expired ambient deadline did not cut the BFS");
  (* and the ambient cell is restored on the way out *)
  Alcotest.(check bool) "deadline unset after with_deadline" true
    (Core.Budget.current_deadline () = None)

(* A nested deadline never extends an earlier one already armed: an
   unlimited budget inside an expired caller deadline still stops at the
   caller's, and the ladder leaves that exception to the caller. *)
let test_nested_deadline_keeps_the_earlier () =
  let pa = FL.make (lr_config ()) in
  let expired = Core.Budget.start (Core.Budget.v ~wall:0.0 ()) in
  let unlimited = Core.Budget.start Core.Budget.unlimited in
  (match
     Core.Budget.with_deadline expired (fun () ->
         Core.Budget.with_deadline unlimited (fun () -> Mdp.Explore.run pa))
   with
   | exception Core.Budget.Deadline_exceeded _ -> ()
   | _ -> Alcotest.fail "the inner deadline extended the outer one");
  match
    Core.Budget.with_deadline expired (fun () ->
        FL.check_budgeted ~budget:(Core.Budget.v ~wall:30.0 ()) (lr_config ()))
  with
  | exception Core.Budget.Deadline_exceeded _ -> ()
  | _ -> Alcotest.fail "the ladder caught the caller's deadline"

(* The ladder always has its Monte Carlo rung; a state-ceiling stop
   names the bound it stopped at. *)
let test_check_arrow_exhausted_without_fallback () =
  match
    FL.check_budgeted ~budget:(Core.Budget.v ~max_states:200 ()) ~seed:12
      (lr_config ())
  with
  | FL.Estimate e ->
    Alcotest.(check string) "reason carries the bound"
      "exact exploration stopped after 200 states: state budget hit (200 \
       states interned)"
      e.FL.reason
  | FL.Exact _ -> Alcotest.fail "200 states cannot hold the wrapped space"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [ ( "spec",
        [ Alcotest.test_case "fault spec" `Quick test_fault_spec;
          Alcotest.test_case "fault of_string" `Quick test_fault_of_string;
          Alcotest.test_case "budget of_string" `Quick test_budget_of_string ] );
      ( "inject",
        [ Alcotest.test_case "offers crashes" `Quick
            test_inject_offers_crashes;
          Alcotest.test_case "crash silences process" `Quick
            test_inject_crash_silences_process;
          Alcotest.test_case "helpers" `Quick test_inject_helpers;
          Alcotest.test_case "schema" `Quick test_faults_schema;
          Alcotest.test_case "merges PA-equal outcomes" `Quick
            test_inject_merges_pa_equal_outcomes ] );
      ( "budgeted exploration",
        [ Alcotest.test_case "complete" `Quick test_run_budgeted_complete;
          Alcotest.test_case "partial" `Quick test_run_budgeted_partial ] );
      ( "budgeted monte carlo",
        [ Alcotest.test_case "deterministic" `Quick
            test_estimate_budgeted_deterministic;
          Alcotest.test_case "always one trial" `Quick
            test_estimate_budgeted_always_runs_one_trial ] );
      ( "lr one crash",
        [ Alcotest.test_case "derive (release)" `Quick
            test_derive_one_crash_release;
          Alcotest.test_case "derive (no release)" `Quick
            test_derive_one_crash_no_release;
          Alcotest.test_case "no faults matches paper" `Quick
            test_derive_no_faults_matches_paper;
          Alcotest.test_case "check_budgeted exact" `Quick
            test_check_budgeted_exact;
          Alcotest.test_case "check_budgeted degrades" `Quick
            test_check_budgeted_degrades;
          Alcotest.test_case "50ms wall returns promptly" `Quick
            test_wall_deadline_returns_promptly;
          Alcotest.test_case "ambient deadline cuts BFS" `Quick
            test_ambient_deadline_cuts_exploration;
          Alcotest.test_case "nested deadline keeps the earlier" `Quick
            test_nested_deadline_keeps_the_earlier;
          Alcotest.test_case "exhausted without fallback" `Quick
            test_check_arrow_exhausted_without_fallback ] ) ]
