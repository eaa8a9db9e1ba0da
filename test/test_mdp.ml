(* Tests for the MDP engine: exploration, exact finite-horizon
   reachability, qualitative analysis, expected time, and the claim
   checker, against hand-computed values on the toy automata. *)

module Q = Proba.Rational
module D = Proba.Dist

let rational = Alcotest.testable Q.pp Q.equal
let check_q = Alcotest.check rational

(* ------------------------------------------------------------------ *)
(* Funtbl *)

let test_funtbl_basic () =
  let t = Mdp.Funtbl.create ~equal:String.equal ~hash:Hashtbl.hash 4 in
  Alcotest.(check int) "empty" 0 (Mdp.Funtbl.length t);
  Mdp.Funtbl.add t "a" 1;
  Mdp.Funtbl.add t "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Mdp.Funtbl.find t "a");
  Alcotest.(check (option int)) "find missing" None (Mdp.Funtbl.find t "z");
  Alcotest.(check bool) "mem" true (Mdp.Funtbl.mem t "b");
  Mdp.Funtbl.add t "a" 10;
  Alcotest.(check (option int)) "replace" (Some 10) (Mdp.Funtbl.find t "a");
  Alcotest.(check int) "size after replace" 2 (Mdp.Funtbl.length t)

let test_funtbl_resize () =
  let t = Mdp.Funtbl.create ~equal:Int.equal ~hash:Hashtbl.hash 4 in
  for i = 1 to 1000 do Mdp.Funtbl.add t i (i * i) done;
  Alcotest.(check int) "size" 1000 (Mdp.Funtbl.length t);
  for i = 1 to 1000 do
    Alcotest.(check (option int)) (string_of_int i) (Some (i * i))
      (Mdp.Funtbl.find t i)
  done;
  let sum = Mdp.Funtbl.fold (fun k _ acc -> acc + k) t 0 in
  Alcotest.(check int) "fold" (1000 * 1001 / 2) sum

let test_funtbl_custom_equal () =
  (* Keys equal modulo 10. *)
  let t =
    Mdp.Funtbl.create ~equal:(fun a b -> a mod 10 = b mod 10)
      ~hash:(fun a -> a mod 10) 4
  in
  Mdp.Funtbl.add t 3 "x";
  Alcotest.(check (option string)) "modular hit" (Some "x")
    (Mdp.Funtbl.find t 13);
  Mdp.Funtbl.add t 23 "y";
  Alcotest.(check int) "merged" 1 (Mdp.Funtbl.length t)

(* ------------------------------------------------------------------ *)
(* Explore *)

let choice_expl = Mdp.Explore.run Test_support.Toys.Choice.pa
let walker_expl = Mdp.Explore.run Test_support.Toys.Walker.pa
let cascade_expl = Mdp.Explore.run Test_support.Toys.Cascade.pa
let escape_expl = Mdp.Explore.run Test_support.Toys.Escape.pa

(* Each fixture compiled once; the engines read only the arena. *)
let choice_arena = Mdp.Arena.compile choice_expl

let walker_arena =
  Mdp.Arena.compile ~is_tick:Test_support.Toys.Walker.is_tick walker_expl

let cascade_arena = Mdp.Arena.compile cascade_expl
let escape_arena = Mdp.Arena.compile escape_expl

(* The untimed toys with every step a tick: the horizon of a
   tick-bounded query then counts steps. *)
let every_step_ticks expl = Mdp.Arena.compile ~is_tick:(fun _ -> true) expl
let choice_steps = every_step_ticks choice_expl
let cascade_steps = every_step_ticks cascade_expl

let test_explore_choice () =
  Alcotest.(check int) "3 states" 3 (Mdp.Explore.num_states choice_expl);
  Alcotest.(check int) "2 choices" 2 (Mdp.Explore.num_choices choice_expl);
  Alcotest.(check int) "4 branches" 4 (Mdp.Explore.num_branches choice_expl);
  Alcotest.(check (list int)) "start at 0" [ 0 ]
    (Mdp.Explore.start_indices choice_expl)

let test_explore_roundtrip () =
  let n = Mdp.Explore.num_states walker_expl in
  for i = 0 to n - 1 do
    let s = Mdp.Explore.state walker_expl i in
    Alcotest.(check (option int)) "index/state" (Some i)
      (Mdp.Explore.index walker_expl s)
  done

let test_explore_walker_states () =
  (* Reachable: done, walk(1,1), walk(0,1), walk(1,0). *)
  Alcotest.(check int) "walker states" 4
    (Mdp.Explore.num_states walker_expl)

let test_explore_max_states () =
  Alcotest.(check bool) "too many states" true
    (try ignore (Mdp.Explore.run ~max_states:2 Test_support.Toys.Walker.pa); false
     with Mdp.Explore.Too_many_states _ -> true)

let test_explore_invariant () =
  Alcotest.(check bool) "invariant holds" true
    (Mdp.Explore.check_invariant walker_expl (fun s ->
         match s with
         | Test_support.Toys.Walker.Done -> true
         | Test_support.Toys.Walker.Walk { c; b } -> c + b >= 1)
     = None);
  (match
     Mdp.Explore.check_invariant walker_expl (fun s -> s = Test_support.Toys.Walker.Done)
   with
   | Some _ -> ()
   | None -> Alcotest.fail "expected a violation")

let test_explore_states_where () =
  let walks =
    Mdp.Explore.states_where walker_expl (fun s -> s <> Test_support.Toys.Walker.Done)
  in
  Alcotest.(check int) "three walk states" 3 (List.length walks)

(* ------------------------------------------------------------------ *)
(* Finite_horizon: step-bounded on Choice and Cascade (every step a
   tick) *)

let value_at expl values s =
  match Mdp.Explore.index expl s with
  | Some i -> values.(i)
  | None -> Alcotest.fail "state not explored"

let test_fh_choice_min_max () =
  let target = Mdp.Explore.indicator choice_expl Test_support.Toys.Choice.s1 in
  let vmin = Mdp.Finite_horizon.min_reach choice_steps ~target ~ticks:1 in
  let vmax = Mdp.Finite_horizon.max_reach choice_steps ~target ~ticks:1 in
  check_q "min 1/3" (Q.of_ints 1 3) (value_at choice_expl vmin Test_support.Toys.Choice.S0);
  check_q "max 1/2" Q.half (value_at choice_expl vmax Test_support.Toys.Choice.S0);
  let v0 = Mdp.Finite_horizon.min_reach choice_steps ~target ~ticks:0 in
  check_q "0 steps from s0" Q.zero (value_at choice_expl v0 Test_support.Toys.Choice.S0);
  check_q "0 steps at target" Q.one (value_at choice_expl v0 Test_support.Toys.Choice.S1)

let test_fh_cascade () =
  let target = Mdp.Explore.indicator cascade_expl Test_support.Toys.Cascade.goal in
  let v2 = Mdp.Finite_horizon.min_reach cascade_steps ~target ~ticks:2 in
  check_q "two flips" (Q.of_ints 1 4)
    (value_at cascade_expl v2 (Test_support.Toys.Cascade.Level 0));
  let v4 = Mdp.Finite_horizon.min_reach cascade_steps ~target ~ticks:4 in
  (* Backward induction by hand: p3(L1) = 5/8, p3(L0) = 3/8, so
     p4(L0) = 1/2 * 5/8 + 1/2 * 3/8 = 1/2. *)
  check_q "four flips" Q.half
    (value_at cascade_expl v4 (Test_support.Toys.Cascade.Level 0))

(* ------------------------------------------------------------------ *)
(* Finite_horizon: timed, on the Walker *)

let walker_target = Mdp.Explore.indicator walker_expl Test_support.Toys.Walker.done_

let walker_min t =
  let v =
    Mdp.Finite_horizon.min_reach walker_arena ~target:walker_target ~ticks:t
  in
  value_at walker_expl v Test_support.Toys.Walker.start

let walker_max t =
  let v =
    Mdp.Finite_horizon.max_reach walker_arena ~target:walker_target ~ticks:t
  in
  value_at walker_expl v Test_support.Toys.Walker.start

let test_fh_walker_min () =
  (* Delaying adversary: min P[reach within t] = 1 - 2^-t. *)
  check_q "t=0" Q.zero (walker_min 0);
  check_q "t=1" Q.half (walker_min 1);
  check_q "t=2" (Q.of_ints 3 4) (walker_min 2);
  check_q "t=3" (Q.of_ints 7 8) (walker_min 3);
  check_q "t=6" (Q.of_ints 63 64) (walker_min 6)

let test_fh_walker_max () =
  (* Eager adversary flips immediately, then once per forced slot:
     max P[reach within t] = 1 - 2^-(t+1). *)
  check_q "t=0" Q.half (walker_max 0);
  check_q "t=1" (Q.of_ints 3 4) (walker_max 1);
  check_q "t=2" (Q.of_ints 7 8) (walker_max 2)

let test_fh_walker_policy () =
  let values, policy =
    Mdp.Finite_horizon.min_reach_with_policy walker_arena
      ~target:walker_target ~ticks:2
  in
  check_q "values agree" (Q.of_ints 3 4)
    (value_at walker_expl values Test_support.Toys.Walker.start);
  let start_i =
    Option.get (Mdp.Explore.index walker_expl Test_support.Toys.Walker.start)
  in
  (* With budget remaining, the minimizing adversary delays: it picks
     the tick step at the start state. *)
  let step_idx = policy.(2).(start_i) in
  let steps = Mdp.Explore.steps walker_expl start_i in
  Alcotest.(check bool) "delays via tick" true
    (Test_support.Toys.Walker.is_tick steps.(step_idx).Mdp.Explore.action);
  (* Target states carry no decision. *)
  let done_i = Option.get (Mdp.Explore.index walker_expl Test_support.Toys.Walker.Done) in
  Alcotest.(check int) "target has no step" (-1) (policy.(2).(done_i))

let test_fh_no_convergence () =
  (* A probabilistic zero-time self-loop: flip returns to the same state
     with probability 1/2 and never pays a tick; the layer fixpoint
     cannot close exactly and must be reported, not silently wrong. *)
  let module Bad = struct
    type state = S | Goal
    type action = Flip | Tick

    let enabled = function
      | S ->
        [ { Core.Pa.action = Flip; dist = D.coin S Goal };
          { Core.Pa.action = Tick; dist = D.point S } ]
      | Goal -> []

    let pa = Core.Pa.make ~start:[ S ] ~enabled ()
  end in
  let arena = Mdp.Arena.of_pa ~is_tick:(fun a -> a = Bad.Tick) Bad.pa in
  let target =
    Mdp.Arena.indicator arena (Core.Pred.make "goal" (fun s -> s = Bad.Goal))
  in
  Alcotest.(check bool) "raises No_convergence" true
    (try
       ignore (Mdp.Finite_horizon.max_reach arena ~target ~ticks:1);
       false
     with Mdp.Finite_horizon.No_convergence _ -> true)

let test_fh_bad_args () =
  Alcotest.(check bool) "negative ticks" true
    (try
       ignore
         (Mdp.Finite_horizon.min_reach walker_arena ~target:walker_target
            ~ticks:(-1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong target length" true
    (try
       ignore
         (Mdp.Finite_horizon.min_reach walker_arena ~target:[| true |]
            ~ticks:1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Qualitative *)

let test_qualitative_escape () =
  let target = Mdp.Explore.indicator escape_expl Test_support.Toys.Escape.goal in
  let always = Mdp.Qualitative.always_reaches escape_arena ~target in
  let at s = always.(Option.get (Mdp.Explore.index escape_expl s)) in
  Alcotest.(check bool) "start can stall" false (at Test_support.Toys.Escape.Start);
  Alcotest.(check bool) "goal trivially reaches" true (at Test_support.Toys.Escape.Goal);
  Alcotest.(check bool) "trap never reaches" false (at Test_support.Toys.Escape.Trap)

let test_qualitative_cascade_walker () =
  let target = Mdp.Explore.indicator cascade_expl Test_support.Toys.Cascade.goal in
  let always = Mdp.Qualitative.always_reaches cascade_arena ~target in
  Alcotest.(check bool) "cascade always reaches" true
    (Array.for_all (fun b -> b) always);
  let always_w =
    Mdp.Qualitative.always_reaches walker_arena ~target:walker_target
  in
  Alcotest.(check bool) "walker always reaches" true
    (Array.for_all (fun b -> b) always_w)

let test_qualitative_safe_core () =
  let target = Mdp.Explore.indicator escape_expl Test_support.Toys.Escape.goal in
  let core =
    Mdp.Qualitative.safe_core escape_arena ~avoid:(Array.map not target)
  in
  let at s = core.(Option.get (Mdp.Explore.index escape_expl s)) in
  Alcotest.(check bool) "start in core (can stay)" true (at Test_support.Toys.Escape.Start);
  Alcotest.(check bool) "trap in core (terminal)" true (at Test_support.Toys.Escape.Trap);
  Alcotest.(check bool) "goal not in core" false (at Test_support.Toys.Escape.Goal)

(* ------------------------------------------------------------------ *)
(* Expected_time *)

let test_expected_walker () =
  let emax =
    Mdp.Expected_time.max_expected_ticks walker_arena ~target:walker_target ()
  in
  let at values s =
    values.(Option.get (Mdp.Explore.index walker_expl s))
  in
  Alcotest.(check (float 1e-9)) "max expected 2" 2.0
    (at emax Test_support.Toys.Walker.start);
  Alcotest.(check (float 1e-9)) "target 0" 0.0 (at emax Test_support.Toys.Walker.Done)

let test_expected_escape_infinite () =
  let target = Mdp.Explore.indicator escape_expl Test_support.Toys.Escape.goal in
  (* [escape_arena] was compiled without a tick mask, i.e. no step is a
     tick -- the same semantics the old [~is_tick:(fun _ -> false)]
     argument selected. *)
  let emax = Mdp.Expected_time.max_expected_ticks escape_arena ~target () in
  let at s = emax.(Option.get (Mdp.Explore.index escape_expl s)) in
  Alcotest.(check bool) "stalling start is infinite" true
    (at Test_support.Toys.Escape.Start = infinity);
  Alcotest.(check (float 0.0)) "goal 0" 0.0 (at Test_support.Toys.Escape.Goal)

(* ------------------------------------------------------------------ *)
(* Checker *)

let walking = Core.Pred.make "walking" (fun s -> s <> Test_support.Toys.Walker.Done)

let test_checker_arrow_holds () =
  let result =
    Mdp.Checker.check_arrow walker_arena ~granularity:1
      ~schema:Core.Schema.unit_time ~pre:walking
      ~post:Test_support.Toys.Walker.done_ ~time:(Q.of_int 2)
      ~prob:(Q.of_ints 3 4)
  in
  check_q "attained 3/4" (Q.of_ints 3 4) result.Mdp.Checker.attained;
  Alcotest.(check int) "three pre states" 3 result.Mdp.Checker.pre_states;
  (match result.Mdp.Checker.claim with
   | None -> Alcotest.fail "claim should be produced"
   | Some c ->
     Alcotest.(check bool) "fully verified" true (Core.Claim.fully_verified c);
     check_q "claim prob" (Q.of_ints 3 4) (Core.Claim.prob c))

let test_checker_arrow_fails () =
  let result =
    Mdp.Checker.check_arrow walker_arena ~granularity:1
      ~schema:Core.Schema.unit_time ~pre:walking
      ~post:Test_support.Toys.Walker.done_ ~time:(Q.of_int 2)
      ~prob:(Q.of_ints 7 8)
  in
  Alcotest.(check bool) "no claim" true (result.Mdp.Checker.claim = None);
  check_q "attained still reported" (Q.of_ints 3 4)
    result.Mdp.Checker.attained;
  (match result.Mdp.Checker.witness with
   | Some s -> Alcotest.(check bool) "witness is the start" true
                 (s = Test_support.Toys.Walker.start)
   | None -> Alcotest.fail "expected witness")

let test_checker_granularity () =
  (* With granularity 2, "time 1" is two ticks of the SAME automaton --
     used here only to exercise the conversion path. *)
  let result =
    Mdp.Checker.check_arrow walker_arena ~granularity:2
      ~schema:Core.Schema.unit_time ~pre:walking
      ~post:Test_support.Toys.Walker.done_ ~time:Q.one ~prob:Q.half
  in
  check_q "two ticks worth" (Q.of_ints 3 4) result.Mdp.Checker.attained

let test_checker_inclusion () =
  match
    Mdp.Checker.verify_inclusion walker_arena Test_support.Toys.Walker.done_
      (Core.Pred.make "anything" (fun _ -> true))
  with
  | Some incl ->
    Alcotest.(check bool) "verified" false (Core.Inclusion.is_axiom incl)
  | None -> Alcotest.fail "inclusion should hold"

let test_checker_inclusion_fails () =
  Alcotest.(check bool) "counterexample" true
    (Mdp.Checker.verify_inclusion walker_arena walking
       Test_support.Toys.Walker.done_
     = None)

(* ------------------------------------------------------------------ *)
(* Expected-time policy extraction *)

(* ------------------------------------------------------------------ *)
(* Solved passes: each test compiles its own walker, so the memo starts
   empty. *)

let fresh_walker () =
  Mdp.Arena.compile ~is_tick:Test_support.Toys.Walker.is_tick walker_expl

let layers f =
  let before = Mdp.Finite_horizon.layers_solved () in
  let r = f () in
  (r, Mdp.Finite_horizon.layers_solved () - before)

let reach_over a ~over ~ticks =
  let p, _, _ =
    Mdp.Checker.min_reach_over a ~target:Test_support.Toys.Walker.done_
      ~ticks ~over
  in
  p

let test_passes_keyed_exactly () =
  let a = fresh_walker () in
  check_q "walking, 2 ticks" (Q.of_ints 3 4) (reach_over a ~over:walking ~ticks:2);
  check_q "same target, over done" Q.one
    (reach_over a ~over:Test_support.Toys.Walker.done_ ~ticks:2);
  check_q "same sets, 1 tick" Q.half (reach_over a ~over:walking ~ticks:1);
  let again, solved =
    layers (fun () -> reach_over a ~over:walking ~ticks:2)
  in
  check_q "asked again" (Q.of_ints 3 4) again;
  Alcotest.(check int) "asked again: no layer" 0 solved;
  let _, solved =
    layers (fun () ->
        Mdp.Checker.check_arrow a ~granularity:1 ~schema:Core.Schema.unit_time
          ~pre:walking ~post:Test_support.Toys.Walker.done_
          ~time:(Q.of_int 2) ~prob:(Q.of_ints 7 8))
  in
  Alcotest.(check int) "an arrow at another prob: no layer" 0 solved;
  Alcotest.(check int) "three questions stored" 3
    (List.length (Atomic.get a.Mdp.Arena.passes));
  let b =
    Mdp.Arena.assemble ~step_off:a.Mdp.Arena.step_off
      ~out_off:a.Mdp.Arena.out_off ~tgt:a.Mdp.Arena.tgt
      ~prob_q:a.Mdp.Arena.prob_q ~tick:a.Mdp.Arena.tick
      ~actions:a.Mdp.Arena.actions walker_expl
  in
  Alcotest.(check int) "assemble starts empty" 0
    (List.length (Atomic.get b.Mdp.Arena.passes))

let test_cut_pass_stores_nothing () =
  let a = fresh_walker () in
  let expired = Core.Budget.start (Core.Budget.v ~wall:0.0 ()) in
  (match
     Core.Budget.with_deadline expired (fun () ->
         reach_over a ~over:walking ~ticks:2)
   with
   | _ -> Alcotest.fail "an expired deadline did not cut the pass"
   | exception Core.Budget.Deadline_exceeded _ -> ());
  Alcotest.(check int) "nothing stored" 0
    (List.length (Atomic.get a.Mdp.Arena.passes));
  let p, solved = layers (fun () -> reach_over a ~over:walking ~ticks:2) in
  check_q "solved afterwards" (Q.of_ints 3 4) p;
  Alcotest.(check int) "every layer" 3 solved

(* Two domains ask one cold arena the same questions at once: both may
   solve, but they answer alike and each key is stored once. *)
let test_passes_race () =
  let a = fresh_walker () in
  let ask () =
    let p, w, m =
      Mdp.Checker.min_reach_over a ~target:Test_support.Toys.Walker.done_
        ~ticks:2 ~over:walking
    in
    let e, _, _ =
      Mdp.Checker.max_expected_over a ~target:Test_support.Toys.Walker.done_
        ~over:walking
    in
    (Q.to_string p, w, m, e)
  in
  match Test_support.Two_domains.run ask with
  | [| first; second |] ->
    Alcotest.(check bool) "equal answers" true (first = second);
    Alcotest.(check bool) "equal to a lone ask" true
      (first = ask ());
    Alcotest.(check int) "each key stored once" 2
      (List.length (Atomic.get a.Mdp.Arena.passes))
  | _ -> Alcotest.fail "two results expected"

let test_expected_policy () =
  let values, policy =
    Mdp.Expected_time.max_expected_ticks_with_policy walker_arena
      ~target:walker_target ()
  in
  let start_i =
    Option.get (Mdp.Explore.index walker_expl Test_support.Toys.Walker.start)
  in
  Alcotest.(check (float 1e-9)) "value 2" 2.0 values.(start_i);
  (* The maximizing adversary delays: picks the tick step at start. *)
  let steps = Mdp.Explore.steps walker_expl start_i in
  Alcotest.(check bool) "delays" true
    (Test_support.Toys.Walker.is_tick
       steps.(policy.(start_i)).Mdp.Explore.action);
  let done_i =
    Option.get (Mdp.Explore.index walker_expl Test_support.Toys.Walker.Done)
  in
  Alcotest.(check int) "no decision at target" (-1) policy.(done_i)

(* ------------------------------------------------------------------ *)
(* Zeno wellformedness *)

let test_zeno_walker_ok () =
  Alcotest.(check bool) "walker well formed" true
    (Mdp.Zeno.is_well_formed walker_arena)

let test_zeno_detects_cycle () =
  let module Bad = struct
    type state = S | Goal
    type action = Flip | Tick

    let enabled = function
      | S ->
        [ { Core.Pa.action = Flip; dist = D.coin S Goal };
          { Core.Pa.action = Tick; dist = D.point S } ]
      | Goal -> []

    let pa = Core.Pa.make ~start:[ S ] ~enabled ()
  end in
  let arena = Mdp.Arena.of_pa ~is_tick:(fun a -> a = Bad.Tick) Bad.pa in
  (match Mdp.Zeno.check arena with
   | Mdp.Zeno.Probabilistic_zero_time_cycle members ->
     Alcotest.(check bool) "S is in the cycle" true
       (List.exists (fun i -> Mdp.Arena.state arena i = Bad.S) members)
   | Mdp.Zeno.Ok -> Alcotest.fail "cycle not detected")

let test_zeno_dirac_cycle_ok () =
  (* Deterministic zero-time self-loops (busy waiting) are harmless:
     only cycles carrying a probabilistic branch break convergence. *)
  let module Pure = struct
    type state = S | Goal
    type action = Spin | Tick

    let enabled = function
      | S ->
        [ { Core.Pa.action = Spin; dist = D.point S };
          { Core.Pa.action = Tick; dist = D.point Goal } ]
      | Goal -> []

    let pa = Core.Pa.make ~start:[ S ] ~enabled ()
  end in
  let arena = Mdp.Arena.of_pa ~is_tick:(fun a -> a = Pure.Tick) Pure.pa in
  Alcotest.(check bool) "dirac spin is fine" true
    (Mdp.Zeno.is_well_formed arena)

let test_zeno_case_studies () =
  (* All shipped case-study encodings are well formed by construction
     (budgets make zero-time layers acyclic). *)
  Alcotest.(check bool) "cascade (untimed: every step zero-time!)" false
    (Mdp.Zeno.is_well_formed cascade_arena);
  Alcotest.(check bool) "cascade with steps as ticks" true
    (Mdp.Zeno.is_well_formed cascade_steps)

(* ------------------------------------------------------------------ *)
(* DOT export *)

let test_dot_export () =
  let dot = Mdp.Dot.to_string choice_arena ~name:"choice" () in
  Alcotest.(check bool) "has header" true
    (Astring.String.is_prefix ~affix:"digraph" dot);
  Alcotest.(check bool) "has states" true
    (Astring.String.is_infix ~affix:"s0" dot
     && Astring.String.is_infix ~affix:"s2" dot);
  Alcotest.(check bool) "has probabilities" true
    (Astring.String.is_infix ~affix:"1/3" dot);
  Alcotest.(check bool) "well bracketed" true
    (Astring.String.is_suffix ~affix:"}\n" dot)

let test_dot_highlight_and_limit () =
  let dot =
    Mdp.Dot.to_string choice_arena
      ~highlight:(fun s -> s = Test_support.Toys.Choice.S1) ()
  in
  Alcotest.(check bool) "highlight present" true
    (Astring.String.is_infix ~affix:"lightgray" dot);
  Alcotest.(check bool) "limit enforced" true
    (try ignore (Mdp.Dot.to_string choice_arena ~max_states:1 ()); false
     with Invalid_argument _ -> true)

(* Random well-formed clocked automata: a "walker" over [m] phases with
   seed-derived coin biases (dyadic, denominator 8) and phase targets.
   The (c, b) discipline guarantees zero-time acyclicity, so every
   tick layer closes in one walk. *)
let random_clocked_pa seed m =
  let rng = Proba.Rng.create ~seed in
  let table =
    Array.init m (fun _ ->
        let num = 1 + Proba.Rng.int rng 7 in
        ( Q.of_ints num 8,
          Proba.Rng.int rng m,
          Proba.Rng.int rng m ))
  in
  let enabled (phase, c, b) =
    if phase = m - 1 then
      [ { Core.Pa.action = `Tick; dist = D.point (phase, c, b) } ]
    else begin
      let tick =
        if c > 0 then
          [ { Core.Pa.action = `Tick; dist = D.point (phase, c - 1, 1) } ]
        else []
      in
      let step =
        if b > 0 then begin
          let p, up, down = table.(phase) in
          [ { Core.Pa.action = `Step;
              dist =
                (if up = down then D.point (up, 1, b - 1)
                 else
                   D.make
                     [ ((up, 1, b - 1), p);
                       ((down, 1, b - 1), Q.sub Q.one p) ]) } ]
        end
        else []
      in
      tick @ step
    end
  in
  Core.Pa.make ~start:[ (0, 1, 1) ] ~enabled ()

(* A random clocked automaton compiled, with its last phase as the
   target. *)
let random_clocked seed m =
  let pa = random_clocked_pa seed m in
  let arena =
    Mdp.Arena.of_pa ~is_tick:(function `Tick -> true | `Step -> false) pa
  in
  let target =
    Array.init (Mdp.Arena.num_states arena) (fun i ->
        let phase, _, _ = Mdp.Arena.state arena i in
        phase = m - 1)
  in
  (arena, target)

let clocked_gen =
  QCheck.pair (QCheck.int_range 0 100_000) (QCheck.int_range 2 5)

let prop_min_leq_max =
  QCheck.Test.make ~name:"min_reach <= max_reach" ~count:50 clocked_gen
    (fun (seed, m) ->
       let arena, target = random_clocked seed m in
       let ticks = 2 * m in
       let vmin = Mdp.Finite_horizon.min_reach arena ~target ~ticks in
       let vmax = Mdp.Finite_horizon.max_reach arena ~target ~ticks in
       Array.for_all2 Q.leq vmin vmax)

let prop_reach_monotone_in_ticks =
  QCheck.Test.make ~name:"reach probability monotone in horizon" ~count:50
    clocked_gen
    (fun (seed, m) ->
       let arena, target = random_clocked seed m in
       let prev = ref (Mdp.Finite_horizon.min_reach arena ~target ~ticks:0) in
       let ok = ref true in
       for t = 1 to 2 * m do
         let v = Mdp.Finite_horizon.min_reach arena ~target ~ticks:t in
         if not (Array.for_all2 Q.leq !prev v) then ok := false;
         prev := v
       done;
       !ok)

let prop_probabilities_in_range =
  QCheck.Test.make ~name:"reach probabilities lie in [0,1]" ~count:50
    clocked_gen
    (fun (seed, m) ->
       let arena, target = random_clocked seed m in
       let ticks = 2 * m in
       Array.for_all Q.is_probability
         (Mdp.Finite_horizon.min_reach arena ~target ~ticks)
       && Array.for_all Q.is_probability
         (Mdp.Finite_horizon.max_reach arena ~target ~ticks))

let prop_random_clocked_zeno_free =
  QCheck.Test.make ~name:"random clocked automata are zeno-free" ~count:40
    clocked_gen
    (fun (seed, m) -> Mdp.Zeno.is_well_formed (fst (random_clocked seed m)))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "mdp"
    [ ("funtbl",
       [ Alcotest.test_case "basic" `Quick test_funtbl_basic;
         Alcotest.test_case "resize" `Quick test_funtbl_resize;
         Alcotest.test_case "custom equal" `Quick test_funtbl_custom_equal ]);
      ("explore",
       [ Alcotest.test_case "choice" `Quick test_explore_choice;
         Alcotest.test_case "roundtrip" `Quick test_explore_roundtrip;
         Alcotest.test_case "walker states" `Quick test_explore_walker_states;
         Alcotest.test_case "max_states" `Quick test_explore_max_states;
         Alcotest.test_case "invariant" `Quick test_explore_invariant;
         Alcotest.test_case "states_where" `Quick test_explore_states_where ]);
      ("finite-horizon",
       [ Alcotest.test_case "choice min/max" `Quick test_fh_choice_min_max;
         Alcotest.test_case "cascade" `Quick test_fh_cascade;
         Alcotest.test_case "walker min (delay)" `Quick test_fh_walker_min;
         Alcotest.test_case "walker max (eager)" `Quick test_fh_walker_max;
         Alcotest.test_case "policy extraction" `Quick test_fh_walker_policy;
         Alcotest.test_case "zero-time cycle detected" `Quick
           test_fh_no_convergence;
         Alcotest.test_case "bad arguments" `Quick test_fh_bad_args ]);
      ("qualitative",
       [ Alcotest.test_case "escape" `Quick test_qualitative_escape;
         Alcotest.test_case "cascade/walker" `Quick
           test_qualitative_cascade_walker;
         Alcotest.test_case "safe core" `Quick test_qualitative_safe_core ]);
      ("expected-time",
       [ Alcotest.test_case "walker" `Quick test_expected_walker;
         Alcotest.test_case "escape infinite" `Quick
           test_expected_escape_infinite ]);
      ("checker",
       [ Alcotest.test_case "arrow holds" `Quick test_checker_arrow_holds;
         Alcotest.test_case "arrow fails" `Quick test_checker_arrow_fails;
         Alcotest.test_case "granularity" `Quick test_checker_granularity;
         Alcotest.test_case "inclusion" `Quick test_checker_inclusion;
         Alcotest.test_case "inclusion fails" `Quick
           test_checker_inclusion_fails ]);
      ("solved passes",
       [ Alcotest.test_case "keyed exactly" `Quick test_passes_keyed_exactly;
         Alcotest.test_case "a cut pass stores nothing" `Quick
           test_cut_pass_stores_nothing;
         Alcotest.test_case "two domains race" `Quick test_passes_race ]);
      ("expected-policy",
       [ Alcotest.test_case "extraction" `Quick test_expected_policy ]);
      ("zeno",
       [ Alcotest.test_case "walker ok" `Quick test_zeno_walker_ok;
         Alcotest.test_case "detects cycle" `Quick test_zeno_detects_cycle;
         Alcotest.test_case "dirac cycles fine" `Quick
           test_zeno_dirac_cycle_ok;
         Alcotest.test_case "case studies" `Quick test_zeno_case_studies ]);
      ("dot",
       [ Alcotest.test_case "export" `Quick test_dot_export;
         Alcotest.test_case "highlight and limit" `Quick
           test_dot_highlight_and_limit ]);
      qsuite "mdp-props"
        [ prop_min_leq_max; prop_reach_monotone_in_ticks;
          prop_probabilities_in_range; prop_random_clocked_zeno_free ] ]
