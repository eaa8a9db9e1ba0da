(* Tests for the core model: predicates, executions, automata,
   adversaries, execution automata, event schemas, claims, expected-time
   derivations, and the timed wrapper. *)

module Q = Proba.Rational
module D = Proba.Dist

let rational = Alcotest.testable Q.pp Q.equal
let check_q = Alcotest.check rational

(* ------------------------------------------------------------------ *)
(* Pred *)

let even = Core.Pred.make "even" (fun n -> n mod 2 = 0)
let small = Core.Pred.make "small" (fun n -> n < 10)

let test_pred_basic () =
  Alcotest.(check bool) "mem" true (Core.Pred.mem even 4);
  Alcotest.(check bool) "not mem" false (Core.Pred.mem even 3);
  Alcotest.(check string) "name" "even" (Core.Pred.name even)

let test_pred_algebra () =
  let u = Core.Pred.union even small in
  Alcotest.(check bool) "union left" true (Core.Pred.mem u 12);
  Alcotest.(check bool) "union right" true (Core.Pred.mem u 3);
  Alcotest.(check bool) "union neither" false (Core.Pred.mem u 13);
  let i = Core.Pred.inter even small in
  Alcotest.(check bool) "inter" true (Core.Pred.mem i 4);
  Alcotest.(check bool) "inter fail" false (Core.Pred.mem i 12);
  let c = Core.Pred.complement even in
  Alcotest.(check bool) "complement" true (Core.Pred.mem c 3);
  Alcotest.(check string) "union name" "even ∪ small" (Core.Pred.name u)

let test_pred_same () =
  Alcotest.(check bool) "same by name" true
    (Core.Pred.same even (Core.Pred.make "even" (fun _ -> false)));
  Alcotest.(check bool) "different" false (Core.Pred.same even small)

(* ------------------------------------------------------------------ *)
(* Exec *)

let frag_abc =
  let f = Core.Exec.initial "a" in
  let f = Core.Exec.snoc f 1 "b" in
  Core.Exec.snoc f 2 "c"

let test_exec_basic () =
  Alcotest.(check string) "fstate" "a" (Core.Exec.fstate frag_abc);
  Alcotest.(check string) "lstate" "c" (Core.Exec.lstate frag_abc);
  Alcotest.(check int) "length" 2 (Core.Exec.length frag_abc);
  Alcotest.(check (list string)) "states" [ "a"; "b"; "c" ]
    (Core.Exec.states frag_abc);
  Alcotest.(check (list int)) "actions" [ 1; 2 ] (Core.Exec.actions frag_abc);
  Alcotest.(check (list (pair int string))) "steps" [ (1, "b"); (2, "c") ]
    (Core.Exec.steps frag_abc)

let test_exec_initial () =
  let f = Core.Exec.initial 42 in
  Alcotest.(check int) "fstate=lstate" (Core.Exec.fstate f)
    (Core.Exec.lstate f);
  Alcotest.(check int) "length 0" 0 (Core.Exec.length f)

let test_exec_concat () =
  let tail = Core.Exec.snoc (Core.Exec.initial "c") 3 "d" in
  let joined = Core.Exec.concat frag_abc tail in
  Alcotest.(check (list string)) "concat states" [ "a"; "b"; "c"; "d" ]
    (Core.Exec.states joined);
  Alcotest.check_raises "mismatched concat"
    (Invalid_argument "Exec.concat: fragments do not meet") (fun () ->
        ignore (Core.Exec.concat frag_abc (Core.Exec.initial "z")))

let test_exec_prefix () =
  let p = Core.Exec.snoc (Core.Exec.initial "a") 1 "b" in
  Alcotest.(check bool) "is_prefix" true (Core.Exec.is_prefix p frag_abc);
  Alcotest.(check bool) "self prefix" true
    (Core.Exec.is_prefix frag_abc frag_abc);
  Alcotest.(check bool) "not prefix" false
    (Core.Exec.is_prefix frag_abc p);
  match Core.Exec.drop_prefix p frag_abc with
  | None -> Alcotest.fail "drop_prefix failed"
  | Some suffix ->
    Alcotest.(check (list string)) "suffix" [ "b"; "c" ]
      (Core.Exec.states suffix);
    Alcotest.(check string) "suffix fstate = prefix lstate"
      (Core.Exec.lstate p) (Core.Exec.fstate suffix)

let test_exec_total_time () =
  Alcotest.(check int) "durations" 3
    (Core.Exec.total_time ~duration:(fun a -> a) frag_abc)

let test_exec_find_fold () =
  Alcotest.(check (option int)) "find_first" (Some 1)
    (Core.Exec.find_first frag_abc (fun a _ -> a = 2));
  Alcotest.(check (option int)) "find_first none" None
    (Core.Exec.find_first frag_abc (fun a _ -> a = 9));
  Alcotest.(check bool) "exists" true
    (Core.Exec.exists frag_abc (fun _ s -> s = "b"));
  Alcotest.(check int) "fold" 3
    (Core.Exec.fold (fun acc a _ -> acc + a) 0 frag_abc)

(* ------------------------------------------------------------------ *)
(* Pa *)

let test_pa_basic () =
  let m = Test_support.Toys.Choice.pa in
  Alcotest.(check int) "one start" 1 (List.length (Core.Pa.start m));
  Alcotest.(check int) "two steps at s0" 2
    (List.length (Core.Pa.enabled m Test_support.Toys.Choice.S0));
  Alcotest.(check bool) "terminal" true (Core.Pa.is_terminal m Test_support.Toys.Choice.S1);
  Alcotest.(check bool) "not deterministic" false
    (Core.Pa.is_deterministic_at m Test_support.Toys.Choice.S0)

let test_pa_empty_start () =
  Alcotest.check_raises "no start states"
    (Invalid_argument "Pa.make: no start states") (fun () ->
        ignore (Core.Pa.make ~start:([] : int list) ~enabled:(fun _ -> []) ()))

(* ------------------------------------------------------------------ *)
(* Adversary *)

let test_adversary_first_enabled () =
  let adv = Core.Adversary.first_enabled Test_support.Toys.Choice.pa in
  match adv (Core.Exec.initial Test_support.Toys.Choice.S0) with
  | None -> Alcotest.fail "expected a step"
  | Some step ->
    Alcotest.(check bool) "picks A" true (step.Core.Pa.action = Test_support.Toys.Choice.A)

let test_adversary_halt_cutoff () =
  let adv = Core.Adversary.first_enabled Test_support.Toys.Choice.pa in
  Alcotest.(check bool) "halt" true
    (Core.Adversary.halt (Core.Exec.initial Test_support.Toys.Choice.S0) = None);
  let limited = Core.Adversary.cutoff 0 adv in
  Alcotest.(check bool) "cutoff stops" true
    (limited (Core.Exec.initial Test_support.Toys.Choice.S0) = None)

let test_adversary_by_priority () =
  let rank _ a = match a with Test_support.Toys.Choice.A -> 2 | Test_support.Toys.Choice.B -> 1 in
  let adv = Core.Adversary.by_priority Test_support.Toys.Choice.pa rank in
  match adv (Core.Exec.initial Test_support.Toys.Choice.S0) with
  | Some step ->
    Alcotest.(check bool) "picks B" true (step.Core.Pa.action = Test_support.Toys.Choice.B)
  | None -> Alcotest.fail "expected a step"

let test_adversary_shift () =
  (* Execution closure: the shifted adversary answers on the suffix what
     the original answers on the full fragment. *)
  let open Test_support.Toys.Race in
  let prefix =
    Core.Exec.snoc (Core.Exec.initial start) Flip_p { start with p = Heads }
  in
  let shifted = Core.Adversary.shift prefix dependency_adversary in
  let suffix = Core.Exec.initial { start with p = Heads } in
  (match shifted suffix with
   | Some step ->
     Alcotest.(check bool) "continues with Q" true
       (step.Core.Pa.action = Flip_q)
   | None -> Alcotest.fail "expected flip_q");
  let prefix_tails =
    Core.Exec.snoc (Core.Exec.initial start) Flip_p { start with p = Tails }
  in
  let shifted = Core.Adversary.shift prefix_tails dependency_adversary in
  Alcotest.(check bool) "halts on tails" true
    (shifted (Core.Exec.initial { start with p = Tails }) = None)

let test_adversary_well_formed () =
  let adv = Core.Adversary.first_enabled Test_support.Toys.Choice.pa in
  Alcotest.(check bool) "well formed" true
    (Core.Adversary.well_formed Test_support.Toys.Choice.pa adv
       (Core.Exec.initial Test_support.Toys.Choice.S0));
  let bogus _ =
    Some
      { Core.Pa.action = Test_support.Toys.Choice.A; dist = D.point Test_support.Toys.Choice.S0 }
  in
  Alcotest.(check bool) "bogus rejected" false
    (Core.Adversary.well_formed Test_support.Toys.Choice.pa bogus
       (Core.Exec.initial Test_support.Toys.Choice.S0))

(* ------------------------------------------------------------------ *)
(* Exec_automaton *)

let unfold_choice action =
  let adv frag =
    if Core.Exec.length frag > 0 then None
    else
      List.find_opt
        (fun s -> s.Core.Pa.action = action)
        (Core.Pa.enabled Test_support.Toys.Choice.pa (Core.Exec.lstate frag))
  in
  Core.Exec_automaton.unfold Test_support.Toys.Choice.pa adv Test_support.Toys.Choice.S0 ~max_depth:5

let test_exec_automaton_measure () =
  let tree = unfold_choice Test_support.Toys.Choice.A in
  check_q "total mass" Q.one (Core.Exec_automaton.total_mass tree);
  Alcotest.(check int) "3 nodes" 3 (Core.Exec_automaton.size tree);
  let reach_s1 = Core.Event.eventually Test_support.Toys.Choice.s1 in
  check_q "P[s1] under A" Q.half
    (Core.Exec_automaton.prob_exact reach_s1 tree);
  let tree_b = unfold_choice Test_support.Toys.Choice.B in
  check_q "P[s1] under B" (Q.of_ints 1 3)
    (Core.Exec_automaton.prob_exact reach_s1 tree_b)

let test_exec_automaton_leaves () =
  let tree = unfold_choice Test_support.Toys.Choice.A in
  let leaves = Core.Exec_automaton.maximal_executions tree in
  Alcotest.(check int) "two leaves" 2 (List.length leaves);
  List.iter
    (fun (frag, mass, genuine) ->
       Alcotest.(check bool) "genuine" true genuine;
       check_q "leaf mass" Q.half mass;
       Alcotest.(check int) "leaf length" 1 (Core.Exec.length frag))
    leaves

let test_exec_automaton_truncation () =
  (* Unfold the Cascade (which loops forever) to a small depth: the
     reach probability is only known as an interval. *)
  let adv = Core.Adversary.first_enabled Test_support.Toys.Cascade.pa in
  let tree =
    Core.Exec_automaton.unfold Test_support.Toys.Cascade.pa adv (Test_support.Toys.Cascade.Level 0)
      ~max_depth:2
  in
  let ev = Core.Event.eventually Test_support.Toys.Cascade.goal in
  let lo, hi = Core.Exec_automaton.prob_interval ev tree in
  check_q "lower bound" (Q.of_ints 1 4) lo;
  check_q "upper bound" Q.one hi;
  Alcotest.(check bool) "prob_exact raises" true
    (try ignore (Core.Exec_automaton.prob_exact ev tree); false
     with Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Event schemas on the Race automaton (Example 4.1) *)

let race_tree adv =
  Core.Exec_automaton.unfold Test_support.Toys.Race.pa adv Test_support.Toys.Race.start ~max_depth:4

let test_event_first_dependency () =
  let open Test_support.Toys.Race in
  let tree = race_tree dependency_adversary in
  let first_p = Core.Event.first Flip_p p_heads in
  let first_q = Core.Event.first Flip_q q_tails in
  check_q "P[first(flip_p, H)]" Q.half
    (Core.Exec_automaton.prob_exact first_p tree);
  (* Q is only scheduled on heads, yet first(flip_q, tails) also accepts
     executions where Q never flips. *)
  check_q "P[first(flip_q, T)]" (Q.of_ints 3 4)
    (Core.Exec_automaton.prob_exact first_q tree);
  (* Proposition 4.2(1): the conjunction is still >= 1/2 * 1/2. *)
  check_q "P[conjunction] = 1/4" (Q.of_ints 1 4)
    (Core.Exec_automaton.prob_exact (Core.Event.conj first_p first_q) tree)

let test_event_first_fair () =
  let open Test_support.Toys.Race in
  let tree = race_tree fair_adversary in
  let conj =
    Core.Event.conj
      (Core.Event.first Flip_p p_heads)
      (Core.Event.first Flip_q q_tails)
  in
  check_q "fair conjunction" (Q.of_ints 1 4)
    (Core.Exec_automaton.prob_exact conj tree)

let test_event_naive_dependence () =
  (* The cautionary half of Example 4.1: conditioned on both coins
     having been flipped, the dependency adversary makes
     P[P=H and Q=T | both flipped] = 1/2, not 1/4. *)
  let open Test_support.Toys.Race in
  let tree = race_tree dependency_adversary in
  let both =
    Core.Pred.make "both flipped" (fun s ->
        s.p <> Unflipped && s.q <> Unflipped)
  in
  let good =
    Core.Pred.make "H,T" (fun s -> s.p = Heads && s.q = Tails)
  in
  let p_both =
    Core.Exec_automaton.prob_exact (Core.Event.eventually both) tree
  in
  let p_good =
    Core.Exec_automaton.prob_exact (Core.Event.eventually good) tree
  in
  check_q "P[both flipped]" Q.half p_both;
  check_q "conditional probability 1/2 (not 1/4!)" Q.half
    (Q.div p_good p_both)

let test_event_next () =
  let open Test_support.Toys.Race in
  let next =
    Core.Event.next [ (Flip_p, p_heads); (Flip_q, q_tails) ]
  in
  (* Under the fair adversary P flips first: accept iff heads. *)
  check_q "next under fair" Q.half
    (Core.Exec_automaton.prob_exact next (race_tree fair_adversary));
  (* Proposition 4.2(2): bound is min(1/2, 1/2) = 1/2 under any
     adversary; the dependency adversary also attains 1/2. *)
  check_q "next under dependency" Q.half
    (Core.Exec_automaton.prob_exact next (race_tree dependency_adversary))

let test_event_next_duplicate_action () =
  let open Test_support.Toys.Race in
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Core.Event.next [ (Flip_p, p_heads); (Flip_p, q_tails) ]);
       false
     with Invalid_argument _ -> true)

let test_event_reach_within () =
  let open Test_support.Toys.Walker in
  (* Play the minimizing adversary by hand: tick, forced flip, ... *)
  let adv frag =
    let s = Core.Exec.lstate frag in
    match s with
    | Done -> None
    | Walk _ ->
      (match Core.Pa.enabled pa s with
       | [] -> None
       | steps ->
         (* Prefer ticking (delaying) when allowed. *)
         (match
            List.find_opt (fun st -> st.Core.Pa.action = Tick) steps
          with
          | Some t -> Some t
          | None -> List.nth_opt steps 0))
  in
  let tree = Core.Exec_automaton.unfold pa adv start ~max_depth:9 in
  let duration a = if is_tick a then 1 else 0 in
  let within t = Core.Event.reach ~duration done_ ~within:t in
  let lo1, _ = Core.Exec_automaton.prob_interval (within 1) tree in
  check_q "delayer: P[reach within 1] = 1/2" Q.half lo1;
  let lo2, _ = Core.Exec_automaton.prob_interval (within 2) tree in
  check_q "delayer: P[reach within 2] = 3/4" (Q.of_ints 3 4) lo2

let test_event_negate_disj () =
  let open Test_support.Toys.Race in
  let tree = race_tree fair_adversary in
  let first_p = Core.Event.first Flip_p p_heads in
  let not_p = Core.Event.negate first_p in
  check_q "negation" Q.half
    (Core.Exec_automaton.prob_exact not_p tree);
  let disj = Core.Event.disj first_p not_p in
  check_q "tautology" Q.one (Core.Exec_automaton.prob_exact disj tree)

let test_event_premise () =
  let open Test_support.Toys.Race in
  let states =
    [ start; { start with p = Heads }; { start with p = Tails };
      { start with q = Heads }; { start with q = Tails };
      { p = Heads; q = Heads }; { p = Heads; q = Tails };
      { p = Tails; q = Heads }; { p = Tails; q = Tails } ]
  in
  let pairs =
    [ (Flip_p, p_heads, Q.half); (Flip_q, q_tails, Q.half) ]
  in
  Alcotest.(check bool) "premise holds" true
    (Core.Event.check_premise pa ~states pairs);
  check_q "product bound" (Q.of_ints 1 4) (Core.Event.product_bound pairs);
  check_q "min bound" Q.half (Core.Event.min_bound pairs);
  let bad = [ (Flip_p, p_heads, Q.of_ints 2 3) ] in
  Alcotest.(check bool) "premise fails at 2/3" false
    (Core.Event.check_premise pa ~states bad)

let test_event_all_first () =
  (* On the cascade, each flip lands outside level 0 with probability
     exactly 1/2, so the premise of the power bound holds with p = 1/2. *)
  let open Test_support.Toys.Cascade in
  let up = Core.Pred.make "up" (fun s -> s <> Level 0) in
  let adv = Core.Adversary.first_enabled pa in
  let tree = Core.Exec_automaton.unfold pa adv (Level 0) ~max_depth:10 in
  let p count =
    Core.Exec_automaton.prob_exact
      (Core.Event.all_first ~count Flip up) tree
  in
  check_q "count 0 is trivially true" Q.one (p 0);
  check_q "count 1 = first" Q.half (p 1);
  (* Two flips in a row must go up: exactly 1/4 -- the power bound is
     tight here. *)
  check_q "count 2" (Q.of_ints 1 4) (p 2);
  check_q "power bound" (Q.of_ints 1 4)
    (Core.Event.power_bound Q.half 2);
  (* Only two flips can ever occur before the absorbing top, so
     all_first 3 degenerates to all_first 2 -- still above (1/2)^3. *)
  check_q "count 3 at most two occurrences" (Q.of_ints 1 4) (p 3);
  Alcotest.(check bool) "above the power bound" true
    (Q.geq (p 3) (Core.Event.power_bound Q.half 3))

let test_event_all_first_early_halt () =
  (* An adversary that stops scheduling after one flip: executions with
     fewer occurrences still count when all seen landed inside. *)
  let open Test_support.Toys.Cascade in
  let up = Core.Pred.make "up" (fun s -> s <> Level 0) in
  let adv = Core.Adversary.cutoff 1 (Core.Adversary.first_enabled pa) in
  let tree = Core.Exec_automaton.unfold pa adv (Level 0) ~max_depth:10 in
  check_q "one occurrence decides"
    Q.half
    (Core.Exec_automaton.prob_exact
       (Core.Event.all_first ~count:2 Flip up) tree);
  Alcotest.(check bool) "still above p^2" true
    (Q.geq Q.half (Core.Event.power_bound Q.half 2))

let test_event_all_first_validation () =
  Alcotest.(check bool) "negative count rejected" true
    (try
       ignore
         (Core.Event.all_first ~count:(-1) Test_support.Toys.Cascade.Flip
            (Core.Pred.make "x" (fun _ -> true)));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Claim: replicate the paper's composition arithmetic on abstract
   state-set names. *)

type phase = T | RT | F | G | P | C [@@warning "-37"]

let pred_t = Core.Pred.make "T" (fun s -> s = T)
let pred_rtc = Core.Pred.make "RT ∪ C" (fun s -> s = RT || s = C)
let pred_fgp = Core.Pred.make "F ∪ G ∪ P" (fun s -> s = F || s = G || s = P)
let pred_gp = Core.Pred.make "G ∪ P" (fun s -> s = G || s = P)
let pred_p = Core.Pred.make "P" (fun s -> s = P)
let pred_c = Core.Pred.make "C" (fun s -> s = C)

let schema = Core.Schema.unit_time

let axiom ~pre ~post ~time ~prob =
  Core.Claim.axiom ~reason:"test" ~schema ~pre ~post
    ~time:(Q.of_int time) ~prob ()

let test_claim_accessors () =
  let c = axiom ~pre:pred_t ~post:pred_c ~time:13 ~prob:(Q.of_ints 1 8) in
  Alcotest.(check string) "pre" "T" (Core.Pred.name (Core.Claim.pre c));
  Alcotest.(check string) "post" "C" (Core.Pred.name (Core.Claim.post c));
  check_q "time" (Q.of_int 13) (Core.Claim.time c);
  check_q "prob" (Q.of_ints 1 8) (Core.Claim.prob c);
  Alcotest.(check bool) "axiom not verified" false
    (Core.Claim.fully_verified c)

let test_claim_validation () =
  Alcotest.(check bool) "bad prob" true
    (try ignore (axiom ~pre:pred_t ~post:pred_c ~time:1 ~prob:(Q.of_int 2));
       false
     with Core.Claim.Rule_violation _ -> true);
  Alcotest.(check bool) "bad time" true
    (try
       ignore
         (Core.Claim.checked ~evidence:"x" ~schema ~pre:pred_t ~post:pred_c
            ~time:(Q.of_int (-1)) ~prob:Q.half ());
       false
     with Core.Claim.Rule_violation _ -> true)

(* The five phases with the paper's constants; posts are named to match
   the next pre exactly, as the paper does via Proposition 3.2. *)
let phase_chain () =
  [ axiom ~pre:pred_t ~post:pred_rtc ~time:2 ~prob:Q.one;
    axiom ~pre:pred_rtc ~post:pred_fgp ~time:3 ~prob:Q.one;
    axiom ~pre:pred_fgp ~post:pred_gp ~time:2 ~prob:Q.half;
    axiom ~pre:pred_gp ~post:pred_p ~time:5 ~prob:(Q.of_ints 1 4);
    axiom ~pre:pred_p ~post:pred_c ~time:1 ~prob:Q.one ]

let test_claim_compose_chain () =
  let composed = Core.Claim.compose_all (phase_chain ()) in
  check_q "time 13" (Q.of_int 13) (Core.Claim.time composed);
  check_q "prob 1/8" (Q.of_ints 1 8) (Core.Claim.prob composed);
  Alcotest.(check string) "pre T" "T" (Core.Pred.name (Core.Claim.pre composed));
  Alcotest.(check string) "post C" "C" (Core.Pred.name (Core.Claim.post composed))

let test_claim_compose_mismatch () =
  let c1 = axiom ~pre:pred_t ~post:pred_rtc ~time:2 ~prob:Q.one in
  let c2 = axiom ~pre:pred_gp ~post:pred_p ~time:5 ~prob:Q.half in
  Alcotest.(check bool) "name mismatch rejected" true
    (try ignore (Core.Claim.compose c1 c2); false
     with Core.Claim.Rule_violation _ -> true)

let test_claim_compose_needs_closure () =
  let open_schema = Core.Schema.make ~execution_closed:false "Open" in
  let mk pre post =
    Core.Claim.axiom ~reason:"test" ~schema:open_schema ~pre ~post
      ~time:Q.one ~prob:Q.one ()
  in
  let c1 = mk pred_t pred_rtc in
  let c2 = mk pred_rtc pred_c in
  Alcotest.(check bool) "closure required" true
    (try ignore (Core.Claim.compose c1 c2); false
     with Core.Claim.Rule_violation _ -> true)

let test_claim_compose_schema_mismatch () =
  let other = Core.Schema.make ~execution_closed:true "Other" in
  let c1 = axiom ~pre:pred_t ~post:pred_rtc ~time:2 ~prob:Q.one in
  let c2 =
    Core.Claim.axiom ~reason:"test" ~schema:other ~pre:pred_rtc ~post:pred_c
      ~time:Q.one ~prob:Q.one ()
  in
  Alcotest.(check bool) "schema mismatch rejected" true
    (try ignore (Core.Claim.compose c1 c2); false
     with Core.Claim.Rule_violation _ -> true)

let test_claim_union () =
  (* Proposition 3.2 as used in the paper: P -1-> C lifts along union. *)
  let c = axiom ~pre:pred_p ~post:pred_c ~time:1 ~prob:Q.one in
  let u = Core.Claim.union c pred_rtc in
  Alcotest.(check string) "pre union" "P ∪ RT ∪ C"
    (Core.Pred.name (Core.Claim.pre u));
  check_q "time preserved" Q.one (Core.Claim.time u);
  check_q "prob preserved" Q.one (Core.Claim.prob u);
  Alcotest.(check bool) "post membership" true
    (Core.Pred.mem (Core.Claim.post u) RT)

let test_claim_weaken_relax () =
  let c = axiom ~pre:pred_t ~post:pred_c ~time:13 ~prob:Q.half in
  let w = Core.Claim.weaken_prob c (Q.of_ints 1 8) in
  check_q "weakened" (Q.of_ints 1 8) (Core.Claim.prob w);
  Alcotest.(check bool) "cannot strengthen" true
    (try ignore (Core.Claim.weaken_prob c (Q.of_ints 3 4)); false
     with Core.Claim.Rule_violation _ -> true);
  let r = Core.Claim.relax_time c (Q.of_int 20) in
  check_q "relaxed" (Q.of_int 20) (Core.Claim.time r);
  Alcotest.(check bool) "cannot tighten" true
    (try ignore (Core.Claim.relax_time c (Q.of_int 5)); false
     with Core.Claim.Rule_violation _ -> true)

let test_claim_inclusion_rules () =
  let states = [ T; RT; F; G; P; C ] in
  let c = axiom ~pre:pred_fgp ~post:pred_gp ~time:2 ~prob:Q.half in
  (match Core.Inclusion.verify ~states pred_p pred_fgp with
   | None -> Alcotest.fail "inclusion should verify"
   | Some incl ->
     let s = Core.Claim.strengthen_pre c incl in
     Alcotest.(check string) "strengthened pre" "P"
       (Core.Pred.name (Core.Claim.pre s)));
  (match Core.Inclusion.verify ~states pred_gp pred_fgp with
   | None -> Alcotest.fail "inclusion should verify"
   | Some incl ->
     let w = Core.Claim.weaken_post c incl in
     Alcotest.(check string) "weakened post" "F ∪ G ∪ P"
       (Core.Pred.name (Core.Claim.post w)));
  Alcotest.(check bool) "wrong inclusion rejected" true
    (try
       ignore (Core.Claim.strengthen_pre c (Core.Inclusion.refl pred_p));
       false
     with Core.Claim.Rule_violation _ -> true)

let test_claim_trivial () =
  let incl = Core.Inclusion.in_union_left pred_p pred_c in
  let c = Core.Claim.trivial ~schema incl in
  check_q "zero time" Q.zero (Core.Claim.time c);
  check_q "prob one" Q.one (Core.Claim.prob c);
  Alcotest.(check bool) "verified" true (Core.Claim.fully_verified c)

let test_claim_fully_verified () =
  let checked =
    Core.Claim.checked ~evidence:"model checker" ~schema ~pre:pred_t
      ~post:pred_c ~time:Q.one ~prob:Q.half ()
  in
  Alcotest.(check bool) "checked verified" true
    (Core.Claim.fully_verified checked);
  let mixed =
    Core.Claim.compose
      (Core.Claim.checked ~evidence:"mc" ~schema ~pre:pred_t ~post:pred_rtc
         ~time:Q.one ~prob:Q.one ())
      (Core.Claim.axiom ~reason:"pen and paper" ~schema ~pre:pred_rtc
         ~post:pred_c ~time:Q.one ~prob:Q.one ())
  in
  Alcotest.(check bool) "axiom taints" false (Core.Claim.fully_verified mixed)

let test_claim_pp () =
  let c = axiom ~pre:pred_t ~post:pred_c ~time:13 ~prob:(Q.of_ints 1 8) in
  let s = Format.asprintf "%a" Core.Claim.pp c in
  Alcotest.(check bool) "mentions sets" true
    (Astring.String.is_infix ~affix:"T" s
     && Astring.String.is_infix ~affix:"1/8" s);
  let composed = Core.Claim.compose_all (phase_chain ()) in
  let tree = Format.asprintf "%a" Core.Claim.pp_derivation composed in
  Alcotest.(check bool) "derivation mentions Theorem 3.4" true
    (Astring.String.is_infix ~affix:"Theorem 3.4" tree)

(* ------------------------------------------------------------------ *)
(* Expected *)

let test_expected_paper_recurrence () =
  (* V = 1/8*10 + 1/2*(5 + V) + 3/8*(10 + V)  =>  E[V] = 60 *)
  let b prob time loops =
    Core.Expected.branch ~prob ~time:(Q.of_int time) ~loops
  in
  let v =
    Core.Expected.solve_loop ~label:"RT to P"
      [ b (Q.of_ints 1 8) 10 false;
        b Q.half 5 true;
        b (Q.of_ints 3 8) 10 true ]
  in
  check_q "E[V] = 60" (Q.of_int 60) (Core.Expected.value v);
  let total =
    Core.Expected.sum ~label:"T to C"
      [ Core.Expected.constant ~label:"T to RT" (Q.of_int 2);
        v;
        Core.Expected.constant ~label:"P to C" (Q.of_int 1) ]
  in
  check_q "total 63" (Q.of_int 63) (Core.Expected.value total)

let test_expected_validation () =
  let b prob time loops = Core.Expected.branch ~prob ~time ~loops in
  Alcotest.(check bool) "probs must sum to 1" true
    (try
       ignore
         (Core.Expected.solve_loop ~label:"bad"
            [ b Q.half Q.one false ]);
       false
     with Core.Expected.Ill_formed _ -> true);
  Alcotest.(check bool) "loop prob < 1" true
    (try
       ignore
         (Core.Expected.solve_loop ~label:"bad" [ b Q.one Q.one true ]);
       false
     with Core.Expected.Ill_formed _ -> true);
  Alcotest.(check bool) "negative time" true
    (try
       ignore
         (Core.Expected.solve_loop ~label:"bad"
            [ b Q.one (Q.of_int (-1)) false ]);
       false
     with Core.Expected.Ill_formed _ -> true)

let test_expected_of_claim () =
  let c = axiom ~pre:pred_t ~post:pred_c ~time:13 ~prob:(Q.of_ints 1 8) in
  check_q "t/p = 104" (Q.of_int 104)
    (Core.Expected.value (Core.Expected.of_claim c))

let test_expected_non_dyadic () =
  (* The recurrence solver is general rational, not only dyadic:
     E = (1/3 * 6) / (1 - 2/3) = 6. *)
  let b prob time loops = Core.Expected.branch ~prob ~time ~loops in
  let v =
    Core.Expected.solve_loop ~label:"thirds"
      [ b (Q.of_ints 1 3) (Q.of_int 6) false;
        b (Q.of_ints 2 3) (Q.of_int 6) true ]
  in
  check_q "E = 18" (Q.of_int 18) (Core.Expected.value v)

let test_expected_pp () =
  let v = Core.Expected.constant ~label:"x" (Q.of_int 3) in
  let s = Format.asprintf "%a" Core.Expected.pp v in
  Alcotest.(check bool) "prints value" true
    (Astring.String.is_infix ~affix:"3" s)

(* ------------------------------------------------------------------ *)
(* Timed *)

let test_timed_within () =
  Alcotest.(check int) "13 units at g=1" 13
    (Core.Timed.within ~granularity:1 ~time:(Q.of_int 13));
  Alcotest.(check int) "13 units at g=4" 52
    (Core.Timed.within ~granularity:4 ~time:(Q.of_int 13));
  Alcotest.(check int) "1/2 unit at g=2" 1
    (Core.Timed.within ~granularity:2 ~time:Q.half);
  Alcotest.(check bool) "non-integral rejected" true
    (try ignore (Core.Timed.within ~granularity:1 ~time:Q.half); false
     with Invalid_argument _ -> true)

let test_timed_patient () =
  let m = Core.Timed.patient Test_support.Toys.Choice.pa in
  let steps = Core.Pa.enabled m Test_support.Toys.Choice.S0 in
  Alcotest.(check int) "tick plus two" 3 (List.length steps);
  (* Terminal states of the base automaton gain a tick self-loop. *)
  Alcotest.(check int) "tick at terminal" 1
    (List.length (Core.Pa.enabled m Test_support.Toys.Choice.S1));
  let tick =
    List.find (fun s -> s.Core.Pa.action = Core.Timed.Tick) steps
  in
  Alcotest.(check bool) "tick preserves state" true
    (Proba.Dist.is_point tick.Core.Pa.dist = Some Test_support.Toys.Choice.S0);
  Alcotest.(check bool) "tick is internal" false
    (Core.Pa.is_external m Core.Timed.Tick)

let test_timed_elapsed () =
  let f = Core.Exec.initial 0 in
  let f = Core.Exec.snoc f Core.Timed.Tick 0 in
  let f = Core.Exec.snoc f (Core.Timed.Act "x") 1 in
  let f = Core.Exec.snoc f Core.Timed.Tick 1 in
  Alcotest.(check int) "two ticks" 2 (Core.Timed.elapsed_slots f)

(* ------------------------------------------------------------------ *)
(* A hand-built parallel composition *)

let test_compose_three_walkers () =
  (* Three clocked walkers synchronizing on Tick: the composed system
     is a 3-process timed system; the minimum probability that all
     finish within one time unit is (1/2)^3. *)
  let open Test_support.Toys in
  let arena = Mdp.Arena.of_pa ~is_tick:Walker.is_tick Three_walkers.pa in
  let target = Mdp.Arena.indicator arena Three_walkers.all_done in
  let v = Mdp.Finite_horizon.min_reach arena ~target ~ticks:1 in
  let start_i = List.hd (Mdp.Arena.start_indices arena) in
  check_q "min P[all done within 1] = 1/8" (Q.of_ints 1 8) v.(start_i);
  let vmax = Mdp.Finite_horizon.max_reach arena ~target ~ticks:1 in
  check_q "max P[all done within 1] = (3/4)^3" (Q.of_ints 27 64)
    vmax.(start_i)

(* ------------------------------------------------------------------ *)
(* Schema / Inclusion *)

let test_schema () =
  Alcotest.(check bool) "unit_time closed" true
    (Core.Schema.execution_closed Core.Schema.unit_time);
  Alcotest.(check string) "name" "Unit-Time"
    (Core.Schema.name Core.Schema.unit_time);
  Alcotest.(check bool) "same" true
    (Core.Schema.same Core.Schema.all Core.Schema.all);
  Alcotest.(check bool) "distinct" false
    (Core.Schema.same Core.Schema.all Core.Schema.unit_time)

let test_inclusion () =
  let states = [ 1; 2; 3; 4 ] in
  (match Core.Inclusion.verify ~states even small with
   | Some incl ->
     Alcotest.(check bool) "not axiom" false (Core.Inclusion.is_axiom incl)
   | None -> Alcotest.fail "even ⊆ small on 1..4");
  Alcotest.(check bool) "counterexample found" true
    (Core.Inclusion.verify ~states:[ 12 ] even small = None);
  let ax = Core.Inclusion.axiom ~reason:"because" even small in
  Alcotest.(check bool) "axiom flagged" true (Core.Inclusion.is_axiom ax)

(* ------------------------------------------------------------------ *)
(* Property tests *)

let gen_frag =
  (* Random integer-labelled fragments driven by a seed. *)
  QCheck.make
    ~print:(fun (seed, len) -> Printf.sprintf "seed=%d len=%d" seed len)
    QCheck.Gen.(pair (int_range 0 10_000) (int_range 0 12))

let build_frag (seed, len) =
  let rng = Proba.Rng.create ~seed in
  let rec go frag n =
    if n = 0 then frag
    else
      go
        (Core.Exec.snoc frag (Proba.Rng.int rng 5) (Proba.Rng.int rng 100))
        (n - 1)
  in
  go (Core.Exec.initial (Proba.Rng.int rng 100)) len

let prop_exec_concat_assoc =
  QCheck.Test.make ~name:"exec concat is associative" ~count:200
    (QCheck.triple gen_frag gen_frag gen_frag) (fun (a, b, c) ->
        let a = build_frag a in
        (* Force endpoints to meet by re-rooting b and c. *)
        let reroot at frag =
          Core.Exec.fold
            (fun acc act st -> Core.Exec.snoc acc act st)
            (Core.Exec.initial at) frag
        in
        let b = reroot (Core.Exec.lstate a) (build_frag b) in
        let c = reroot (Core.Exec.lstate b) (build_frag c) in
        let lhs = Core.Exec.concat (Core.Exec.concat a b) c in
        let rhs = Core.Exec.concat a (Core.Exec.concat b c) in
        Core.Exec.states lhs = Core.Exec.states rhs
        && Core.Exec.actions lhs = Core.Exec.actions rhs)

let prop_exec_prefix_roundtrip =
  QCheck.Test.make ~name:"exec drop_prefix inverts concat" ~count:200
    (QCheck.pair gen_frag gen_frag) (fun (a, b) ->
        let a = build_frag a in
        let b =
          Core.Exec.fold
            (fun acc act st -> Core.Exec.snoc acc act st)
            (Core.Exec.initial (Core.Exec.lstate a))
            (build_frag b)
        in
        let whole = Core.Exec.concat a b in
        Core.Exec.is_prefix a whole
        && (match Core.Exec.drop_prefix a whole with
            | Some suffix ->
              Core.Exec.states suffix = Core.Exec.states b
              && Core.Exec.actions suffix = Core.Exec.actions b
            | None -> false))

let prop_exec_length_adds =
  QCheck.Test.make ~name:"exec concat adds lengths" ~count:200
    (QCheck.pair gen_frag gen_frag) (fun (a, b) ->
        let a = build_frag a in
        let b =
          Core.Exec.fold
            (fun acc act st -> Core.Exec.snoc acc act st)
            (Core.Exec.initial (Core.Exec.lstate a))
            (build_frag b)
        in
        Core.Exec.length (Core.Exec.concat a b)
        = Core.Exec.length a + Core.Exec.length b)

(* Event schemas must be monotone: a verdict reached on a prefix
   persists on every extension. *)
let prop_event_first_monotone =
  QCheck.Test.make ~name:"event first is monotone along executions"
    ~count:300
    (QCheck.int_range 0 100_000) (fun seed ->
        let open Test_support.Toys.Race in
        let rng = Proba.Rng.create ~seed in
        let sched = Sim.Scheduler.uniform pa in
        let outcome =
          Sim.Engine.run pa sched ~rng ~stop:(fun _ -> false) ~max_steps:4
            start
        in
        let frag = outcome.Sim.Engine.frag in
        let ev = Core.Event.first Flip_q q_tails in
        (* Walk all prefixes: once decided, the verdict is stable. *)
        let steps = Core.Exec.steps frag in
        let rec check prefix verdict = function
          | [] -> true
          | (a, st) :: rest ->
            let prefix = Core.Exec.snoc prefix a st in
            let v = Core.Event.decide ev ~maximal:false prefix in
            (match verdict, v with
             | Core.Event.Accept, x -> x = Core.Event.Accept
             | Core.Event.Reject, x -> x = Core.Event.Reject
             | Core.Event.Undecided, _ -> true)
            && check prefix v rest
        in
        check (Core.Exec.initial (Core.Exec.fstate frag))
          Core.Event.Undecided steps)

let prop_claim_compose_arithmetic =
  QCheck.Test.make ~name:"compose multiplies probs and adds times"
    ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6)
       (QCheck.pair (QCheck.int_range 0 20)
          (QCheck.pair (QCheck.int_range 0 8) (QCheck.int_range 1 8))))
    (fun specs ->
       QCheck.assume (specs <> []);
       let preds =
         List.init (List.length specs + 1) (fun i ->
             Core.Pred.make (Printf.sprintf "U%d" i) (fun (_ : int) -> true))
       in
       let claims =
         List.mapi
           (fun i (t, (num, den_extra)) ->
              let den = num + den_extra in
              Core.Claim.axiom ~reason:"fuzz" ~schema:Core.Schema.unit_time
                ~pre:(List.nth preds i)
                ~post:(List.nth preds (i + 1))
                ~time:(Q.of_int t)
                ~prob:(Q.of_ints num den) ())
           specs
       in
       let composed = Core.Claim.compose_all claims in
       let expected_time =
         Q.of_int (List.fold_left (fun acc (t, _) -> acc + t) 0 specs)
       in
       let expected_prob =
         List.fold_left
           (fun acc (_, (num, den_extra)) ->
              Q.mul acc (Q.of_ints num (num + den_extra)))
           Q.one specs
       in
       Q.equal (Core.Claim.time composed) expected_time
       && Q.equal (Core.Claim.prob composed) expected_prob)

let prop_dist_product_marginals =
  QCheck.Test.make ~name:"dist product has correct marginals" ~count:200
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 1 5) QCheck.small_nat)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 5) QCheck.small_nat))
    (fun (xs, ys) ->
       QCheck.assume (xs <> [] && ys <> []);
       let dx = D.uniform xs and dy = D.uniform ys in
       let p = D.product dx dy in
       List.for_all
         (fun (x, wx) ->
            Q.equal wx (D.prob p (fun (x', _) -> x' = x)))
         (D.support dx)
       && List.for_all
         (fun (y, wy) ->
            Q.equal wy (D.prob p (fun (_, y') -> y' = y)))
         (D.support dy))

let prop_tree_mass_one =
  QCheck.Test.make ~name:"execution automata carry total mass 1"
    ~count:100 (QCheck.int_range 0 100_000) (fun seed ->
        let open Test_support.Toys.Race in
        (* A history-dependent adversary derived from the seed. *)
        let rng = Proba.Rng.create ~seed in
        let flips = Array.init 8 (fun _ -> Proba.Rng.bool rng) in
        let adv frag =
          let n = Core.Exec.length frag in
          if n >= 2 then None
          else begin
            let s = Core.Exec.lstate frag in
            let steps = Core.Pa.enabled pa s in
            match steps with
            | [] -> None
            | [ only ] -> Some only
            | first :: second :: _ ->
              Some (if flips.(n) then first else second)
          end
        in
        let tree = Core.Exec_automaton.unfold pa adv start ~max_depth:5 in
        Q.equal Q.one (Core.Exec_automaton.total_mass tree))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "core"
    [ ("pred",
       [ Alcotest.test_case "basic" `Quick test_pred_basic;
         Alcotest.test_case "algebra" `Quick test_pred_algebra;
         Alcotest.test_case "same" `Quick test_pred_same ]);
      ("exec",
       [ Alcotest.test_case "basic" `Quick test_exec_basic;
         Alcotest.test_case "initial" `Quick test_exec_initial;
         Alcotest.test_case "concat" `Quick test_exec_concat;
         Alcotest.test_case "prefix" `Quick test_exec_prefix;
         Alcotest.test_case "total_time" `Quick test_exec_total_time;
         Alcotest.test_case "find/fold" `Quick test_exec_find_fold ]);
      ("pa",
       [ Alcotest.test_case "basic" `Quick test_pa_basic;
         Alcotest.test_case "empty start" `Quick test_pa_empty_start ]);
      ("adversary",
       [ Alcotest.test_case "first_enabled" `Quick
           test_adversary_first_enabled;
         Alcotest.test_case "halt/cutoff" `Quick test_adversary_halt_cutoff;
         Alcotest.test_case "by_priority" `Quick test_adversary_by_priority;
         Alcotest.test_case "shift (execution closure)" `Quick
           test_adversary_shift;
         Alcotest.test_case "well_formed" `Quick test_adversary_well_formed ]);
      ("exec-automaton",
       [ Alcotest.test_case "measure" `Quick test_exec_automaton_measure;
         Alcotest.test_case "leaves" `Quick test_exec_automaton_leaves;
         Alcotest.test_case "truncation" `Quick
           test_exec_automaton_truncation ]);
      ("event",
       [ Alcotest.test_case "first under dependency adversary" `Quick
           test_event_first_dependency;
         Alcotest.test_case "first under fair adversary" `Quick
           test_event_first_fair;
         Alcotest.test_case "naive conditional dependence" `Quick
           test_event_naive_dependence;
         Alcotest.test_case "next" `Quick test_event_next;
         Alcotest.test_case "next duplicates" `Quick
           test_event_next_duplicate_action;
         Alcotest.test_case "reach within time" `Quick
           test_event_reach_within;
         Alcotest.test_case "negate/disj" `Quick test_event_negate_disj;
         Alcotest.test_case "Proposition 4.2 premise" `Quick
           test_event_premise;
         Alcotest.test_case "all_first (new schema)" `Quick
           test_event_all_first;
         Alcotest.test_case "all_first early halt" `Quick
           test_event_all_first_early_halt;
         Alcotest.test_case "all_first validation" `Quick
           test_event_all_first_validation ]);
      ("claim",
       [ Alcotest.test_case "accessors" `Quick test_claim_accessors;
         Alcotest.test_case "validation" `Quick test_claim_validation;
         Alcotest.test_case "compose chain (13, 1/8)" `Quick
           test_claim_compose_chain;
         Alcotest.test_case "compose mismatch" `Quick
           test_claim_compose_mismatch;
         Alcotest.test_case "compose needs closure" `Quick
           test_claim_compose_needs_closure;
         Alcotest.test_case "compose schema mismatch" `Quick
           test_claim_compose_schema_mismatch;
         Alcotest.test_case "union (Prop 3.2)" `Quick test_claim_union;
         Alcotest.test_case "weaken/relax" `Quick test_claim_weaken_relax;
         Alcotest.test_case "inclusion rules" `Quick
           test_claim_inclusion_rules;
         Alcotest.test_case "trivial" `Quick test_claim_trivial;
         Alcotest.test_case "fully_verified" `Quick
           test_claim_fully_verified;
         Alcotest.test_case "printing" `Quick test_claim_pp ]);
      ("expected",
       [ Alcotest.test_case "paper recurrence (60, 63)" `Quick
           test_expected_paper_recurrence;
         Alcotest.test_case "validation" `Quick test_expected_validation;
         Alcotest.test_case "of_claim" `Quick test_expected_of_claim;
         Alcotest.test_case "non-dyadic recurrence" `Quick
           test_expected_non_dyadic;
         Alcotest.test_case "printing" `Quick test_expected_pp ]);
      ("timed",
       [ Alcotest.test_case "within" `Quick test_timed_within;
         Alcotest.test_case "patient" `Quick test_timed_patient;
         Alcotest.test_case "elapsed" `Quick test_timed_elapsed ]);
      ("compose",
       [ Alcotest.test_case "three walkers" `Quick
           test_compose_three_walkers ]);
      ("schema/inclusion",
       [ Alcotest.test_case "schema" `Quick test_schema;
         Alcotest.test_case "inclusion" `Quick test_inclusion ]);
      qsuite "core-props"
        [ prop_exec_concat_assoc; prop_exec_prefix_roundtrip;
          prop_exec_length_adds; prop_event_first_monotone;
          prop_claim_compose_arithmetic; prop_dist_product_marginals;
          prop_tree_mass_one ] ]
