(* Tests for the leader-election case study. *)

module Q = Proba.Rational
module IR = Itai_rodeh
module Au = IR.Automaton

let rational = Alcotest.testable Q.pp Q.equal
let check_q = Alcotest.check rational

let params n = { Au.n; g = 1; k = 1 }

let test_start () =
  let s = Au.start (params 4) in
  Alcotest.(check int) "all active" 4 (Au.actives s);
  Alcotest.(check bool) "no leader yet" false (Au.leader_elected s)

let test_actives_and_leader () =
  let s = [| Au.Inactive; Au.Flipped true; Au.Need_flip { c = 1; b = 1 } |] in
  Alcotest.(check int) "two active" 2 (Au.actives s);
  let s = [| Au.Inactive; Au.Inactive; Au.Flipped false |] in
  Alcotest.(check bool) "leader" true (Au.leader_elected s)

let test_at_most () =
  let s = [| Au.Inactive; Au.Flipped true; Au.Need_flip { c = 1; b = 1 } |] in
  Alcotest.(check bool) "at_most 2" true (Core.Pred.mem (Au.at_most 2) s);
  Alcotest.(check bool) "not at_most 1" false (Core.Pred.mem (Au.at_most 1) s);
  Alcotest.(check bool) "at_most 3" true (Core.Pred.mem (Au.at_most 3) s)

let test_bad_params () =
  Alcotest.(check bool) "n=1 rejected" true
    (try ignore (Au.make { Au.n = 1; g = 1; k = 1 }); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "g=0 rejected" true
    (try ignore (Au.make { Au.n = 2; g = 0; k = 1 }); false
     with Invalid_argument _ -> true)

let test_round_resolution () =
  (* Drive the automaton by hand: two processes, flip both, observe the
     resolution folded into the last flip. *)
  let pa = Au.make (params 2) in
  let s0 = Au.start (params 2) in
  let flip0 =
    List.find
      (fun st -> st.Core.Pa.action = Au.Flip 0)
      (Core.Pa.enabled pa s0)
  in
  List.iter
    (fun (s1, _) ->
       (* After one flip the round is still open. *)
       Alcotest.(check int) "still 2 active" 2 (Au.actives s1);
       let flip1 =
         List.find
           (fun st -> st.Core.Pa.action = Au.Flip 1)
           (Core.Pa.enabled pa s1)
       in
       List.iter
         (fun (s2, _) ->
            (* Resolution happened: either a leader (one head) or a
               fresh two-process round (same bits). *)
            if Au.leader_elected s2 then ()
            else begin
              Alcotest.(check int) "both survive" 2 (Au.actives s2);
              Alcotest.(check bool) "fresh round, budget exhausted" true
                (Array.for_all
                   (function
                     | Au.Need_flip { b; _ } -> b = 0
                     | Au.Inactive | Au.Flipped _ -> false)
                   s2)
            end)
         (Proba.Dist.support flip1.Core.Pa.dist))
    (Proba.Dist.support flip0.Core.Pa.dist)

let test_leader_absorbing () =
  let pa = Au.make (params 2) in
  let leader = [| Au.Need_flip { c = 1; b = 0 }; Au.Inactive |] in
  match Core.Pa.enabled pa leader with
  | [ { Core.Pa.action = Au.Tick; dist } ] ->
    Alcotest.(check bool) "self loop" true
      (Proba.Dist.is_point dist = Some leader)
  | _ -> Alcotest.fail "leader state should only tick"

let test_zeno_well_formed () =
  let inst = IR.Proof.build ~n:4 () in
  Alcotest.(check bool) "encoding is zeno-free" true
    (Mdp.Zeno.is_well_formed inst.IR.Proof.arena)

let test_state_counts () =
  let count n =
    Mdp.Explore.num_states (IR.Proof.build ~n ()).IR.Proof.expl
  in
  Alcotest.(check int) "n=2" 13 (count 2);
  Alcotest.(check int) "n=3" 60 (count 3);
  Alcotest.(check int) "n=4" 251 (count 4);
  Alcotest.(check int) "n=5" 1018 (count 5)

let test_arrows () =
  List.iter
    (fun n ->
       let inst = IR.Proof.build ~n () in
       let arrows = IR.Proof.arrows inst in
       Alcotest.(check int) "n-1 rungs" (n - 1) (List.length arrows);
       List.iter
         (fun a ->
            Alcotest.(check bool)
              (Printf.sprintf "n=%d %s holds" n a.Mdp.Checker.label)
              true (a.Mdp.Checker.claim <> None);
            Alcotest.(check bool) "attained >= 1/2" true
              (Q.geq a.Mdp.Checker.attained Q.half))
         arrows)
    [ 2; 3; 4 ]

let test_worst_rung_is_half () =
  (* The bottom rung (2 -> 1) is exactly 1/2: one coin decides. *)
  let inst = IR.Proof.build ~n:3 () in
  let bottom =
    List.find (fun a -> a.Mdp.Checker.label = "L2") (IR.Proof.arrows inst)
  in
  check_q "exactly 1/2" Q.half bottom.Mdp.Checker.attained

let test_composed () =
  let inst = IR.Proof.build ~n:4 () in
  match IR.Proof.composed inst with
  | Error e -> Alcotest.failf "composition failed: %s" e
  | Ok claim ->
    check_q "time n-1" (Q.of_int 3) (Core.Claim.time claim);
    check_q "prob 2^-(n-1)" (Q.of_ints 1 8) (Core.Claim.prob claim);
    Alcotest.(check bool) "verified" true (Core.Claim.fully_verified claim)

let test_direct_bound () =
  let inst = IR.Proof.build ~n:3 () in
  (* Pinned from the exact checker: the direct bound beats the composed
     2^-(n-1) = 1/4. *)
  check_q "direct 7/16" (Q.of_ints 7 16) (IR.Proof.direct_bound inst);
  Alcotest.(check bool) "beats composed" true
    (Q.geq (IR.Proof.direct_bound inst) (Q.of_ints 1 4))

let test_expected_bound () =
  check_q "2(n-1) at n=5" (Q.of_int 8)
    (Core.Expected.value (IR.Proof.expected_bound ~n:5));
  let inst = IR.Proof.build ~n:4 () in
  let measured = IR.Proof.max_expected_time inst in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f below bound 6" measured)
    true (measured < 6.0)

let test_liveness () =
  let inst = IR.Proof.build ~n:4 () in
  Alcotest.(check bool) "almost-sure election" true
    (IR.Proof.liveness_holds inst)

let test_simulation_agrees () =
  (* Monte Carlo election times stay below the derived bound. *)
  let p = params 6 in
  let pa = Au.make p in
  let setup =
    { Sim.Monte_carlo.pa;
      scheduler = Sim.Scheduler.uniform pa;
      duration = Au.duration;
      start = Au.start p }
  in
  let summary, missed =
    Sim.Monte_carlo.estimate_time setup ~target:Au.leader_elected
      ~trials:500 ~seed:5 ()
  in
  Alcotest.(check int) "no missed" 0 missed;
  Alcotest.(check bool) "mean below 2(n-1)" true
    (Proba.Stat.Summary.mean summary < 10.0)

let () =
  Alcotest.run "itai-rodeh"
    [ ("automaton",
       [ Alcotest.test_case "start" `Quick test_start;
         Alcotest.test_case "actives/leader" `Quick test_actives_and_leader;
         Alcotest.test_case "at_most" `Quick test_at_most;
         Alcotest.test_case "bad params" `Quick test_bad_params;
         Alcotest.test_case "round resolution" `Quick test_round_resolution;
         Alcotest.test_case "leader absorbing" `Quick test_leader_absorbing;
         Alcotest.test_case "state counts" `Quick test_state_counts;
         Alcotest.test_case "zeno-free" `Quick test_zeno_well_formed ]);
      ("proof",
       [ Alcotest.test_case "rungs hold (n=2..4)" `Quick test_arrows;
         Alcotest.test_case "bottom rung exactly 1/2" `Quick
           test_worst_rung_is_half;
         Alcotest.test_case "composed (n-1, 2^-(n-1))" `Quick test_composed;
         Alcotest.test_case "direct bound" `Quick test_direct_bound;
         Alcotest.test_case "expected bound" `Quick test_expected_bound;
         Alcotest.test_case "liveness" `Quick test_liveness;
         Alcotest.test_case "simulation agrees" `Quick
           test_simulation_agrees ]) ]
