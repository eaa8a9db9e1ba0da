(* Fourth case study: Ben-Or's randomized consensus, over a genuine
   asynchronous message-passing substrate.

   Run with:  dune exec examples/consensus.exe

   Three processes, one crash fault allowed, binary values.  The
   adversary schedules every step, chooses which n-f messages each
   process acts on, and when (if ever) to crash a process.  The paper's
   kind of analysis, machine-checked:

   - agreement and validity hold on EVERY schedule and crash pattern
     (exhaustive invariant sweep);
   - from a unanimous start, Init -3->_1 Decided: one round suffices,
     surely, under every adversary;
   - from a mixed start, any single round can be blocked (min = 0 --
     the FLP impossibility casting its shadow), but no schedule
     survives the coins for two rounds: Init -6->_{1/8} Decided,
     attained exactly. *)

module Q = Proba.Rational
module BO = Ben_or

let show name inst rounds =
  Printf.printf "-- %s --\n" name;
  Printf.printf "reachable states (all schedules, crashes, coins): %d\n"
    (Mdp.Explore.num_states inst.BO.Proof.expl);
  (match BO.Proof.agreement_violation inst with
   | None -> print_endline "agreement: holds on every reachable state"
   | Some _ -> print_endline "agreement: VIOLATED");
  (match BO.Proof.validity_violation inst with
   | None -> print_endline "validity:  holds"
   | Some _ -> print_endline "validity:  VIOLATED");
  List.iter
    (fun r ->
       let curve = BO.Proof.decision_curve inst ~rounds:[ r ] in
       Printf.printf "min P[some process decides within %d round(s)] = %s\n"
         r
         (Q.to_string (List.hd curve)))
    rounds;
  print_newline ()

let () =
  print_endline "== Ben-Or randomized consensus, n = 3, f = 1 ==\n";
  let unanimous =
    BO.Proof.build ~n:3 ~f:1 ~cap:1 ~initial:[| false; false; false |] ()
  in
  show "unanimous start (0,0,0), one round modelled" unanimous [ 1 ];
  (match
     BO.Proof.decision_arrow unanimous ~rounds:1 ~prob:Q.one
   with
   | { Mdp.Checker.claim = Some c; _ } ->
     Format.printf "checked claim: %a@.@." Core.Claim.pp c
   | _ -> print_endline "unexpected: fast path failed\n");

  let mixed =
    BO.Proof.build ~n:3 ~f:1 ~cap:2 ~initial:[| false; false; true |] ()
  in
  show "mixed start (0,0,1), two rounds modelled" mixed [ 1; 2 ];
  (match
     BO.Proof.decision_arrow mixed ~rounds:2 ~prob:(Q.of_ints 1 8)
   with
   | { Mdp.Checker.claim = Some c; _ } ->
     Format.printf "checked claim: %a@." Core.Claim.pp c
   | _ -> print_endline "unexpected: two-round bound failed");
  print_endline
    "\nEvery single round is blockable by some schedule, yet 1/8 of the\n\
     coin outcomes defeat every schedule: randomization buys what\n\
     determinism cannot (FLP), with an explicit time bound attached --\n\
     the paper's thesis in one table."
