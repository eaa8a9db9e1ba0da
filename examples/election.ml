(* Applying the paper's proof method to a different protocol:
   randomized leader election on an anonymous ring (Itai-Rodeh style,
   synchronous one-bit rounds).

   Run with:  dune exec examples/election.exe [-- N]

   The analysis mirrors the dining-philosophers one: a ladder of
   per-level statements at_most(k) -1->_{1/2} at_most(k-1) is checked
   exhaustively, Theorem 3.4 composes them, and geometric trials bound
   the expected election time by 2(n-1). *)

module Q = Proba.Rational
module IR = Itai_rodeh

let () =
  let n =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 5
  in
  Printf.printf "== randomized leader election, n = %d ==\n\n" n;
  let inst = IR.Proof.build ~n () in
  Printf.printf "reachable states: %d\n\n"
    (Mdp.Explore.num_states inst.IR.Proof.expl);

  List.iter
    (fun a ->
       Format.printf "%-4s attained %-6s (%s)@." a.Mdp.Checker.label
         (Q.to_string a.Mdp.Checker.attained)
         (match a.Mdp.Checker.claim with Some _ -> "holds" | None -> "FAILS"))
    (IR.Proof.arrows inst);

  (match IR.Proof.composed inst with
   | Error e -> Printf.printf "composition failed: %s\n" e
   | Ok claim ->
     Format.printf "@.composed: %a@." Core.Claim.pp claim;
     Format.printf "exact direct bound at the same horizon: %s@."
       (Q.to_string (IR.Proof.direct_bound inst)));

  Format.printf "@.%a@." Core.Expected.pp (IR.Proof.expected_bound ~n);
  Printf.printf "worst-case expected election time on the MDP: %.3f\n\n"
    (IR.Proof.max_expected_time inst);

  (* Simulation scaling beyond the checker. *)
  print_endline "simulated mean election time (uniform scheduler):";
  List.iter
    (fun big ->
       let params = { IR.Automaton.n = big; g = 1; k = 1 } in
       let pa = IR.Automaton.make params in
       let setup =
         { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
           duration = IR.Automaton.duration;
           start = IR.Automaton.start params }
       in
       let summary, _ =
         Sim.Monte_carlo.estimate_time setup
           ~target:IR.Automaton.leader_elected ~trials:1000 ~seed:3 ()
       in
       Printf.printf "  n = %3d : %7.3f units (derived bound %d)\n" big
         (Proba.Stat.Summary.mean summary)
         (2 * (big - 1)))
    [ n; 2 * n; 4 * n ]
