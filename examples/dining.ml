(* The paper's case study end to end: Lehmann-Rabin Dining
   Philosophers.

   Run with:  dune exec examples/dining.exe [-- N]

   1. builds the protocol automaton for a ring of N (default 3)
      philosophers under the Unit-Time discipline;
   2. checks Lemma 6.1 exhaustively;
   3. checks the five phase statements of Section 6.2 against every
      adversary and composes them into T -13->_{1/8} C;
   4. derives the expected-progress bound 63;
   5. cross-validates by simulation on a larger ring. *)

module Q = Proba.Rational
module LR = Lehmann_rabin

let () =
  let n =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 3
  in
  Printf.printf "== Lehmann-Rabin dining philosophers, n = %d ==\n\n" n;
  let inst = LR.Proof.build ~n () in
  Printf.printf "reachable states: %d\n"
    (Mdp.Explore.num_states inst.LR.Proof.expl);

  (* Lemma 6.1: the shared variables are determined by the local
     states; no resource is held from both sides. *)
  (match LR.Invariant.check inst.LR.Proof.expl with
   | None -> print_endline "Lemma 6.1: holds on every reachable state"
   | Some s -> Format.printf "Lemma 6.1 VIOLATED at %a@." LR.State.pp s);

  (* The five arrows. *)
  print_newline ();
  List.iter
    (fun a ->
       Format.printf "%-5s %s -%s->_%s %s : min attained %s (%s)@."
         a.Mdp.Checker.label
         (Core.Pred.name a.Mdp.Checker.pre)
         (Q.to_string a.Mdp.Checker.time)
         (Q.to_string a.Mdp.Checker.prob)
         (Core.Pred.name a.Mdp.Checker.post)
         (Q.to_string a.Mdp.Checker.attained)
         (match a.Mdp.Checker.claim with
          | Some _ -> "holds" | None -> "FAILS"))
    (LR.Proof.arrows inst);

  (* Composition, with the full proof tree. *)
  (match LR.Proof.composed inst with
   | Error e -> Printf.printf "composition failed: %s\n" e
   | Ok claim ->
     Format.printf "@.%a@." Core.Claim.pp_derivation claim;
     Format.printf "@.machine-checked end to end: %b@."
       (Core.Claim.fully_verified claim));

  (* The expected-time recurrence of Section 6.2. *)
  Format.printf "@.%a@." Core.Expected.pp (LR.Proof.expected_bound ());
  Printf.printf "worst-case expected time measured on the MDP: %.3f\n"
    (LR.Proof.max_expected_time inst);

  (* Simulation on a larger ring, beyond exhaustive reach. *)
  let big = 2 * n + 2 in
  Printf.printf "\nsimulating a ring of %d under four schedulers:\n" big;
  let params = { LR.Automaton.n = big; g = 1; k = 1 } in
  let pa = LR.Automaton.make params in
  List.iter
    (fun (name, sched) ->
       let setup =
         { Sim.Monte_carlo.pa; scheduler = sched;
           duration = LR.Automaton.duration;
           start = LR.State.all_trying ~n:big ~g:1 ~k:1 }
       in
       let summary, missed =
         Sim.Monte_carlo.estimate_time setup
           ~target:(Core.Pred.mem LR.Regions.c) ~trials:1000 ~seed:7 ()
       in
       Printf.printf
         "  %-8s E[time to first critical] ~ %6.3f (%d missed; bound 63)\n"
         name
         (Proba.Stat.Summary.mean summary)
         missed)
    (LR.Schedulers.all pa)
