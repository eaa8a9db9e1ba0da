(* The paper's future-work question, answered experimentally: do the
   Lehmann-Rabin phase bounds survive on topologies other than rings?

   Run with:  dune exec examples/topologies.exe

   A topology here assigns each philosopher a left and a right
   resource; any such assignment runs the unmodified protocol.  The
   goodness set G generalizes ("some committed process whose second
   resource nobody else potentially controls"), and the whole proof
   pipeline -- invariant, five arrows, Theorem 3.4 composition --
   replays on every topology. *)

module Q = Proba.Rational
module LR = Lehmann_rabin

let analyze topo =
  Printf.printf "== %s ==\n" (LR.Topology.name topo);
  let inst = LR.Proof.build_topo ~topo () in
  Printf.printf "reachable states: %d\n"
    (Mdp.Explore.num_states inst.LR.Proof.texpl);
  (match LR.Proof.invariant_topo inst with
   | None -> print_endline "Lemma 6.1 (generalized): holds"
   | Some s -> Format.printf "Lemma 6.1 VIOLATED at %a@." LR.State.pp s);
  List.iter
    (fun a ->
       Format.printf "  %-5s attained %-6s (%s)@." a.Mdp.Checker.label
         (Q.to_string a.Mdp.Checker.attained)
         (match a.Mdp.Checker.claim with Some _ -> "holds" | None -> "FAILS"))
    (LR.Proof.arrows_topo inst);
  (match LR.Proof.composed_topo inst with
   | Ok claim -> Format.printf "  composed: %a@." Core.Claim.pp claim
   | Error e -> Printf.printf "  composition failed: %s\n" e);
  Printf.printf "  direct 13-unit minimum: %s; worst E[time]: %.3f\n\n"
    (Q.to_string (LR.Proof.direct_bound_topo inst))
    (LR.Proof.max_expected_time_topo inst)

let () =
  print_endline
    "Lehmann-Rabin beyond the ring (paper Sec. 7 future work):\n";
  List.iter analyze
    [ LR.Topology.ring 3; LR.Topology.line 3; LR.Topology.star 3 ];
  print_endline
    "The ring is the hard case: its rotational symmetry forces the \
     probabilistic\nsymmetry breaking the constants account for.  On \
     the line and the star the\nstructure already breaks symmetry, and \
     the same bounds hold with slack."
