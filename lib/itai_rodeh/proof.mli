(** Time-bound analysis of the leader election, by the paper's method.

    The phase statements form a ladder on the number of active
    processes:

    {v at_most(k)  -1->_{1/2}  at_most(k-1)        for k = n, ..., 2 v}

    each discharged by exact model checking over all (clock-encoded)
    adversaries; Theorem 3.4 then composes them into

    {v at_most(n) -(n-1)->_{2^-(n-1)} leader v}

    and geometric-trials reasoning gives an expected election time of at
    most [2 (n-1)] units. *)

type instance = {
  params : Automaton.params;
  expl : (Automaton.state, Automaton.action) Mdp.Explore.t;
  arena : (Automaton.state, Automaton.action) Mdp.Arena.t;
      (** [expl] compiled once with the model's tick mask. *)
  sym : Analysis.Symmetry.certificate option;
      (** present iff the fragment is the certified orbit quotient *)
}

(** The automaton, the process permutations ({!Symmetry.spec}) and the
    label ["itai_rodeh"]; [build] is {!Analysis.Description.build} of it
    ([sym] defaults to [Off]). *)
val describe :
  Automaton.params ->
  (Automaton.state, Automaton.action, instance) Analysis.Description.t

val build :
  ?max_states:int -> ?g:int -> ?k:int -> ?sym:Analysis.Symmetry.mode ->
  n:int -> unit -> instance

(** The instance as the surfaces read it: the ladder and its
    composition, the derived and the measured expected time. *)
val view :
  instance -> (Automaton.state, Automaton.action) Analysis.Description.view

(** A rung, labelled [L]k. *)
type arrow = Automaton.state Mdp.Checker.arrow

(** The ladder [k = n, ..., 2]. *)
val arrows : instance -> arrow list

(** [at_most(n) -(n-1)->_{2^-(n-1)} at_most(1)] via Theorem 3.4. *)
val composed : instance -> (Automaton.state Core.Claim.t, string) result

(** [compose_arrows arrows] composes rungs already checked, in
    {!arrows}' order, so a caller that also reports them checks each
    rung once: [composed inst] is [compose_arrows (arrows inst)]. *)
val compose_arrows :
  arrow list -> (Automaton.state Core.Claim.t, string) result

(** Exact min probability of electing within [n-1] time units (the
    direct counterpart of {!composed}). *)
val direct_bound : instance -> Proba.Rational.t

(** The derived bound [sum_k time_k / prob_k = 2 (n-1)] on the expected
    election time. *)
val expected_bound : n:int -> Core.Expected.t

(** Worst-case expected election time measured on the MDP (units). *)
val max_expected_time : instance -> float

(** Every adversary elects a leader almost surely. *)
val liveness_holds : instance -> bool
