(** Analysis of the shared-coin protocol by the paper's method, and
    where the method's composition is loose.

    Ladder (each rung discharged exhaustively): from any state with
    [|counter| >= d], the very next flip -- due within one time unit --
    moves outward with probability 1/2, so

    {v at_least(d) -1->_{1/2} at_least(d+1) v}

    Theorem 3.4 composes the rungs into

    {v any state -bound->_{2^-bound} decided v}

    which is {e valid} but exponentially loose: the counter is a fair
    random walk whose exit time from [(-bound, bound)] is [bound^2]
    flips in expectation regardless of scheduling, i.e. about
    [bound^2 / n] time units at the forced flip rate.  {!direct_bound}
    and {!expected_exact} quantify the gap. *)

type instance = {
  params : Automaton.params;
  expl : (Automaton.state, Automaton.action) Mdp.Explore.t;
  arena : (Automaton.state, Automaton.action) Mdp.Arena.t;
      (** [expl] compiled once with the model's tick mask. *)
  sym : Analysis.Symmetry.certificate option;
      (** present iff the fragment is the certified orbit quotient *)
}

(** The automaton, the process permutations ({!Symmetry.spec}) and the
    label ["shared_coin"]; [build] is {!Analysis.Description.build} of
    it ([sym] defaults to [Off]). *)
val describe :
  Automaton.params ->
  (Automaton.state, Automaton.action, instance) Analysis.Description.t

val build :
  ?max_states:int -> ?g:int -> ?k:int -> ?sym:Analysis.Symmetry.mode ->
  n:int -> bound:int -> unit -> instance

(** The instance as the surfaces read it: the ladder and its
    composition, the direct bound, the exact and [B^2/n] expected time. *)
val view :
  instance -> (Automaton.state, Automaton.action) Analysis.Description.view

(** A rung, labelled [D]d. *)
type arrow = Automaton.state Mdp.Checker.arrow

(** The rungs [d = 0, ..., bound-1]. *)
val arrows : instance -> arrow list

(** [at_least 0 -bound->_{2^-bound} at_least bound] via Theorem 3.4. *)
val composed : instance -> (Automaton.state Core.Claim.t, string) result

(** [compose_arrows arrows] composes rungs already checked, in
    {!arrows}' order, so a caller that also reports them checks each
    rung once: [composed inst] is [compose_arrows (arrows inst)]. *)
val compose_arrows :
  arrow list -> (Automaton.state Core.Claim.t, string) result

(** Exact minimum probability of deciding within [bound] time units
    (the composed claim's horizon): shows how loose [2^-bound] is. *)
val direct_bound : instance -> Proba.Rational.t

(** Worst-case expected decision time measured by value iteration, in
    time units.  Theory: [bound^2 / n] (the adversary minimizes the
    flip rate but cannot bias the walk). *)
val expected_exact : instance -> float

(** The classical prediction [bound^2 / n]. *)
val expected_theory : instance -> float

(** {!expected_theory} from the parameters alone (no exploration). *)
val theory : Automaton.params -> float

val liveness_holds : instance -> bool
