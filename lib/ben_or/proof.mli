(** Machine-checked analysis of Ben-Or consensus.

    The classical claims, each verified exhaustively on the explored
    (round-capped) system:

    - {e agreement} (safety): no two processes ever decide different
      values -- checked over {e every} reachable state of the first
      [cap] rounds, all crash patterns and all message schedules;
    - {e validity}: from a unanimous start, the other value is never
      decided;
    - {e fast path}: from a unanimous start, some process decides
      within 3 time units (one round) with probability 1 under every
      adversary -- a genuine [U -3->_1 Decided] statement of the
      paper's form;
    - {e probabilistic termination}: from a mixed start the adversary
      can block any {e fixed} round (the round-1 minimum is 0 -- the
      classical impossibility of deterministic asynchronous consensus
      showing through), but the coin breaks every such schedule:
      within 2 rounds (6 time units) some process decides with
      probability at least [2^-n], exactly attained by the checker.

    Termination in the uncapped protocol is almost-sure but not
    time-bounded; the cap makes each statement finite and only ever
    weakens reachability, so the bounds transfer soundly. *)

type instance = {
  params : Automaton.params;
  initial : Automaton.bit array;
  expl : (Automaton.state, Automaton.action) Mdp.Explore.t;
  arena : (Automaton.state, Automaton.action) Mdp.Arena.t;
      (** [expl] compiled once with the model's tick mask. *)
  sym : Analysis.Symmetry.certificate option;
      (** present iff the fragment is the certified orbit quotient *)
}

(** The automaton from the estimates [initial], the equal-estimate
    transpositions ({!Symmetry.spec}) and the label ["ben_or"]; [build]
    is {!Analysis.Description.build} of it ([sym] defaults to [Off]). *)
val describe :
  Automaton.params -> initial:Automaton.bit array ->
  (Automaton.state, Automaton.action, instance) Analysis.Description.t

val build :
  ?max_states:int -> ?g:int -> ?k:int -> ?sym:Analysis.Symmetry.mode ->
  n:int -> f:int -> cap:int ->
  initial:Automaton.bit array -> unit -> instance

(** The instance as the surfaces read it: agreement, the decision curve,
    {!composed} at the round cap, and the cap's arrow at [2^-n] for lint. *)
val view :
  instance -> (Automaton.state, Automaton.action) Analysis.Description.view

(** [None] when agreement holds on every reachable state. *)
val agreement_violation : instance -> Automaton.state option

(** From a unanimous start: [None] if the opposite value is never
    decided; on mixed starts, always [None] (vacuous). *)
val validity_violation : instance -> Automaton.state option

type arrow = Automaton.state Mdp.Checker.arrow

(** [decision_arrow inst ~rounds ~prob] checks
    [Init -(3 rounds)->_prob Decided] where [Init] is the start state:
    one round takes at most 3 time units (report, collect, collect). *)
val decision_arrow :
  instance -> rounds:int -> prob:Proba.Rational.t -> arrow

(** The certified termination claim
    [Init -(3 rounds)->_p Decided] at the {e exact} attained bound
    [p]: a probe finds the adversary's minimum, a second check
    certifies it from the same solved pass ({!Mdp.Arena.solved}), so
    the minted leaf is as tight as the checker can prove.  [Error] when [rounds] exceeds the modelled cap or the
    attained minimum is 0 (a fixed round the adversary can block --
    the deterministic-consensus impossibility showing through). *)
val composed :
  instance -> rounds:int -> (Automaton.state Core.Claim.t, string) result

(** Exact [min P(some process decides within 3 rounds time units)] for
    each requested round count, from the start state.  The point at
    [rounds = cap] is the pass {!composed} solves. *)
val decision_curve : instance -> rounds:int list -> Proba.Rational.t list

(** Do all adversaries decide almost surely {e within the cap}?  (False
    for mixed starts: the capped system can park undecided; the real
    protocol decides a.s. only in the limit.) *)
val capped_liveness : instance -> bool
