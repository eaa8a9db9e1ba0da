(** The time-bound proof of Section 6.2 / Appendix A, mechanized.

    Each of the paper's five phase statements is discharged by exact
    model checking over all adversaries of the (structurally encoded)
    [Unit-Time] schema; they are then stitched together with
    Proposition 3.2 and Theorem 3.4, exactly as in the paper, to yield

    {v T -13->_{1/8} C v}

    and the expected-time recurrence of Section 6.2 gives the 63-unit
    expected-progress bound.

    There is one pipeline, on a topology: the ring is [Topology.ring n],
    and every pass on a ring {!instance} is its [_topo] twin on that
    topology.  The ring keeps its own record, automaton ({!Automaton.make}),
    labels, statements and expected-time derivation.  Each fragment has
    one [G], {!Regions.g_of} built through [Mdp.Explore.region], and one
    Lemma 6.1 ({!Invariant.check_general}). *)

type instance = {
  params : Automaton.params;
  expl : (State.t, Automaton.action) Mdp.Explore.t;
  arena : (State.t, Automaton.action) Mdp.Arena.t;
      (** [expl] compiled once, with the model's tick mask; every
          engine call below reads this. *)
  sym : Analysis.Symmetry.certificate option;
      (** present iff the fragment is the certified orbit quotient *)
}

(** The ring's {!Automaton.make}, rotations ({!Symmetry.ring}) and
    label ["lr"]; [build ~n ()] is {!Analysis.Description.build} of it
    ([g] and [k] default to 1, [sym] to [Off]). *)
val describe :
  Automaton.params ->
  (State.t, Automaton.action, instance) Analysis.Description.t

val build :
  ?max_states:int -> ?g:int -> ?k:int -> ?sym:Analysis.Symmetry.mode ->
  n:int -> unit -> instance

(** The instance as the surfaces read it: the invariant, the five
    arrows and their composition, the direct and expected-time bounds. *)
val view : instance -> (State.t, Automaton.action) Analysis.Description.view

(** One phase statement together with what the checker found, labelled
    with the paper's proposition, e.g. ["A.11"]. *)
type arrow = State.t Mdp.Checker.arrow

(** The paper's five phase statements: [P -1->_1 C] (A.1),
    [T -2->_1 RT ∪ C] (A.3), [RT -3->_1 F ∪ G ∪ P] (A.15),
    [F -2->_{1/2} G ∪ P] (A.14), [G -5->_{1/4} P] (A.11). *)
type step = [ `P_to_C | `T_to_RTC | `RT_to_FGP | `F_to_GP | `G_to_P ]

(** [arrow inst step] checks one phase statement. *)
val arrow : instance -> step -> arrow

(** The paper's five arrows, in the proof order {!step} lists. *)
val arrows : instance -> arrow list

(** Compose the five arrows into [T -13->_{1/8} C] using the claim DSL
    (Proposition 3.2 to pad each arrow with already-reached states,
    inclusion certificates verified over the reachable states to
    canonicalize the set names, Theorem 3.4 to chain).  Returns [Error]
    with an explanation if some arrow failed to check. *)
val composed : instance -> (State.t Core.Claim.t, string) result

(** [compose_arrows inst arrows] composes arrows already checked on
    [inst], so a caller that also reports the arrows checks each one
    once: [composed inst] is [compose_arrows inst (arrows inst)].
    [arrows] must be [arrows inst] (or [arrows_topo] for a topology
    instance), in that order; the ladder reads the five by position and
    raises [Invalid_argument] on a list of any other length. *)
val compose_arrows :
  instance -> arrow list -> (State.t Core.Claim.t, string) result

(** Exact minimum of [P(reach C within 13)] over reachable [T]-states:
    the direct model-checking counterpart of {!composed}, used to show
    how conservative the paper's [1/8] is. *)
val direct_bound : instance -> Proba.Rational.t

(** The expected-time derivation of Section 6.2: the recurrence solution
    [E[V] = 60] from [RT] to [P], then [2 + 60 + 1 = 63] from [T] to
    [C]. *)
val expected_bound : unit -> Core.Expected.t

(** Worst-case expected time (in paper units) from a reachable
    [T]-state to [C], measured on the explored MDP by value iteration:
    the quantity the paper bounds by 63. *)
val max_expected_time : instance -> float

(** Qualitative baseline (the Zuck-Pnueli-style result the paper
    refines): does every adversary drive every reachable [T]-state into
    [C] almost surely? *)
val liveness_holds : instance -> bool

(** [worst_adversary inst] extracts the memoryless adversary maximizing
    the expected time from [T] to [C], as a replayable scheduler
    together with its exact value-iteration expectation from the
    all-trying start state (in paper time units).  Simulating the
    scheduler should reproduce that number -- the E8 cross-check. *)
val worst_adversary :
  instance -> float * (State.t, Automaton.action) Sim.Scheduler.t

(** {1 Generalized topologies}

    The paper's concluding remarks ask whether the analysis extends to
    "topologies that are more general than rings"; these entry points
    run the whole pipeline -- the five arrows with the goodness set
    {!Regions.g_of}, the Theorem 3.4 composition, the direct bound, the
    invariant -- on any {!Topology.t}. *)

type topo_instance = {
  topo : Topology.t;
  tg : int;
  tk : int;
  texpl : (State.t, Automaton.action) Mdp.Explore.t;
  tarena : (State.t, Automaton.action) Mdp.Arena.t;
  tsym : Analysis.Symmetry.certificate option;
}

(** {!describe} on a topology: {!Automaton.make_general},
    {!Symmetry.spec} and the label ["lr:<topology name>"]. *)
val describe_topo :
  topo:Topology.t -> g:int -> k:int ->
  (State.t, Automaton.action, topo_instance) Analysis.Description.t

val build_topo :
  ?max_states:int -> ?g:int -> ?k:int -> ?sym:Analysis.Symmetry.mode ->
  topo:Topology.t -> unit -> topo_instance

(** {!arrows} on a topology. *)
val arrows_topo : topo_instance -> arrow list
val composed_topo : topo_instance -> (State.t Core.Claim.t, string) result

(** {!compose_arrows} for a topology instance, over {!arrows_topo}. *)
val compose_arrows_topo :
  topo_instance -> arrow list -> (State.t Core.Claim.t, string) result
val direct_bound_topo : topo_instance -> Proba.Rational.t
val max_expected_time_topo : topo_instance -> float

(** Lemma 6.1 on the topology; [None] when it holds. *)
val invariant_topo : topo_instance -> State.t option

(** {!view} on a topology, without the paper's expected-time
    derivation. *)
val view_topo :
  topo_instance -> (State.t, Automaton.action) Analysis.Description.view
