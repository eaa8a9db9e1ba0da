(** Declared symmetries of the (generalized) Lehmann-Rabin automaton.

    Every side-preserving automorphism of the conflict topology
    ({!Topology.automorphisms}) lifts to a candidate automorphism of
    the automaton: permute the process array along [pi], the resource
    array along [rho], and the process index carried by each action.
    The region ladder of the proof ({!Regions}) is registered as the
    invariant predicates, so [Analysis.Symmetry.verify] certifies at
    once that reduction is sound {e and} that the proof's claims
    survive it.  The ring and every other topology register the same
    definitions, with goodness {!Regions.g_of} of the topology.

    The declared generators are {!Topology.generators}, a generating
    subset of the automorphisms: on [Topology.ring n] one rotation,
    generating the [n] rotations (reflections are not side-preserving:
    the protocol is chiral); on [Topology.star n] [n-1] permutations,
    generating all [n!]; on a line none -- the group is trivial, the
    PA032 advisory never fires there and a rotation declared by hand is
    exactly the PA030 fixture. *)

(** [apply_state (pi, rho) s] permutes the process array along [pi]
    and the resource array along [rho]; [apply_action pi] renames the
    process index an action carries (sides are preserved: the protocol
    is chiral).  Exposed so tests can declare {e wrong} permutations --
    a rotation on a line topology is the PA030 fixture. *)
val apply_state : int array * int array -> State.t -> State.t
val apply_action : int array -> Automaton.action -> Automaton.action

val generators :
  Topology.t -> (State.t, Automaton.action) Analysis.Symmetry.generator list

(** [spec topo] declares the topology's generators together with
    the generalized region predicates (goodness via
    {!Regions.g_of}) and, when there are generators, the in-place
    orbit canonicalizer.  [extra] appends further predicates to hold
    invariant.

    The canonicalizer tables the generated group's permutations once.
    It compares images of a state position by position, in
    [Stdlib.compare]'s order, without building them, and builds only
    the least, so it returns exactly what the generic closure of
    [Analysis.Symmetry.canonicalizer] returns, down to which [proc]
    records sit at which position: the element that builds the winner
    is the one the closure would have used, found by replaying the
    closure's discovery order over group elements when the state has a
    nontrivial stabilizer.  It keeps no mutable state between calls,
    so any number of domains may call it at once.  The certifier
    checks every representative it produced (PA033). *)
val spec :
  ?extra:(string * (State.t -> bool)) list ->
  Topology.t -> (State.t, Automaton.action) Analysis.Symmetry.spec

(** [ring ~n ()] is {!spec} on [Topology.ring n] with its one [G]
    listed a second time, physically the same value, so the ring's
    certificate keeps the nine predicate names it has always recorded
    while the certifier evaluates [G] once per state. *)
val ring :
  ?extra:(string * (State.t -> bool)) list ->
  n:int -> unit -> (State.t, Automaton.action) Analysis.Symmetry.spec
