(** Lemma 6.1: the resource variables are determined by the local
    states, and neighbors never hold the same resource.

    For every reachable state and every resource [r], [Res r = taken]
    iff one of the processes sharing [r] holds it on its side, and
    never two.  On [Topology.ring n], where resource [i] lies between
    processes [i] and [i+1], this is the paper's statement: there is
    one formula, and the ring is a topology like any other. *)

(** [lemma topo], named ["Lemma 6.1"], allocates nothing. *)
val lemma : Topology.t -> State.t Core.Pred.t

(** The derived safety property of the protocol: no two {e adjacent}
    processes are simultaneously in their critical regions (they would
    both hold the resource between them). *)
val neighbors_exclusive : State.t -> bool

(** [check_general topo expl] verifies {!lemma} [topo] over the
    explored states, returning the first counterexample, if any; the
    predicate is the fragment's one ["Lemma 6.1"] ([Mdp.Explore.region]),
    so [topo] must be the topology [expl] was explored on. *)
val check_general :
  Topology.t -> (State.t, Automaton.action) Mdp.Explore.t -> State.t option

(** [check expl] is {!check_general} on the ring fragment [expl]'s ring. *)
val check :
  (State.t, Automaton.action) Mdp.Explore.t -> State.t option

(** Same for {!neighbors_exclusive}. *)
val check_exclusion :
  (State.t, Automaton.action) Mdp.Explore.t -> State.t option
