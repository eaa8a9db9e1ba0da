(** Lemma 6.1: the resource variables are determined by the local
    states, and neighbors never hold the same resource.

    For every reachable state [s] and every [i]:
    - [Res i = taken] iff process [i] holds its right resource
      (pc in [{S→, D→, P, C, E_F, E_S→}]) or process [i+1] holds its
      left resource (pc in [{S←, D←, P, C, E_F, E_S←}]);
    - not both at once (mutual exclusion on each resource). *)

(** Does the state satisfy both clauses of Lemma 6.1? *)
val lemma_6_1 : State.t -> bool

(** The derived safety property of the protocol: no two {e adjacent}
    processes are simultaneously in their critical regions (they would
    both hold the resource between them). *)
val neighbors_exclusive : State.t -> bool

(** [check expl] exhaustively verifies {!lemma_6_1} over the explored
    reachable states, returning a counterexample if any. *)
val check :
  (State.t, Automaton.action) Mdp.Explore.t -> State.t option

(** Same for {!neighbors_exclusive}. *)
val check_exclusion :
  (State.t, Automaton.action) Mdp.Explore.t -> State.t option

val check_general :
  Topology.t -> (State.t, Automaton.action) Mdp.Explore.t -> State.t option
