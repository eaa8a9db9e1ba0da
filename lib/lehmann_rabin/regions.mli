(** The state sets of the proof (Section 6.2).

    All predicates are over reachable states of the automaton; the
    checker evaluates them only on explored (hence reachable) states, as
    the paper's definitions require.  Each set has one definition: the
    one that depends on the conflict topology, [G], is {!g_of}, and the
    ring is [g_of (Topology.ring n)], not a second formula.  The proof
    asks a fragment for its [G] through [Mdp.Explore.region], so one
    fragment holds one [G]. *)

(** [X_i in T] in the paper's sense: pc in [{F, W, S, D, P}]. *)
val trying : State.region -> bool

(** [T]: some process is in its trying region. *)
val t : State.t Core.Pred.t

(** [C]: some process is in its critical region. *)
val c : State.t Core.Pred.t

(** [RT]: some process is trying, and every process is in
    [{E_R, R} ∪ T] -- nobody is critical or holds resources while
    exiting. *)
val rt : State.t Core.Pred.t

(** [F]: a state of [RT] where some process is ready to flip. *)
val f : State.t Core.Pred.t

(** [P]: some process is in its pre-critical region. *)
val p : State.t Core.Pred.t

(** [g_of topo] is [G] on [topo]: a state of [RT] with a {e good}
    process -- a committed process (pc in [{W, S}]) whose second
    resource no {e other} process sharing it potentially controls (or
    holds).  On [Topology.ring n] the one other sharer is the neighbor
    on that side, and this is the paper's ring definition; the paper
    defines [G] for the ring only, and this is the one definition, on
    every topology.  Allocates nothing. *)
val g_of : Topology.t -> State.t Core.Pred.t

(** The goodness-free ladder sets used to stitch the five arrows
    together with Proposition 3.2 (each is the union of the previous
    arrow's target with everything already achieved); the proof builds
    the sets that contain [G] from its goodness predicate. *)

val rt_or_c : State.t Core.Pred.t
val p_or_c : State.t Core.Pred.t
