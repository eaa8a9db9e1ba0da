(** Resource-conflict topologies for the generalized protocol.

    The paper's concluding remarks ask about "topologies that are more
    general than rings".  The Lehmann-Rabin code itself only needs each
    process to own a {e left} and a {e right} resource; any assignment
    of two distinct resources per process defines a valid instance (the
    ring is the special case where resource [i] sits between processes
    [i] and [i+1]).  This module describes such assignments and is used
    by {!Automaton.make_general} and the generalized region/invariant
    definitions.

    A resource may be shared by any number of processes (in the star,
    the hub resource is shared by everyone), so the "wait" step really
    is a multi-party test-and-set on the shared variable. *)

type t

(** [make ~name ~num_resources assignments] where [assignments.(i)] is
    process [i]'s [(left, right)] resource pair.  Raises
    [Invalid_argument] if a process's resources coincide or an index is
    out of range, or there are fewer than two processes. *)
val make : name:string -> num_resources:int -> (int * int) array -> t

val name : t -> string
val num_procs : t -> int
val num_resources : t -> int

(** [res t i side] is process [i]'s resource on [side]. *)
val res : t -> int -> State.side -> int

(** [contenders t r] lists each process sharing resource [r], with the
    side on which [r] hangs for it. *)
val contenders : t -> int -> (int * State.side) list

(** [automorphisms t] lists the non-identity {e side-preserving}
    automorphisms of the conflict topology, up to [limit] (default
    [720]) of them: pairs [(pi, rho)] of a process permutation and a
    resource permutation with [rho (res t i side) = res t (pi i) side]
    for both sides.  Side-preservation is what makes these candidate
    automorphisms of the {e automaton} (the protocol is chiral: the
    first flip names a side), so a ring contributes its [n-1]
    rotations but not the reflections, and a line contributes nothing.
    Truncation at [limit] is sound for symmetry reduction -- any
    subset of automorphisms generates a subgroup.  Symmetry reduction
    declares {!generators}, a generating subset of this list. *)
val automorphisms : ?limit:int -> t -> (int array * int array) list

(** [generators t] is the subsequence of [automorphisms t] that keeps
    an automorphism only when the ones kept before it do not already
    generate it.  It generates the same group as the whole list: a
    ring keeps one rotation, [star n] keeps [n-1] permutations.  Every
    orbit-reduction cost (closure, equivariance checks, predicate
    comparisons) is per declared generator, so this is what
    {!Symmetry.spec} declares. *)
val generators : t -> (int array * int array) list

(** {1 Stock topologies} *)

(** The paper's ring: [n] processes, [n] resources, process [i] between
    resources [i-1] (left) and [i] (right). *)
val ring : int -> t

(** A line: [n] processes, [n+1] resources, process [i] between
    resources [i] (left) and [i+1] (right); the end resources are
    uncontested. *)
val line : int -> t

(** A star: [n] processes, [n+1] resources; resource [0] is the hub
    shared by every process (its right resource), resource [i+1] is
    process [i]'s private left resource. *)
val star : int -> t
