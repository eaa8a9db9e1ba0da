(** The zero-time graph in solving order.

    The zero-time graph has an edge [s -> s'] for every branch of every
    non-tick step of [s].  Within one tick layer of
    {!Finite_horizon}, a state's value depends on the current layer only
    through these edges (tick steps read the previous layer).  Its
    strongly connected components, listed successors-first, therefore
    let a layer be solved in one walk: the value of a state in an
    acyclic component is final after one evaluation, and only cyclic
    components -- zero-time loops -- need a local fixpoint iteration.

    {!Arena.zero_time} computes this once per arena and memoizes it;
    {!Zeno} reads the same components. *)

type t = private {
  order : int array;
      (** every state exactly once, grouped by component; the members
          of a component are in ascending index order *)
  comp_off : int array;
      (** component [c] is [order.(comp_off.(c)) ..
          order.(comp_off.(c + 1) - 1)]; length [num_components + 1] *)
  cyclic : Bytes.t;
      (** per component, ['\001'] when it has a zero-time cycle (more
          than one member, or a zero-time self-loop), ['\000']
          otherwise *)
}
(** Components are in reverse topological order: every zero-time
    successor of a member of component [c] lies in a component
    [c' <= c]. *)

val num_components : t -> int

(** [components z] maps each state to its component number. *)
val components : t -> int array

(** [of_csr ~n ~step_off ~out_off ~tgt ~tick] computes the order from an
    arena's CSR arrays (Tarjan's algorithm, iterative, O(states +
    branches)).  Its working arrays are borrowed from {!Scratch}; only
    the result is allocated. *)
val of_csr :
  n:int ->
  step_off:int array ->
  out_off:int array ->
  tgt:int array ->
  tick:bool array ->
  t
