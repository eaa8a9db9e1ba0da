(** Explicit-state exploration of a probabilistic automaton.

    Breadth-first enumeration of the reachable states, producing the
    underlying MDP in indexed form: the nondeterministic choices at
    each state become the MDP's actions and the probabilistic branches
    its transition distributions.  The BFS appends each expanded
    state's steps straight into CSR (compressed sparse row) arrays,
    {!csr}, which {!Arena.compile} shares rather than copies; every
    downstream analysis reads them through the arena.

    An exploration stops in one of two ways only, both by raising: at
    its [max_states] bound ({!Too_many_states}) and at the ambient
    deadline ({!Core.Budget.Deadline_exceeded}).  {!run} therefore
    always returns a complete fragment; a fragment with a frontier
    (states interned but not expanded) comes only from {!of_parts},
    when a snapshot stored one.

    A fragment holds one definition per region name: the predicate
    ({!region}) and the set swept for it ({!set}). *)

exception Too_many_states of int

(** A fragment's transitions, in index order:

    - [step_off.(i) .. step_off.(i+1) - 1] are the step indices of
      state [i] (length [num_states + 1]; frontier rows are empty);
    - [out_off.(k) .. out_off.(k+1) - 1] are the branch indices of
      step [k] (length [num_choices + 1]);
    - [tgt.(o)] and [prob_q.(o)] are the target state and exact
      probability of branch [o] (length [num_branches]);
    - [actions.(k)] is the original action of step [k].

    A step's branches follow its distribution's support order, with
    targets that intern to one index coalesced into the first one's
    branch. *)
type 'a csr = {
  step_off : int array;
  out_off : int array;
  tgt : int array;
  prob_q : Proba.Rational.t array;
  actions : 'a array;
}

type ('s, 'a) t

(** [run ?max_states m] explores [m] from its start states.
    Raises [Too_many_states max_states] the moment a state beyond the
    bound (default [5_000_000]) would be interned, so exactly
    [max_states] states were interned, and
    {!Core.Budget.Deadline_exceeded} at the ambient deadline, polled
    before each expansion.

    [canon] (default: none) maps every state to the form it is
    interned under, so the exploration builds the quotient of [m] under
    the kernel of [canon]: pass an orbit canonicalizer (certified by
    [Analysis.Symmetry]) and the result is the orbit-reduced MDP,
    indistinguishable to downstream consumers from an ordinary
    fragment.  Contract: [canon] must be idempotent
    ([canon (canon s)] equals [canon s]) and must map states equal
    under the automaton's [equal_state] to equal forms.  The table
    then holds only fixpoints of [canon], so a successor is looked up
    as it is first and canonicalized only when that misses.
    Soundness (that the quotient's verdicts match the full
    automaton's) is the {e caller's} obligation; uncertified canon
    functions yield garbage quietly.  {!index} resolves its argument
    the same way, so looking up any orbit member finds the
    representative.

    [on_intern i s] (default: nothing) is called on the exploring
    domain the moment [s] gets index [i], before any later state is
    interned: it sees every index exactly once, in increasing order,
    with the state {!state} will return for it.  It lets a consumer
    work on the states while the exploration is still running (the
    orbit certifier of [Analysis.Symmetry] does).  An exception it
    raises aborts the exploration. *)
val run :
  ?max_states:int -> ?canon:('s -> 's) -> ?on_intern:(int -> 's -> unit) ->
  ('s, 'a) Core.Pa.t -> ('s, 'a) t

(** [of_parts ~pa ~states ~csr ~start_indices ~expanded ()] rebuilds a
    fragment from previously-explored parts (an arena snapshot) without
    re-running the BFS: the intern table is reconstructed from [states]
    in index order and {!explorations} is {e not} incremented.  [canon]
    must be the same canonicalizer the original exploration used (or
    omitted when it was the identity); as with {!run}, passing a
    different one silently changes which states {!index} resolves.
    The one validator of the {!csr} format: raises [Invalid_argument],
    naming the array, when a length, an offset or an index is
    inconsistent, when a frontier state has steps, or when two entries
    of [states] are the same state (naming both indices). *)
val of_parts :
  ?canon:('s -> 's) ->
  pa:('s, 'a) Core.Pa.t ->
  states:'s array ->
  csr:'a csr ->
  start_indices:int list ->
  expanded:int ->
  unit ->
  ('s, 'a) t

(** The automaton that was explored. *)
val automaton : ('s, 'a) t -> ('s, 'a) Core.Pa.t

val num_states : ('s, 'a) t -> int

(** Room in the intern table's array of states: [num_states] once
    {!run} or {!of_parts} has returned, so a fragment holds no unused
    slots. *)
val key_capacity : ('s, 'a) t -> int

(** States whose steps were computed; the frontier of a snapshot
    fragment is the index range [num_expanded .. num_states - 1]. *)
val num_expanded : ('s, 'a) t -> int

(** [true] iff every interned state was expanded ({!run} results
    always are). *)
val is_complete : ('s, 'a) t -> bool

(** Total number of (state, step) pairs. *)
val num_choices : ('s, 'a) t -> int

(** Total number of probabilistic branches. *)
val num_branches : ('s, 'a) t -> int

(** [state expl i] is the state with index [i]. *)
val state : ('s, 'a) t -> int -> 's

(** [index expl s] is the index of an explored state; on a
    canon-reduced fragment, the index of [s]'s orbit representative. *)
val index : ('s, 'a) t -> 's -> int option

(** Indices of the start states. *)
val start_indices : ('s, 'a) t -> int list

(** The fragment's transitions; {!Arena.compile} shares these arrays. *)
val csr : ('s, 'a) t -> 'a csr

(** [set expl pred] is the set of states satisfying [pred], by index.
    Each fragment keeps a memo of the sets it has swept, keyed by
    predicate name:

    - a union ({!Core.Pred.operands}) is the union of its operands'
      sets and is never swept or stored;
    - any other predicate is swept over the states the first time its
      name is asked for, and its set stored under that name;
    - a physically different predicate under a stored name is swept
      again and must yield the stored set: otherwise [set] raises
      [Invalid_argument] naming it.

    The memo therefore holds at most one set per name.  Domain-safe: a
    domain sweeps, then publishes its set by CAS; one that loses the
    race to a name adopts the stored set (or is refused as above), and
    a sweep that raises stores nothing. *)
val set : ('s, 'a) t -> 's Core.Pred.t -> Bitset.t

(** [region expl name build] is the fragment's one predicate named
    [name]: the first request stores [build ()], which sweeps nothing,
    and every later one returns that value, so {!set} finds it by [==]
    and sweeps it once.  What [build] makes must depend only on the
    fragment: a later request's [build] is never run.  Write-once by CAS
    as {!set}'s store is.  Raises [Invalid_argument] if [build] names
    its predicate otherwise. *)
val region :
  ('s, 'a) t -> string -> (unit -> 's Core.Pred.t) -> 's Core.Pred.t

(** [indicator expl pred] is {!set} as a boolean array. *)
val indicator : ('s, 'a) t -> 's Core.Pred.t -> bool array

(** [check_invariant expl pred] returns the first state, in index
    order, outside [set expl pred], if any.  Used for exhaustive
    invariant checking (Lemma 6.1). *)
val check_invariant : ('s, 'a) t -> 's Core.Pred.t -> 's option

(** Process-wide count of explorations performed by {!run}.  Read by [Models.stats] so surfaces
    can assert that the registry cache collapses repeated model uses
    into a single exploration. *)
val explorations : unit -> int

(** Process-wide count of the sweeps {!set} has run, stored or not:
    one that lost a race or checked a physically different predicate
    against a stored set counts too.  Tests read it to pin one sweep
    per region and fragment. *)
val sweeps : unit -> int
