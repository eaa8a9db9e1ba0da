(** Compiled CSR (compressed-sparse-row) form of an explored fragment.

    Every engine question -- backward induction, value iteration,
    qualitative fixpoints, SCCs, export -- is a traversal of the same
    transition structure.  {!Explore} already records it as dense
    parallel arrays ({!Explore.csr}); the arena shares those arrays,
    adds what an engine needs besides, and every engine reads it:

    - [step_off.(i) .. step_off.(i+1) - 1] are the step indices of
      state [i] (CSR row pointers; length [num_states + 1]);
    - [out_off.(k) .. out_off.(k+1) - 1] are the branch indices of
      step [k] (length [num_choices + 1]);
    - [tgt.(o)] is the target state of branch [o], with its
      probability stored once on each of the two planes: exact in
      [prob_q.(o)], which the exact reach engine, DOT export and
      snapshots read, and as an IEEE double in [prob_f.(o)], which only
      expected-time value iteration reads (the float plane is
      [Rational.to_float] of the exact plane, precomputed so
      float sweeps never convert in the inner loop);
    - [tick.(k)] is the precomputed tick mask -- this replaces the
      [~is_tick] closure formerly threaded through every engine
      signature;
    - [actions.(k)] is the original action of step [k].

    [step_off], [out_off], [tgt], [prob_q] and [actions] are the
    fragment's own arrays (physically shared, never copied), so step
    and branch order is exactly the {!Explore} order.  Only the tick
    mask and the float plane are built per compile.

    A fragment with a frontier (a snapshot may store one, through
    {!Explore.of_parts}) compiles unchanged: frontier states (indices
    [>= num_expanded]) have empty step rows, which downstream sweeps
    treat as stuck.  That under-approximates reachability, the sound
    direction for a min-reach lower bound; {!Explore.run} itself never
    returns a frontier. *)

(** A solved pass: {!Finite_horizon.min_reach} within a tick horizon
    or {!Expected_time.max_expected_ticks}, folded over a state set to
    its extremum (the fold's seed for an empty set), the first member in
    index order attaining it, and the number of members. *)
type pass = Min_reach of int | Max_expected_ticks
type extremum = Prob of Proba.Rational.t | Ticks of float
type summary = { extremum : extremum; witness : int option; members : int }

type ('s, 'a) t = private {
  expl : ('s, 'a) Explore.t;  (** the fragment this was compiled from *)
  n : int;  (** number of states *)
  expanded : int;  (** states whose steps were computed *)
  step_off : int array;  (** state -> step range; length [n + 1] *)
  out_off : int array;  (** step -> branch range; length [num_choices + 1] *)
  tgt : int array;  (** branch -> target state; length [num_branches] *)
  prob_q : Proba.Rational.t array;  (** exact probability plane *)
  prob_f : float array;  (** float probability plane (same order) *)
  tick : bool array;  (** per-step tick mask *)
  actions : 'a array;  (** per-step original action *)
  fp : string option Atomic.t;
      (** memoized structural fingerprint; use {!fingerprint} *)
  zero_time : Zero_time.t option Atomic.t;
      (** memoized zero-time component order; use {!zero_time} *)
  fixed : int array option option Atomic.t;
      (** memoized dyadic weights; use {!fixed_weights} *)
  passes : ((pass * Bitset.t * Bitset.t) * summary) list Atomic.t;
      (** memoized solved passes; use {!solved} *)
}

(** [compile ?is_tick expl] shares the fragment's CSR arrays and adds
    the tick mask and the float plane.  Without [is_tick] the tick mask
    is all-[false] (every step is zero-time), which is what the untimed
    step-bounded engines use. *)
val compile : ?is_tick:('a -> bool) -> ('s, 'a) Explore.t -> ('s, 'a) t

(** [of_pa ?max_states ?is_tick pa] = explore then compile. *)
val of_pa :
  ?max_states:int -> ?is_tick:('a -> bool) -> ('s, 'a) Core.Pa.t ->
  ('s, 'a) t

(** [assemble ~tick expl] is {!compile} with a stored tick mask (an
    arena snapshot's) in place of a predicate; {!compiles} is {e not}
    incremented.  The float plane is computed from the exact plane
    exactly as {!compile} does, so loaded arenas are bit-identical to
    freshly compiled ones; the zero-time, fingerprint and solved-pass
    memos start empty and fill on first use.  Raises [Invalid_argument]
    unless [tick] has one entry per step. *)
val assemble : tick:bool array -> ('s, 'a) Explore.t -> ('s, 'a) t

(** The strongly connected components of the zero-time (non-tick) step
    graph, successors first (see {!Zero_time}).  Independent of any
    target set; computed on first use and memoized (domain-safe,
    write-once [Atomic]). *)
val zero_time : ('s, 'a) t -> Zero_time.t

(** The exact plane as packed dyadic integers, for the fixed-point
    tier of {!Finite_horizon}: branch [o]'s weight [a/2^k] (in lowest
    terms, [k <= 56]) is [fixed.(o) = a lsl 6 lor k].  [None] unless
    every weight is dyadic and every step's weights sum to exactly 1.
    Computed on first use from [prob_q] and memoized on the arena
    (domain-safe, write-once [Atomic]); one int per branch. *)
val fixed_weights : ('s, 'a) t -> int array option

(** [solved arena pass ~target ~over solve] is [solve ()] on the first
    ask and the stored summary later.  The key is the pass and both
    state sets (read from {!set}), compared exactly.  Write-once per
    key by CAS like {!zero_time}: racing domains may both solve, either
    copy is the answer; a [solve] that raises (a deadline) stores
    nothing.  Raises [Invalid_argument] unless both sets range over
    [num_states] indices. *)
val solved :
  ('s, 'a) t -> pass -> target:Bitset.t -> over:Bitset.t ->
  (unit -> summary) -> summary

(** A deterministic structural digest of the compiled fragment (32 hex
    characters), stamped into certificate leaves ([lib/cert]) so a
    re-checker can tell {e which} explored system a model-checking
    result talks about.  Digests the CSR skeleton, the exact
    probability plane (canonical wire bytes), the tick mask and a
    structural hash of every interned state and action in index order;
    consequently it is identical across processes, domain counts and
    [--plane] choices, and distinct whenever the model,
    parameters, exploration budget or symmetry quotient differ.
    Memoized (write-once [Atomic], domain-safe like {!zero_time}). *)
val fingerprint : ('s, 'a) t -> string

(** {1 Mirrored fragment accessors} *)

val explored : ('s, 'a) t -> ('s, 'a) Explore.t
val automaton : ('s, 'a) t -> ('s, 'a) Core.Pa.t
val num_states : ('s, 'a) t -> int
val num_expanded : ('s, 'a) t -> int
val is_complete : ('s, 'a) t -> bool
val num_choices : ('s, 'a) t -> int
val num_branches : ('s, 'a) t -> int
val state : ('s, 'a) t -> int -> 's
val index : ('s, 'a) t -> 's -> int option
val start_indices : ('s, 'a) t -> int list

(** The fragment's memoized state set of a predicate: swept once per
    name, unions ORed from their operands ({!Explore.set}). *)
val set : ('s, 'a) t -> 's Core.Pred.t -> Bitset.t

(** {!set} as a boolean array, the target form of the engines' [bool
    array] entry points; the checker hands the engines {!set} itself. *)
val indicator : ('s, 'a) t -> 's Core.Pred.t -> bool array

(** {1 Step helpers} *)

(** Number of steps enabled at a state (zero on the frontier). *)
val num_steps_of : ('s, 'a) t -> int -> int

val action : ('s, 'a) t -> step:int -> 'a
val is_tick_step : ('s, 'a) t -> step:int -> bool

(** Process-wide count of {!compile} calls (including {!of_pa}); read
    by [Models.stats]. *)
val compiles : unit -> int
