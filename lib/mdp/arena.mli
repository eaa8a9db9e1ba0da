(** Compiled CSR (compressed-sparse-row) form of an explored fragment.

    {!Explore.t} is the discovery structure: pointer-heavy
    [step array array] rows of boxed [(index, rational)] tuples, built
    incrementally by BFS.  Every engine question -- backward induction,
    value iteration, qualitative fixpoints, SCCs, export
    -- is a traversal of that same transition structure, so the arena
    flattens it once into dense parallel arrays and every engine reads
    the flat form:

    - [step_off.(i) .. step_off.(i+1) - 1] are the step indices of
      state [i] (CSR row pointers; length [num_states + 1]);
    - [out_off.(k) .. out_off.(k+1) - 1] are the branch indices of
      step [k] (length [num_choices + 1]);
    - [tgt.(o)] is the target state of branch [o], with its
      probability stored once per plane: exact in [prob_q.(o)], as an
      IEEE double in [prob_f.(o)] (the float plane is
      [Rational.to_float] of the exact plane, precomputed so
      float sweeps never convert in the inner loop);
    - [tick.(k)] is the precomputed tick mask -- this replaces the
      [~is_tick] closure formerly threaded through every engine
      signature;
    - [actions.(k)] is the original action of step [k].

    Step and branch order is exactly the {!Explore} order, so
    arithmetic performed in branch order is bit-identical to the
    pre-compiled path.

    Budgeted partial fragments compile unchanged: frontier states
    (indices [>= num_expanded]) have empty step rows, which downstream
    sweeps treat as stuck -- the same under-approximation semantics as
    {!Explore.partial}. *)

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
  interval : (float array * float array) option Atomic.t;
      (** memoized interval plane; use {!interval_plane} *)
  fp : string option Atomic.t;
      (** memoized structural fingerprint; use {!fingerprint} *)
  zero_time : Zero_time.t option Atomic.t;
      (** memoized zero-time component order; use {!zero_time} *)
  passes : ((pass * string * string) * summary) list Atomic.t;
      (** memoized solved passes; use {!solved} *)
}

(** [compile ?is_tick expl] flattens a fragment.  Without [is_tick] the
    tick mask is all-[false] (every step is zero-time), which is what
    the untimed step-bounded engines use. *)
val compile : ?is_tick:('a -> bool) -> ('s, 'a) Explore.t -> ('s, 'a) t

(** [of_pa ?max_states ?is_tick pa] = explore then compile. *)
val of_pa :
  ?max_states:int -> ?is_tick:('a -> bool) -> ('s, 'a) Core.Pa.t ->
  ('s, 'a) t

(** [assemble ~step_off ~out_off ~tgt ~prob_q ~tick ~actions expl]
    rebuilds an arena from CSR arrays produced by a previous {!compile}
    (an arena snapshot) without re-flattening the fragment; {!compiles}
    is {e not} incremented.  The float plane is recomputed from
    [prob_q] exactly as {!compile} does, so loaded arenas are
    bit-identical to freshly compiled ones; derived-plane and
    solved-pass memos start empty and fill on first use.  Raises
    [Invalid_argument] when the array lengths are mutually
    inconsistent. *)
val assemble :
  step_off:int array ->
  out_off:int array ->
  tgt:int array ->
  prob_q:Proba.Rational.t array ->
  tick:bool array ->
  actions:'a array ->
  ('s, 'a) Explore.t ->
  ('s, 'a) t

(** The outward-rounded interval plane as parallel [lo]/[hi] endpoint
    arrays in branch order: [lo.(o) <= prob_q.(o) <= hi.(o)] with
    correctly-rounded directed endpoints (equal whenever the
    probability is a finite double, which covers all dyadic models).
    Its one consumer is the certified expected-time bracket,
    {!Expected_time.max_expected_ticks_interval}; the reach engines
    never build it.  Computed from [prob_q] on first use and memoized:
    the memo is a write-once [Atomic], so racing domains both compute
    the identical plane and one copy wins. *)
val interval_plane : ('s, 'a) t -> float array * float array

(** The strongly connected components of the zero-time (non-tick) step
    graph, successors first (see {!Zero_time}).  Independent of any
    target set; computed on first use and memoized like
    {!interval_plane} (domain-safe, write-once). *)
val zero_time : ('s, 'a) t -> Zero_time.t

(** [solved arena pass ~target ~over solve] is [solve member] on the
    first ask ([member] reads [over] as packed once per state) and the
    stored summary later.  The key is the pass and both sets as bitsets
    of state indices, compared exactly.  Write-once per key by CAS like
    the planes: racing domains may both solve, either copy is the
    answer; a [solve] that raises (a deadline) stores nothing.  Raises
    [Invalid_argument] unless [target] has [num_states] entries. *)
val solved :
  ('s, 'a) t -> pass -> target:bool array -> over:(int -> bool) ->
  ((int -> bool) -> summary) -> summary

(** A deterministic structural digest of the compiled fragment (32 hex
    characters), stamped into certificate leaves ([lib/cert]) so a
    re-checker can tell {e which} explored system a model-checking
    result talks about.  Digests the CSR skeleton, the exact
    probability plane (canonical wire bytes), the tick mask and a
    structural hash of every interned state and action in index order;
    consequently it is identical across processes, domain counts and
    [--plane] choices, and distinct whenever the model,
    parameters, exploration budget or symmetry quotient differ.
    Memoized (write-once [Atomic], domain-safe like the planes). *)
val fingerprint : ('s, 'a) t -> string

(** {1 Mirrored fragment accessors} *)

val explored : ('s, 'a) t -> ('s, 'a) Explore.t
val automaton : ('s, 'a) t -> ('s, 'a) Core.Pa.t
val num_states : ('s, 'a) t -> int
val num_expanded : ('s, 'a) t -> int
val is_expanded : ('s, 'a) t -> int -> bool
val is_complete : ('s, 'a) t -> bool
val num_choices : ('s, 'a) t -> int
val num_branches : ('s, 'a) t -> int
val state : ('s, 'a) t -> int -> 's
val index : ('s, 'a) t -> 's -> int option
val start_indices : ('s, 'a) t -> int list
val states_where : ('s, 'a) t -> ('s -> bool) -> int list
val indicator : ('s, 'a) t -> 's Core.Pred.t -> bool array

(** {1 Step helpers} *)

(** Number of steps enabled at a state (zero on the frontier). *)
val num_steps_of : ('s, 'a) t -> int -> int

val action : ('s, 'a) t -> step:int -> 'a
val is_tick_step : ('s, 'a) t -> step:int -> bool

(** Process-wide count of {!compile} calls (including {!of_pa}); read
    by [Models.stats]. *)
val compiles : unit -> int
