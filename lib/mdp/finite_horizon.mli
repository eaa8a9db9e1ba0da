(** Exact time-bounded reachability under all adversaries.

    Computes, by backward induction with exact rational arithmetic, the
    minimum (or maximum) over all adversaries of the probability of
    reaching a target set within a given number of time units -- the
    quantity bounded by a statement [U -t->_p U'] (Definition 3.1).

    Time is carried by the arena's precomputed tick mask (see
    {!Arena}): the horizon counts ticks, and non-tick steps take zero
    time.  Each tick layer is the fixpoint of the Bellman operator,
    solved in one walk over the zero-time components of
    {!Arena.zero_time}, successors first: a state outside every
    zero-time cycle is evaluated once, and only the states of a
    zero-time cycle are swept in place to their local fixpoint.  That
    terminates exactly when zero-time cycles cannot carry
    probabilistic mass around a loop, which holds for automata whose
    non-tick steps consume a per-slot budget (the digital-clock
    construction used by the case studies).  If a component fails to
    close after [num_states + 2] sweeps, {!No_convergence} is raised
    rather than returning an unsound answer.

    Quantification is over all non-halting adversaries: the adversary
    must pick some enabled step when one exists.  Halting at will would
    make every minimum trivially zero; the timing schemas of the paper
    (e.g. [Unit-Time]) likewise force time to keep flowing.

    There is one engine, sequential, with two tiers of exact values
    sharing that walk.  When every weight of the arena is dyadic and
    every step's weights sum to 1 ({!Arena.fixed_weights}: the paper's
    fair coins), a value is an int [m] meaning [m/2^61], and each
    product is checked exact (the low bits it shifts out are zero), so
    a layer allocates nothing.  The first product that would need more
    than 61 fractional bits ends that tier: the pass goes on in exact
    rationals ({!Proba.Rational}) from the last completed layer, as
    does every pass on an arena with other weights.  Both tiers compute
    the same exact values, and the rationals handed out are canonical,
    so results are bit-identical whichever tier produced them.  Branch
    order is the exploration order.

    The target is a set of the arena's states ({!Bitset.t}, as
    {!Arena.set} memoizes it); the entry points that take a [bool
    array] convert it and run the same pass.  A pass's per-state flags
    and the fixed tier's two value vectors are borrowed from the
    domain's {!Scratch} pool, so passes run one after another on a
    domain allocate them once; the rational tier allocates its
    vectors. *)

exception No_convergence of string

(** [min_reach arena ~target ~ticks] gives, per state index, the
    minimum over all adversaries of the probability that a [target]
    state is visited within [ticks] ticks (a state already in [target]
    has value 1).  Raises [Invalid_argument] if [ticks < 0] or the
    target has another length than the arena's state count. *)
val min_reach :
  ('s, 'a) Arena.t -> target:bool array -> ticks:int ->
  Proba.Rational.t array

(** Maximum over all adversaries (best-case scheduling). *)
val max_reach :
  ('s, 'a) Arena.t -> target:bool array -> ticks:int ->
  Proba.Rational.t array

(** [min_reach_over arena ~target ~ticks ~over] is {!min_reach} toward
    the set [target], folded over the members of [over]: the minimum
    ([1] for an empty set), the first member in index order attaining
    it, and the number of members.  Only the minimum is converted to a
    rational, so on the fixed tier the pass allocates no state-sized
    vector. *)
val min_reach_over :
  ('s, 'a) Arena.t -> target:Bitset.t -> ticks:int -> over:Bitset.t ->
  Proba.Rational.t * int option * int

(** [min_reach_with_policy] additionally returns an optimal memoryless
    (per-layer) adversary: [policy.(t).(s)] is the index of the step the
    minimizing adversary takes at state [s] with [t] ticks of budget
    remaining ([-1] when the state is in the target, or terminal). *)
val min_reach_with_policy :
  ('s, 'a) Arena.t -> target:bool array -> ticks:int ->
  Proba.Rational.t array * int array array

(** Tick layers solved so far by this process, across every entry
    point above and every domain: the engine's unit of work, printed
    by [prtb check --stats].  A layer counts once when it closes, on
    whichever tier closed it, so a pass of [ticks] adds [ticks + 1]. *)
val layers_solved : unit -> int
