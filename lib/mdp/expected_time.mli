(** Worst-case expected time to reach a target.

    Computes [sup] over adversaries of the expected number of
    ticks before the target is first visited, by floating-point value
    iteration over the arena's float plane, [prob_f].  This is the one
    expected-time engine and the one reader of that plane.  The
    quantity is a {e measurement} used to compare against the paper's
    derived bounds (60 from RT to P, at most 63 from T to C), not a
    certified claim; the certified path goes through
    {!Finite_horizon} and {!Core.Expected}, and nothing yet checks the
    float answer against the exact plane.

    States from which some adversary avoids the target with positive
    probability have unbounded worst-case expected time; they are
    detected with {!Qualitative.always_reaches} and reported as
    [infinity].

    Tick costs come from the arena's precomputed tick mask; the float
    plane is the same [Rational.to_float] image the historical code
    computed per access, so the fixpoints are bit-identical.

    The iteration is one sequential, in-place Gauss-Seidel sweep in
    state-index order; its printed value depends on that schedule in
    the low-order bits, which is why there is exactly one.  A sweep
    skips the states none of whose successors changed since their last
    evaluation: they would recompute the same bits, so the iterates,
    every sweep's largest update and the sweep count are those of
    sweeping every state.

    The index, the flags and the value vector of a pass are borrowed
    from the domain's {!Scratch} pool, so {!max_expected_over}, the
    form the checker runs, allocates no state-sized vector once the
    domain's pool holds them; the [bool array] entry points run the
    same pass and copy its values out. *)

(** [max_expected_over arena ~target ~over] is the maximum of
    {!max_expected_ticks} toward the set [target] over the members of
    [over] ([0.] when there are none), the first member in index order
    attaining it, and the number of members, at the default [epsilon]
    and [max_sweeps].  Raises [Invalid_argument] unless both sets range
    over the arena's states. *)
val max_expected_over :
  ('s, 'a) Arena.t -> target:Bitset.t -> over:Bitset.t ->
  float * int option * int

(** [max_expected_ticks arena ~target ()] returns per-state worst-case
    expected ticks-to-target ([infinity] where some adversary avoids
    the target).  Iterates until the largest update falls below
    [epsilon] (default [1e-12]) or [max_sweeps] (default [1_000_000]) is
    hit, whichever is first; raises [Failure] when the sweep budget runs
    out. *)
val max_expected_ticks :
  ('s, 'a) Arena.t -> target:bool array ->
  ?epsilon:float -> ?max_sweeps:int -> unit -> float array

(** Like {!max_expected_ticks}, additionally extracting a memoryless
    worst-case adversary: [policy.(s)] is the index of the step the
    maximizing adversary takes at state [s] ([-1] at target, terminal,
    or non-surely-reaching states).  For expected total cost,
    memoryless adversaries attain the extremum, so the extracted policy
    can be replayed by the simulator to cross-validate the value
    iteration (experiment E8). *)
val max_expected_ticks_with_policy :
  ('s, 'a) Arena.t -> target:bool array ->
  ?epsilon:float -> ?max_sweeps:int -> unit -> float array * int array
