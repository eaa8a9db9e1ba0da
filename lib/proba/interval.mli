(** Outward-rounded double intervals.

    A value [{lo; hi}] encloses an exact real; every operation rounds
    [lo] down and [hi] up, so enclosures are preserved using nothing
    but double arithmetic.  A {e point} interval ([lo = hi], finite)
    contains exactly one real, and that real is a dyadic rational
    recoverable with {!Rational.of_float_exact}.  The certified
    expected-time bracket of value iteration sweeps this plane.

    The directed helpers are {e correctly rounded} wherever the
    operation's residual is exactly representable (always for [+.];
    for [*.] outside the near-subnormal zone, where one extra ulp of
    widening is applied) — tightness is what lets intervals collapse
    to points on dyadic models. *)

type t = private { lo : float; hi : float }

val lo : t -> float
val hi : t -> float

(** {1 Directed scalar arithmetic}

    Sound double endpoints for engines that keep raw [lo]/[hi] arrays:
    [add_down a b <= a + b <= add_up a b] (as reals, for the exact
    reals enclosed by [a] and [b]), and likewise for [mul_*].
    Overflow saturates soundly ([max_float] inward, infinity
    outward). *)

val add_down : float -> float -> float
val add_up : float -> float -> float
val mul_down : float -> float -> float
val mul_up : float -> float -> float

(** {1 Construction} *)

(** Raises [Invalid_argument] when [lo > hi] or an endpoint is nan. *)
val make : float -> float -> t

(** Point interval. Raises [Invalid_argument] on nan. *)
val of_float : float -> t

(** Tightest interval around an exact rational (correctly rounded
    endpoints; a point whenever the rational is a finite double). *)
val of_rational : Rational.t -> t

val zero : t
val one : t

(** {1 Interval arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

(** Exact (no widening): interval min/max are componentwise. *)
val min : t -> t -> t

val max : t -> t -> t

(** {1 Oracle queries} *)

(** [lo = hi] — the interval pins a single real. *)
val is_point : t -> bool

(** The pinned rational of a finite point interval, [None] otherwise. *)
val exact_value : t -> Rational.t option

val contains : t -> Rational.t -> bool

(** Sound three-way comparison against an exact rational: [Some c]
    only when the interval proves it ([-1]: entirely below [q], [1]:
    entirely above, [0]: point equal); [None] when the interval
    straddles [q]. *)
val compare_to : t -> Rational.t -> int option

val width : t -> float
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
