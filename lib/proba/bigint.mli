(** Arbitrary-precision signed integers.

    Implemented from scratch (zarith is not available in this environment)
    on top of base-[2^30] little-endian limb arrays, so that limb products
    fit comfortably in OCaml's native 63-bit integers.

    Values are immutable and canonical: no leading zero limbs, and zero is
    represented with an empty magnitude.  All operations are purely
    functional. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t

(** {1 Conversions} *)

(** [of_int n] converts a native integer exactly. *)
val of_int : int -> t

(** [to_int x] returns [Some n] if [x] fits in a native [int]. *)
val to_int : t -> int option

(** [to_int_exn x] is [to_int x] or raises [Failure] if out of range. *)
val to_int_exn : t -> int

(** [to_float x] converts with rounding; very large values map to
    [infinity]/[neg_infinity]. *)
val to_float : t -> float

(** [of_string s] parses an optionally ['-']-prefixed decimal numeral.
    Raises [Invalid_argument] on malformed input. *)
val of_string : string -> t

(** [to_string x] renders a decimal numeral. *)
val to_string : t -> string

(** {1 Comparisons} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val sign : t -> int
val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is truncated division: [(q, r)] with [a = q*b + r],
    [|r| < |b|] and [r] carrying the sign of [a] (or zero).
    Raises [Division_by_zero] if [b] is zero. *)
val divmod : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

(** [gcd a b] is the non-negative greatest common divisor; [gcd 0 0 = 0]. *)
val gcd : t -> t -> t

(** [pow x n] raises to a non-negative power.  Raises [Invalid_argument]
    if [n < 0]. *)
val pow : t -> int -> t

(** [mul_int x n] multiplies by a native integer. *)
val mul_int : t -> int -> t

(** [add_int x n] adds a native integer. *)
val add_int : t -> int -> t

(** {1 Bit operations} *)

(** [shift_left x k] is [x * 2^k].  Raises [Invalid_argument] on
    [k < 0]. *)
val shift_left : t -> int -> t

(** [shift_right x k] is [x / 2^k] truncated toward zero.
    Raises [Invalid_argument] on [k < 0]. *)
val shift_right : t -> int -> t

(** Is the magnitude even?  ([is_even zero = true].) *)
val is_even : t -> bool

(** Number of trailing zero bits of the magnitude; 0 for zero. *)
val trailing_zeros : t -> int

(** {1 Misc} *)

(** Number of bits in the magnitude (0 for zero). *)
val bit_length : t -> int

val pp : Format.formatter -> t -> unit
