(** Exact rational arithmetic.

    Rationals are kept in canonical form: the denominator is positive and
    the numerator/denominator pair is coprime.  All probability
    computations in this library use this type so that statements such as
    [G -5->_{1/4} P] are checked exactly rather than up to floating-point
    error.  The one conversion to floats is {!to_float}, which builds
    the arena's float plane for expected-time value iteration. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val half : t
val two : t

(** {1 Construction} *)

(** [make num den] is [num/den] in canonical form.
    Raises [Division_by_zero] if [den] is zero. *)
val make : Bigint.t -> Bigint.t -> t

(** [of_ints num den] is [num/den]. Raises [Division_by_zero] on [den=0]. *)
val of_ints : int -> int -> t

val of_int : int -> t
val of_bigint : Bigint.t -> t

(** [of_string s] parses ["a/b"], ["a"], or a decimal like ["0.25"].
    Raises [Invalid_argument] on malformed input. *)
val of_string : string -> t

(** {1 Accessors} *)

val num : t -> Bigint.t
val den : t -> Bigint.t
val to_float : t -> float

(** {1 Comparisons} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val sign : t -> int
val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t
val leq : t -> t -> bool
val lt : t -> t -> bool
val geq : t -> t -> bool
val gt : t -> t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** Raises [Division_by_zero] when dividing by zero. *)
val div : t -> t -> t

val inv : t -> t

(** [pow x n] for any integer [n] (negative powers invert; raises
    [Division_by_zero] on [pow zero n] with [n < 0]). *)
val pow : t -> int -> t

(** [mul_int x n] is [x * n]. *)
val mul_int : t -> int -> t

(** {1 Probability helpers} *)

(** [is_probability x] is [0 <= x <= 1]. *)
val is_probability : t -> bool

(** [sum xs] adds a list of rationals. *)
val sum : t list -> t

(** {1 Printing} *)

(** Renders ["num/den"] (or just ["num"] when the denominator is 1). *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** {1 Wire encoding}

    The exact interchange form used by proof certificates
    ([lib/cert]): canonical ["num/den"] (or ["num"]), safe past the
    native-int promotion boundary because both components travel as
    decimal numerals through the {!Bigint} tier. *)

(** [to_wire q] is the canonical encoding (same bytes as
    {!to_string}). *)
val to_wire : t -> string

(** [add_wire buf q] appends the bytes of [to_wire q] to [buf]; a
    small-tier value is written digit by digit, with no intermediate
    string. *)
val add_wire : Buffer.t -> t -> unit

(** [of_wire s] parses exactly the strings {!to_wire} emits.
    Non-canonical spellings of a value (["2/4"], ["+1/2"], ["1/-2"],
    decimals) are rejected, so an encoded weight has one and only one
    byte representation -- tampering cannot hide behind an alias.
    The canonical wire of a small-tier value (["n"] or ["n/d"], both
    native ints) is read in place; every other input goes through
    {!of_string} and is accepted only if {!to_wire} gives its bytes
    back, so both paths accept and refuse the same strings. *)
val of_wire : string -> (t, string) result

(** [of_wire_sub s pos len] is [of_wire (String.sub s pos len)],
    without the copy when the bytes are a small-tier wire.  Raises
    [Invalid_argument] when the range is not inside [s]. *)
val of_wire_sub : string -> int -> int -> (t, string) result
