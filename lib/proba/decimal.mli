(** Canonical decimal integers, written and read in place.

    The one spelling of an [int] is [string_of_int]'s: an optional
    ['-'] and the digits, with no leading zero, no ["-0"], no ['+'], no
    ['_'] and no radix prefix.  {!add} appends it to a [Buffer.t];
    {!parse} reads it from a byte range of a string.  Neither builds an
    intermediate string, so the snapshot sections, the arena
    fingerprint and the rational wire form render and read their
    numbers at the cost of the bytes themselves. *)

(** [add buf i] appends the bytes of [string_of_int i]. *)
val add : Buffer.t -> int -> unit

(** [parse s pos len] is [Some i] when the [len] bytes of [s] from
    [pos] are exactly [string_of_int i], and [None] for every other
    byte sequence: empty, a non-canonical spelling (["01"], ["-0"],
    ["+5"], ["0x10"], ["1_0"]) or a value outside the native [int]
    range.  Raises [Invalid_argument] when the range is not inside
    [s]. *)
val parse : string -> int -> int -> int option
