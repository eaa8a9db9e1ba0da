(** The [prtba/1] container: a versioned, digest-sealed section file.

    A snapshot is a magic line, a sequence of named length-prefixed
    sections, and a trailing digest section sealing every preceding
    byte -- the same length-prefixed framing [lib/cert] hashes with
    ("len:bytes", so no concatenation of fields can collide with
    another split of the same bytes), lifted into a file format.
    {!decode} is a strict parser in the [lib/cert] style: anything
    unexpected -- wrong magic, unknown version, a truncated frame,
    bytes after the seal, a digest mismatch (any one-byte tamper) --
    is a named [Error], never an exception and never silent slack.

    The layer is content-agnostic: it moves named byte strings.
    {!Store} owns what the sections of an arena snapshot mean. *)

(** ["prtba/1\n"]. *)
val magic : string

(** [encode sections] renders the container: magic, each [(name,
    payload)] section in order, then the [digest] section sealing all
    preceding bytes. *)
val encode : (string * string) list -> string

(** A section payload where it lies: the [len] bytes of [src] from
    offset [ofs]. *)
type span = { src : string; ofs : int; len : int }

val span_to_string : span -> string

(** Strict inverse of {!encode}: the sections in file order, digest
    verified and consumed, each payload left in place in the input.
    All failure modes are named errors ("unsupported snapshot
    version", "truncated snapshot", "snapshot digest mismatch", ...). *)
val decode_spans : string -> ((string * span) list, string) result

(** {!decode_spans} with each payload copied out. *)
val decode : string -> ((string * string) list, string) result

(** {1 Scalar-array payload codecs}

    Sections store machine integers and booleans as text (portable
    across word sizes and endianness, trivially inspectable), and
    exact rationals through {!Proba.Rational.to_wire} (canonical
    bytes, Bigint-tier safe).  The readers accept only what the
    writers emit: an integer (an element, or a frame's length prefix)
    is exactly [string_of_int]'s spelling, so ["01"], ["+5"], ["-0"],
    ["0x10"] and ["1_0"] are refused, and a rational is exactly
    {!Proba.Rational.of_wire}'s.  Frames are read in place, with no
    per-element string. *)

(** The [_of_span] readers parse a payload in place and accept and
    refuse exactly what the [_of_string] reader of the same bytes
    does, with the same messages. *)

val strs_to_string : string list -> string
val strs_of_string : string -> (string list, string) result
val ints_to_string : int array -> string
val ints_of_string : string -> (int array, string) result
val ints_of_span : span -> (int array, string) result
val bools_to_string : bool array -> string
val bools_of_string : string -> (bool array, string) result
val bools_of_span : span -> (bool array, string) result
val rats_to_string : Proba.Rational.t array -> string
val rats_of_string : string -> (Proba.Rational.t array, string) result
val rats_of_span : span -> (Proba.Rational.t array, string) result
