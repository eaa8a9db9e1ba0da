(** Intern tables: keys numbered [0, 1, 2, ...] in insertion order,
    under caller-supplied hash and equality functions.

    [Stdlib.Hashtbl.Make] requires a module; the automata here carry
    their state equality/hash as record fields, so exploration needs a
    table parameterized by plain functions.  Every user of the table
    (the BFS of {!Explore}, its snapshot rebuild, orbit closure and
    orbit counting in [Analysis.Symmetry]) numbers keys densely, so the
    table stores the numbering and nothing else.

    Open addressing over two int arrays, the full hash and the index of
    each occupied slot, with the keys in a third array by index: a
    probe compares hashes before it calls [equal], and an insert
    allocates nothing until the table doubles.  [equal] keys must have
    equal [hash]es. *)

type 'k t

(** [create ~equal ~hash n] makes an empty table with room for [n]
    keys (at least 16) before it first grows. *)
val create : equal:('k -> 'k -> bool) -> hash:('k -> int) -> int -> 'k t

(** The number of keys. *)
val length : 'k t -> int

(** [find t k] is the index of [k], or [-1] when [k] is absent. *)
val find : 'k t -> 'k -> int

(** The number of keys the key array has room for before it grows. *)
val capacity : 'k t -> int

(** [trim t] shrinks the key array to [length t] entries: for a table
    that takes no more keys (a later insert grows it again). *)
val trim : 'k t -> unit

(** [key t i] is the key with index [i]; raises [Invalid_argument]
    unless [0 <= i < length t]. *)
val key : 'k t -> int -> 'k

(** [find_or_add t k admit] is the index of [k].  When [k] is absent,
    [admit i] is called first with the index [i = length t] that [k]
    is about to get, then [k] is added under it.  One hash and one
    probe either way -- the intern hot path of {!Explore} -- where
    [find]-then-add would hash and probe twice.  If [admit] raises,
    the table is unchanged. *)
val find_or_add : 'k t -> 'k -> (int -> unit) -> int
