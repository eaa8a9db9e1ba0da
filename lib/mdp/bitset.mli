(** Immutable sets of the state indices [0 .. n - 1] of one fragment,
    one bit per index.

    The set memo of {!Explore.set} holds a region as one of these, so a
    union is a word-wise OR and an inclusion a word-wise subset test.
    No operation mutates a set once built, so sets are safe to share
    between domains. *)

type t

(** [init n f] is the set of the indices [i] in [0 .. n - 1] with
    [f i], [f] called once per index in increasing order. *)
val init : int -> (int -> bool) -> t

(** The universe size [n]. *)
val length : t -> int

val mem : t -> int -> bool

(** The first index in [0 .. n - 1] that is {e not} a member. *)
val first_absent : t -> int option

(** [union a b] and [subset a b] raise [Invalid_argument] unless [a]
    and [b] have one universe size. *)
val union : t -> t -> t

val subset : t -> t -> bool

(** Same universe size and same members. *)
val equal : t -> t -> bool

(** The set of the indices [i] with [a.(i)], over [Array.length a]. *)
val of_bools : bool array -> t

val to_bools : t -> bool array
