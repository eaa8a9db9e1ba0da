(** Deterministic, splittable pseudo-random number generation.

    The container this library runs in is sealed, so we avoid OS entropy
    entirely: every simulation is seeded explicitly and therefore exactly
    reproducible.  The generator is xoshiro256++ with SplitMix64 used for
    state initialization and for {!split}. *)

type t

(** [create ~seed] builds a generator deterministically from a seed. *)
val create : seed:int -> t

(** [copy rng] snapshots the generator state. *)
val copy : t -> t

(** [split rng] derives an independent generator; the parent advances.
    Use this to give each simulation trial its own stream. *)
val split : t -> t

(** [bits64 rng] draws 64 uniformly distributed bits. *)
val bits64 : t -> int64

(** [int rng bound] draws uniformly from [0, bound) without modulo bias.
    Raises [Invalid_argument] unless [bound > 0]. *)
val int : t -> int -> int

(** [float rng] draws uniformly from [0, 1) with 53 bits of precision. *)
val float : t -> float

(** [bool rng] draws a fair boolean. *)
val bool : t -> bool

(** [pick rng xs] draws a uniform element of a non-empty list. *)
val pick : t -> 'a list -> 'a
