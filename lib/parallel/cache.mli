(** A mutex-guarded LRU cache with cost accounting: the one LRU of the
    process.

    The service keeps finished query results in one, keyed by the
    canonical request ([Server.Protocol.canonical_key]) and costed in
    body bytes; the [Models] registry keeps compiled case-study
    instances in another, costed from their arena size.  Both are
    sized from [prtb serve --cache-mb].

    Entries carry a cost fixed at creation ([cost v]); when the total
    cost exceeds the capacity, least-recently used entries are
    evicted.  A single value larger than the whole capacity is
    accepted but evicted immediately (the caller keeps the value it
    just computed either way).

    Lookups and insertions are serialized by an internal mutex, so a
    cache can be shared by every worker domain.  Misses are {e not}
    locked through the compute: two workers may race to fill the same
    key, in which case the second insert wins and the loser's work is
    wasted but harmless (values for equal keys are equal). *)

type 'v t

(** [create ?capacity ~cost ()]: [capacity] is the total cost bound
    ([None] = unbounded); [cost v] is charged at insertion time. *)
val create : ?capacity:int -> cost:('v -> int) -> unit -> 'v t

(** [find t key] returns the cached value and marks it most recently
    used.  Counts a hit or a miss. *)
val find : 'v t -> string -> 'v option

(** [mem t key] is whether [key] is cached; it counts nothing and
    leaves the recency order alone. *)
val mem : 'v t -> string -> bool

(** [add t key v] inserts (replacing any previous value under [key])
    and evicts LRU entries while over capacity. *)
val add : 'v t -> string -> 'v -> unit

(** [set_capacity t capacity] rebounds the cache, evicting LRU entries
    at once while over the new capacity. *)
val set_capacity : 'v t -> int option -> unit

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  entries : int;
  cost_bytes : int;
  capacity : int option;
}

val stats : 'v t -> stats
