(** The probability-plane label of a query.

    Every reach engine computes in exact rationals, so the label
    selects nothing.  It stays a validated value: the CLI's [--plane]
    and the protocol's [plane] field accept exactly ["interval"] and
    ["exact"], the served cache key keeps it as a dimension, and each
    certificate leaf records it. *)

type t = Exact | Interval

val to_string : t -> string

(** {1 Compatibility names}

    [bench/e2e/traced.ml] still compiles against the names below; they
    go with the next change to that benchmark.  Nothing in the library
    or the CLI calls them. *)

(** [with_ambient p f] is [f ()]: there is no plane to scope. *)
val with_ambient : t -> (unit -> 'a) -> 'a

(** The fields [bench/e2e/traced.ml] reads. *)
type stats = {
  point_states : int;
  residue_states : int;
  exact_fallbacks : int;
}

(** Always zero. *)
val stats : unit -> stats
