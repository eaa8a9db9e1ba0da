(** Probability-plane selection for the certifying engines.

    [Interval] (the default) lets threshold-style engines sweep the
    outward-rounded {!Proba.Interval} plane first and re-derive exact
    rationals only for the residue — states whose interval did not
    collapse to a point.  [Exact] forces the legacy pure-exact sweeps.
    Verdicts and all reported exact bounds are bit-identical on both
    planes; the interval pass is an optimization oracle, never an
    answer. *)

type t = Exact | Interval

val to_string : t -> string

(** Process-global default plane (initially [Interval]); stored in an
    [Atomic.t] because engines run inside worker domains. *)

val set_default : t -> unit

val get_default : unit -> t

(** [with_ambient p f] runs [f ()] with [p] as the ambient plane for
    the current domain: {!get_default} (and therefore {!resolve} on
    [None]) answers [p] inside [f], and the previous ambient is
    restored on exit, normal or exceptional.  Scopes a plane choice to
    one request without mutating the process default -- the server
    wires each query's [plane] field through this.  The override is
    domain-local, so concurrent requests cannot race each other's
    choice. *)
val with_ambient : t -> (unit -> 'a) -> 'a

(** [resolve plane] is [plane] when given, the global default
    otherwise — the convention used by every [?plane] parameter. *)
val resolve : t option -> t

(** {1 Interval-pass statistics}

    Cumulative process-global counters, surfaced by
    [prtb check --stats].  A "pass" is one interval-guided layer;
    [point_states]/[residue_states] count how many per-state results
    the interval oracle pinned vs. left for exact recomputation, and
    [exact_fallbacks] counts layers where the interval fixpoint failed
    to close and the whole layer was redone exactly. *)

type stats = {
  interval_passes : int;
  point_states : int;
  residue_states : int;
  exact_fallbacks : int;
}

val record_pass : points:int -> residue:int -> unit
val record_fallback : unit -> unit
val reset_stats : unit -> unit
val stats : unit -> stats

(** Renders the counters; when no engine consulted the interval plane
    at all (support-only qualitative runs, or [--plane exact]) it
    prints ["n/a"] instead of a row of zeros, so "the oracle was never
    asked" cannot be misread as "the oracle decided everything". *)
val pp_stats : Format.formatter -> stats -> unit
