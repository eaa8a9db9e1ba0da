(** Spans recorded around calls into the program's layers, their self
    times, and the Chrome trace-event JSON they are written as.

    A span is one timed interval with a name and a parent link.  Spans
    from different processes and threads share one monotonic timeline,
    so a trace merged from several children still nests correctly; the
    [(pid, id)] pair identifies a span. *)

type span = {
  pid : int;  (** which process of the run (0 for prtb_bench itself) *)
  tid : int;  (** which thread *)
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  start_ns : int;
  dur_ns : int;
}

(** A recorder.  {!with_span} keeps a stack of open spans and is meant
    for one thread; {!add} may be called from any thread. *)
type t

val create : ?pid:int -> unit -> t

(** [with_span t name f] times [f ()] as a child of the innermost open
    span (a root when none is open). *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** The innermost open span's id, [-1] when none is open. *)
val current : t -> int

(** Record an interval measured elsewhere; returns its id. *)
val add :
  t -> ?tid:int -> parent:int -> name:string -> start_ns:int -> dur_ns:int ->
  unit -> int

(** Everything recorded so far, in recording order. *)
val spans : t -> span list

(** [self_times spans] pairs each span with its self time: its
    duration minus the part of its interval that the union of its
    children's intervals covers.  Children may overlap one another
    (two client threads under one parent); overlap is counted once. *)
val self_times : span list -> (span * int) list

(** Each root span (no parent) paired with the share of its duration
    attributed to named descendant spans, [1 - self(root) / dur(root)];
    [1.] for a zero-length root. *)
val coverage : span list -> (span * float) list

(** Sum of self times per span name, in nanoseconds. *)
val self_by_name : span list -> (string, int) Hashtbl.t

(** Chrome trace-event JSON ([ph:"X"] complete events, microsecond
    timestamps measured from [base_ns], the parent link in [args]);
    opens in Perfetto or chrome://tracing.  [base_ns] defaults to the
    earliest span's start; pass [0] to keep absolute times, as child
    processes do so that the parent can merge their spans. *)
val to_json : ?base_ns:int -> span list -> Analysis.Json.t

(** Inverse of {!to_json} up to sub-nanosecond rounding (start times
    come back relative to the [base_ns] they were written with).  Also
    accepts a bare event array. *)
val of_json : Analysis.Json.t -> (span list, string) result
