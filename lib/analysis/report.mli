(** Lint reports: diagnostics plus per-model exploration statistics.

    A report aggregates the findings for one or several lint targets
    (reports {!merge} monoidally, so [prtb lint] can fold one report
    per model into a single run summary).  Rendering is either
    human-readable text or compact JSON for CI consumption; the exit
    code policy lives here so the CLI and the test suite agree on
    it. *)

type model_stats = {
  model : string;
  states : int;  (** reachable states explored *)
  choices : int;  (** (state, step) pairs *)
  branches : int;  (** probabilistic branches *)
  skipped : string list;  (** checks not run, with reasons *)
}

type t

val empty : t

(** [make stats diags] is a single-model report. *)
val make : model_stats -> Diagnostic.t list -> t

val merge : t -> t -> t
val merge_all : t list -> t

val diagnostics : t -> Diagnostic.t list
val stats : t -> model_stats list

val errors : t -> int
val warnings : t -> int
val has_errors : t -> bool

(** [mem code t]: some diagnostic with that code is present (at any
    severity). *)
val mem : Diagnostic.code -> t -> bool

(** [mem_error code t]: an error-severity diagnostic with that code is
    present. *)
val mem_error : Diagnostic.code -> t -> bool

(** 0 when nothing fails; 1 when errors are present (or, with
    [~strict:true], when warnings are). *)
val exit_code : ?strict:bool -> t -> int

(** Human-readable rendering: per-model statistics, diagnostics grouped
    most severe first, and a one-line summary. *)
val pp_text : Format.formatter -> t -> unit

val to_json : t -> Json.t
