(** Resource budgets for the verification engines.

    A budget bounds what a verification may consume -- interned
    states, wall-clock seconds.  The state bound is the exploration's
    [max_states], reached by raising; the wall allowance is a {!clock}
    shared by several phases (exploration, then a Monte Carlo
    fallback): the exact phases run under it as the ambient deadline,
    and the budgeted estimator reads {!exhausted} between its chunks. *)

type t = {
  max_states : int option;  (** interned-state bound for exploration *)
  wall : float option;  (** wall-clock allowance, in seconds *)
}

(** No bounds at all. *)
val unlimited : t

val v : ?max_states:int -> ?wall:float -> unit -> t

(** [of_string spec] parses a comma-separated budget such as
    ["states:100000,wall:30s"].  [wall] accepts a plain number of
    seconds or the suffixes [ms], [s], [m]; any other dimension is
    refused by name. *)
val of_string : string -> (t, string) result

(** Parse one duration ([50ms], [30s], [2m], or plain seconds) to
    seconds; the wall dimension of {!of_string}, exposed for flags like
    [--deadline] that take a bare duration. *)
val parse_wall : string -> (float, string) result

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Consumption tracking} *)

(** A started budget: remembers when measuring began. *)
type clock

val start : t -> clock

(** [None] while the wall allowance lasts (always, without one);
    otherwise a human-readable reason. *)
val exhausted : clock -> string option

(** {1 Ambient deadlines}

    A budget clock tracks consumption cooperatively: code that holds
    the clock asks {!exhausted}.  A {e deadline} is the adversarial
    variant: the caller (the serving layer, or [--deadline] on the CLI)
    arms a per-domain ambient clock and every engine hot loop calls
    {!poll}, which raises {!Deadline_exceeded} the moment the wall
    allowance is spent -- cancellation reaches mid-sweep, not just
    between phases.  [poll] is a few loads when no deadline is armed,
    so it is safe in the innermost loops.

    The ambient clock is domain-local.  The helpers of a
    {!Parallel}[.Fork] region, spawned per call, are handed the
    caller's deadline and poll it themselves. *)

exception Deadline_exceeded of string

(** [with_deadline c f] runs [f ()] with the ambient deadline set to
    [c], restoring the previous deadline (even on exceptions).  Nesting
    is allowed; a nested deadline never extends the one already armed:
    whichever expires first is in force for the dynamic extent. *)
val with_deadline : clock -> (unit -> 'a) -> 'a

(** Low-level variants of {!with_deadline} for non-nested lifetimes
    (e.g. one server request handled entirely on one worker domain). *)
val set_deadline : clock option -> unit

val current_deadline : unit -> clock option

(** Raises {!Deadline_exceeded} iff the ambient deadline's wall
    allowance is spent.  No-op (and near-free) otherwise. *)
val poll : unit -> unit
