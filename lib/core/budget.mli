(** Resource budgets for the verification engines.

    The exact engines are only as useful as their worst failure mode: an
    exploration that dies with an exception after minutes of work helps
    nobody.  A budget bounds what an engine may consume -- interned
    states, wall-clock seconds -- and a {!clock} tracks consumption so
    that several phases (exploration, then Monte Carlo fallback) can
    share one allowance.  Engines never raise on exhaustion; they return
    partial work labelled with {!exhausted}'s reason.

    The retry fields drive the Monte Carlo backoff policy: when an
    estimate is requested under a wall budget, trials run in batches
    that grow geometrically ([retries] rounds, doubling each time) until
    the clock runs out, so short budgets still produce an interval and
    long budgets tighten it. *)

type t = {
  max_states : int option;  (** interned-state bound for exploration *)
  wall : float option;  (** wall-clock allowance, in seconds *)
  retries : int;  (** Monte Carlo batch rounds (doubling backoff) *)
}

(** No bounds at all; [retries] = 6. *)
val unlimited : t

val v : ?max_states:int -> ?wall:float -> ?retries:int -> unit -> t

(** [of_string spec] parses a comma-separated budget such as
    ["states:100000,wall:30s,retries:4"].  [wall] accepts a plain
    number of seconds or the suffixes [ms], [s], [m]. *)
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
val budget : clock -> t

(** Seconds since {!start}. *)
val elapsed : clock -> float

(** [None] while within bounds; otherwise a human-readable reason
    naming the dimension that ran out ([states] is the current
    interned-state count of the consumer). *)
val exhausted : ?states:int -> clock -> string option

(** Seconds left on the wall allowance, or [None] if the budget has no
    wall dimension.  Negative once the allowance is spent. *)
val remaining : clock -> float option

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
    is allowed; the innermost deadline wins for the dynamic extent. *)
val with_deadline : clock -> (unit -> 'a) -> 'a

(** Low-level variants of {!with_deadline} for non-nested lifetimes
    (e.g. one server request handled entirely on one worker domain). *)
val set_deadline : clock option -> unit

val current_deadline : unit -> clock option

(** Raises {!Deadline_exceeded} iff the ambient deadline's wall
    allowance is spent.  No-op (and near-free) otherwise. *)
val poll : unit -> unit
