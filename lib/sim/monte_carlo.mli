(** Repeated-trial estimation on top of {!Engine}.

    Each trial gets an independent generator split off a root seed, so
    experiments are exactly reproducible and embarrassingly restartable.
    Probability estimates come back as Wilson-interval proportions; time
    estimates as running summaries.

    Trials run in a fixed grid of chunks through {!Parallel.Fork}, across
    the host's cores (inline on a domain that already owns one).  The
    per-trial generators are split off the root before any trial runs
    and results are combined in chunk order, so every estimate is a
    function of [~seed] alone -- bit-identical on any number of
    domains.  [?helpers] is {!Parallel.Fork.run}'s: tests pass it to
    force helper domains on a one-core host. *)

type ('s, 'a) setup = {
  pa : ('s, 'a) Core.Pa.t;
  scheduler : ('s, 'a) Scheduler.t;
  duration : 'a -> int;
  start : 's;
}

(** [estimate_reach setup ~target ~within ~trials ~seed] estimates
    [P(reach target within time)] ([within] in slots). *)
val estimate_reach :
  ?helpers:int ->
  ('s, 'a) setup -> target:('s -> bool) -> within:int -> trials:int ->
  seed:int -> Proba.Stat.Proportion.t

(** Outcome of a budgeted estimation: the Wilson-interval proportion,
    how much work fit in the allowance, and which budget dimension cut
    the run short ([None] when all batch rounds completed). *)
type budgeted = {
  prop : Proba.Stat.Proportion.t;
  trials_run : int;
  batches : int;
  stopped : string option;
}

(** [estimate_reach_budgeted setup ~target ~within ?budget ?clock
    ?initial_trials ~seed ()] is {!estimate_reach} under a wall-clock
    allowance: trials run in six batches that double in size
    ([initial_trials], then twice that, ...) so short budgets
    still produce an interval and long budgets tighten it.  The clock
    is consulted when a chunk of trials starts (each chunk of the first
    round is one trial); pass [clock] to share an allowance already
    partly consumed by exploration.  The first trial always runs, so an
    already-expired clock yields exactly one, and no exception escapes
    on exhaustion.  When the budget never fires the result depends on
    [~seed] alone. *)
val estimate_reach_budgeted :
  ?helpers:int ->
  ('s, 'a) setup -> target:('s -> bool) -> within:int ->
  ?budget:Core.Budget.t -> ?clock:Core.Budget.clock ->
  ?initial_trials:int -> seed:int -> unit -> budgeted

(** [estimate_time setup ~target ~trials ~seed ?max_steps ()] runs until
    the target and summarizes elapsed slots.  Trials that do not reach
    the target within [max_steps] steps (default [1_000_000]) are
    reported separately in the second component. *)
val estimate_time :
  ?helpers:int ->
  ('s, 'a) setup -> target:('s -> bool) -> trials:int -> seed:int ->
  ?max_steps:int -> unit -> Proba.Stat.Summary.t * int

(** [histogram_time] like {!estimate_time} but also bins the elapsed
    times. *)
val histogram_time :
  ?helpers:int ->
  ('s, 'a) setup -> target:('s -> bool) -> trials:int -> seed:int ->
  ?max_steps:int -> lo:float -> hi:float -> bins:int -> unit ->
  Proba.Stat.Histogram.t * Proba.Stat.Summary.t
