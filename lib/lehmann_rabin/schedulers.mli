(** Concrete Unit-Time adversaries for simulating the protocol.

    Every scheduler below plays on the clocked automaton, so by
    construction it respects the [Unit-Time] schema; they differ in how
    they spend the freedom the schema leaves. *)

type t = (State.t, Automaton.action) Sim.Scheduler.t

(** Uniformly random among all enabled steps (ticks, user grants,
    process steps alike). *)
val uniform : (State.t, Automaton.action) Core.Pa.t -> t

(** Drives progress: process steps first (in index order), then user
    grants, ticking only when nothing else is enabled. *)
val eager : (State.t, Automaton.action) Core.Pa.t -> t

(** Delays maximally: ticks whenever allowed, schedules a process only
    when its deadline forces it; never grants [try]/[exit] (so use it
    from a state already in the trying region). *)
val delayer : (State.t, Automaton.action) Core.Pa.t -> t

(** A starvation heuristic: grants [try] eagerly to maximize contention,
    avoids [Second] steps that would succeed and [Crit] steps for as
    long as the deadlines allow, and otherwise delays. *)
val starver : (State.t, Automaton.action) Core.Pa.t -> t

(** Round-robin: cycles through the processes in index order, giving
    each its enabled step (tick when the turn-holder has nothing to
    do); grants [try]/[exit] on the holder's turn. *)
val round_robin : (State.t, Automaton.action) Core.Pa.t -> t

(** All of the above with display names, for experiment tables. *)
val all : (State.t, Automaton.action) Core.Pa.t -> (string * t) list

(** {1 Parameterized schedulers (adversary search)}

    A whole family of deterministic schedulers indexed by a priority
    table over action classes; {!Sim.Search.hill_climb} explores this
    family to probe worst cases at sizes the exact engine cannot
    reach. *)

(** The action classes, in index order: tick, try, exit, flip, wait,
    second-that-would-succeed, second-that-would-fail, drop, crit,
    dropf, drops, rem. *)
val num_classes : int

(** [of_ranks pa ranks] schedules by ascending rank of the action's
    class in the current state (ties broken by enabling order).  Raises [Invalid_argument] unless [ranks] has
    {!num_classes} entries. *)
val of_ranks : (State.t, Automaton.action) Core.Pa.t -> int array -> t
