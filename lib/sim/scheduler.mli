(** Randomized schedulers for simulation.

    The paper's adversaries are deterministic functions of the history;
    for Monte Carlo experiments it is convenient to also allow the
    scheduler itself to randomize (e.g. "pick a uniformly random enabled
    step").  A scheduler receives a generator plus the execution
    fragment so far; determinism is recovered with {!of_adversary}. *)

type ('s, 'a) t =
  Proba.Rng.t -> ('s, 'a) Core.Exec.t -> ('s, 'a) Core.Pa.step option

(** Lift a deterministic adversary. *)
val of_adversary : ('s, 'a) Core.Adversary.t -> ('s, 'a) t

(** Pick uniformly among all enabled steps. *)
val uniform : ('s, 'a) Core.Pa.t -> ('s, 'a) t

(** [priority m rank] deterministically picks an enabled step minimizing
    [rank state action] (ties broken by enabling order). *)
val priority : ('s, 'a) Core.Pa.t -> ('s -> 'a -> int) -> ('s, 'a) t

(** [halt_when pred sched] halts as soon as the last state satisfies
    [pred], otherwise defers. *)
val halt_when : ('s -> bool) -> ('s, 'a) t -> ('s, 'a) t

(** [of_choice choose m] replays a memoryless policy given as the index
    of the chosen step within [Core.Pa.enabled m s] (the order used by
    the MDP engine); [None] or an out-of-range index halts.  Use it to
    simulate extremal adversaries extracted by value iteration. *)
val of_choice : ('s -> int option) -> ('s, 'a) Core.Pa.t -> ('s, 'a) t

(** [of_layered_policy ~horizon ~duration ~choose m] replays a
    time-layered policy, as extracted by
    [Mdp.Finite_horizon.min_reach_with_policy]: at a fragment with
    elapsed time [e] (computed with [duration]), the step index is
    [choose (horizon - e) state]; the scheduler halts once the horizon
    is exhausted or [choose] declines. *)
val of_layered_policy :
  horizon:int -> duration:('a -> int) ->
  choose:(int -> 's -> int option) -> ('s, 'a) Core.Pa.t -> ('s, 'a) t
