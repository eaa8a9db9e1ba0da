(** Lehmann-Rabin dining philosophers under injected faults.

    Instantiates {!Inject} for the clocked ring automaton of
    [lib/lehmann_rabin] and re-derives time-bound claims that survive a
    fault budget.  The interesting knob is [release]: whether a crashed
    process's held resources are freed (fail-stop with cleanup) or leak
    (fail-stop holding its forks).  With [crash:1] and [release:false]
    the adversary can wait until a process holds both forks and crash it
    then, locking the ring forever -- the attained probability of
    reaching the critical region drops to exactly 0.  With
    [release:true] a positive degraded bound survives; {!derivation}
    both computes it and certifies it through the claim DSL, so
    Theorem 3.4 composition is exercised over the fault-extended
    schema. *)

type config = {
  params : Lehmann_rabin.Automaton.params;
  faults : Fault.spec;
  release : bool;  (** crashed processes free their held resources *)
}

type wstate = Lehmann_rabin.State.t Inject.state
type waction = Lehmann_rabin.Automaton.action Inject.action

(** The injection hooks: crash parks a process in its remainder region
    with canonical clocks (so [Tick] is never blocked on it), a lost
    step restarts the deadline and burns one unit of per-slot step
    budget (exactly like a real scheduling), waking refreshes the
    deadline. *)
val hooks :
  release:bool -> Lehmann_rabin.Automaton.params ->
  (Lehmann_rabin.State.t, Lehmann_rabin.Automaton.action) Inject.hooks

val make : config -> (wstate, waction) Core.Pa.t

(** The process a base action belongs to ([Tick] to none); pair it with
    {!Inject.effective_proc} for the PA012 fault-isolation lint view. *)
val proc_of_action : Lehmann_rabin.Automaton.action -> int option

val is_tick : waction -> bool
val duration : waction -> int

(** [Unit-Time+faults(...)]: execution closed because the remaining
    budget lives in the wrapped state (see {!Core.Schema.with_faults}). *)
val schema : Fault.spec -> Core.Schema.t

(** {1 Fault-aware state sets}

    Liveness under crashes is relative to the survivors: the paper's
    [T -13->_{1/8} C] becomes a statement about {e live} processes. *)

(** [C∧live]: some live process is in its critical region. *)
val live_crit : wstate Core.Pred.t

(** {1 One exploration}

    Every question about a configuration -- the ladder's exact rung,
    the derivation, the lint -- reads one compiled arena. *)

type instance = {
  config : config;
  arena : (wstate, waction) Mdp.Arena.t;  (** compiled with {!is_tick} *)
}

(** [explore config] explores and compiles the wrapped ring once.
    Raises {!Mdp.Explore.Too_many_states} at [max_states]. *)
val explore : ?max_states:int -> config -> instance

(** A degraded arrow, its claim certified at [prob = attained]. *)
type arrow = wstate Mdp.Checker.arrow

(** {1 Re-derived claims} *)

type derivation = {
  states : int;  (** explored wrapped states *)
  arrow1 : arrow;  (** [T∧live -12-> C∨P∧live] *)
  arrow2 : arrow;  (** [C∨P∧live -8-> C∧live] *)
  composed : (wstate Core.Claim.t, string) result;
      (** [T∧live -20->_{p1*p2} C∧live] via Theorem 3.4 *)
  direct : Proba.Rational.t;
      (** exact min for [T∧live -13-> C∧live], the paper's horizon *)
}

(** [derivation inst] certifies the degraded bound on [inst]'s arena.
    [direct] is the same solved pass as {!check_budgeted}'s default
    arrow, so after an {!Exact} verdict it solves nothing. *)
val derivation : instance -> derivation

(** [derive config] is [derivation (explore config)]. *)
val derive : ?max_states:int -> config -> derivation

(** {1 The budgeted ladder}

    The exact rung gives the true minimum over all adversaries, but the
    state space may not fit the budget; the ladder then falls back to
    Monte Carlo under the {e same} clock.  The verdict says which rung
    answered.  An {!Exact} verdict is a bound over {e all} adversaries
    of the schema, while an {!Estimate} samples the uniform scheduler
    and is labelled accordingly -- it is evidence, not proof. *)

type estimate = {
  est : Sim.Monte_carlo.budgeted;
  meets_point : bool;  (** point estimate [>= prob] (not a guarantee) *)
  reason : string;  (** why the exact rung was abandoned *)
}

type verdict =
  | Exact of { arrow : arrow; inst : instance }
      (** the checked arrow, and the instance it was checked on *)
  | Estimate of estimate

(** [check_budgeted config] checks [T∧live -time->_prob C∧live]
    (defaults: the paper's [13] and [1/8]) on one exploration bounded
    by [budget]'s states, with its wall allowance armed as the ambient
    deadline.  When either stops the exact rung, a budgeted Monte Carlo
    estimate from the wrapped all-trying start under the uniform
    scheduler answers instead; the call does not raise on either. *)
val check_budgeted :
  ?budget:Core.Budget.t -> ?seed:int -> ?time:Proba.Rational.t ->
  ?prob:Proba.Rational.t -> config -> verdict

(** Human-readable rendering, naming the rung that answered. *)
val pp_verdict : Format.formatter -> verdict -> unit
