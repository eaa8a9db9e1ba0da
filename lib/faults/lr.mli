(** Lehmann-Rabin dining philosophers under injected faults.

    Instantiates {!Inject} for the clocked ring automaton of
    [lib/lehmann_rabin] and re-derives time-bound claims that survive a
    fault budget.  The interesting knob is [release]: whether a crashed
    process's held resources are freed (fail-stop with cleanup) or leak
    (fail-stop holding its forks).  With [crash:1] and [release:false]
    the adversary can wait until a process holds both forks and crash it
    then, locking the ring forever -- the attained probability of
    reaching the critical region drops to exactly 0.  With
    [release:true] a positive degraded bound survives; {!derive} both
    computes it and certifies it through the claim DSL, so Theorem 3.4
    composition is exercised over the fault-extended schema. *)

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

(** [T∧live]: some process is live, and every live process is in its
    trying region.  (Stable under crashes of trying processes, which is
    what makes it a usable pre-set: the adversary cannot leave the set
    by spending its budget.) *)
val live_trying : wstate Core.Pred.t

(** [C∧live]: some live process is in its critical region. *)
val live_crit : wstate Core.Pred.t

(** {1 Re-derived claims} *)

(** A degraded arrow, its claim certified at [prob = attained]. *)
type arrow = wstate Mdp.Checker.arrow

type derivation = {
  states : int;  (** explored wrapped states *)
  arrow1 : arrow;  (** [T∧live -12-> C∨P∧live] *)
  arrow2 : arrow;  (** [C∨P∧live -8-> C∧live] *)
  composed : (wstate Core.Claim.t, string) result;
      (** [T∧live -20->_{p1*p2} C∧live] via Theorem 3.4 *)
  direct : Proba.Rational.t;
      (** exact min for [T∧live -13-> C∧live], the paper's horizon *)
}

(** [derive config] explores the wrapped automaton exhaustively and
    certifies the degraded bound.  Raises {!Mdp.Explore.Too_many_states}
    beyond [max_states]; use {!check_budgeted} for the never-raising
    path. *)
val derive : ?max_states:int -> config -> derivation

(** [check_budgeted config] runs the {!Resilient} ladder on
    [T∧live -time->_prob C∧live] (defaults: the paper's [13] and
    [1/8]).  The Monte Carlo fallback simulates from the wrapped
    all-trying start under the uniform scheduler. *)
val check_budgeted :
  ?budget:Core.Budget.t -> ?seed:int -> ?time:Proba.Rational.t ->
  ?prob:Proba.Rational.t -> config -> wstate Resilient.verdict
