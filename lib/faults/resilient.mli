(** Budgeted verification with graceful degradation.

    The exact pipeline (explore, then backward induction) gives the
    true minimum over all adversaries, but its state space may not fit
    a budget.  This module runs the ladder:

    + explore under the budget ({!Mdp.Explore.run_budgeted});
    + if exploration completed, check exactly ({!Mdp.Checker});
    + otherwise fall back to Monte Carlo estimation under the {e same}
      clock, reporting a Wilson confidence interval.

    The verdict always says which rung produced the answer.  Note the
    asymmetry: an {!Exact} verdict is a bound over {e all} adversaries
    of the schema, while an {!Estimate} samples the {e one} scheduler
    the fallback supplies and is labelled accordingly -- it is
    evidence, not proof. *)

type estimate = {
  est : Sim.Monte_carlo.budgeted;
  meets_point : bool;  (** point estimate [>= prob] (not a guarantee) *)
  reason : string;  (** why the exact rung was abandoned *)
}

type 's verdict =
  | Exact of { arrow : 's Mdp.Checker.arrow; states : int }
      (** the checked arrow, and the explored state count *)
  | Estimate of estimate
  | Exhausted of string
      (** budget ran out and no fallback was supplied *)

(** [check_arrow ~pa ~label ... ()] runs the ladder for [pre
    -time->_prob post]; [label] names the checked arrow.  [fallback]
    receives the (partly consumed) clock and should run a budgeted
    simulation estimating the same reachability probability.  Never
    raises on budget exhaustion. *)
val check_arrow :
  ?budget:Core.Budget.t ->
  ?fallback:(Core.Budget.clock -> Sim.Monte_carlo.budgeted) ->
  pa:('s, 'a) Core.Pa.t -> is_tick:('a -> bool) -> label:string ->
  granularity:int -> schema:Core.Schema.t -> pre:'s Core.Pred.t ->
  post:'s Core.Pred.t -> time:Proba.Rational.t -> prob:Proba.Rational.t ->
  unit -> 's verdict

(** Human-readable rendering, naming the rung that answered. *)
val pp_verdict : Format.formatter -> 's verdict -> unit
