(** Discharging [U -t->_p U'] leaves by exhaustive model checking.

    This is the bridge between the MDP engine and the proof DSL of
    {!Core.Claim}: it computes the exact minimum, over all adversaries
    of the structurally encoded schema, of the probability of reaching
    [post] within [time], over every reachable state satisfying [pre],
    and produces a certified claim when the minimum meets the requested
    bound [prob].

    The result always reports the attained minimum and a witness state,
    so experiments can display how tight the paper's bound is. *)

type ('s, 'a) result = {
  claim : 's Core.Claim.t option;
      (** present iff the bound holds on every pre-state *)
  attained : Proba.Rational.t;
      (** the exact minimum over pre-states (1 if no pre-state exists) *)
  witness : 's option;  (** a pre-state attaining the minimum *)
  pre_states : int;  (** number of reachable pre-states checked *)
}

(** [check_arrow arena ~granularity ~schema ~pre ~post ~time ~prob]
    verifies the statement [pre -time->_prob post] by exact backward
    induction over [Core.Timed.within ~granularity ~time] ticks.
    [granularity] is the number of ticks per paper time unit; tick
    structure comes from the arena's precomputed mask.  Raises
    [Invalid_argument] if [time * granularity] is not integral. *)
val check_arrow :
  ('s, 'a) Arena.t -> granularity:int ->
  schema:Core.Schema.t -> pre:'s Core.Pred.t -> post:'s Core.Pred.t ->
  time:Proba.Rational.t -> prob:Proba.Rational.t -> ('s, 'a) result

(** [min_prob_over arena values pred] folds a value vector over the
    states satisfying [pred]: the minimum and a witness. *)
val min_prob_over :
  ('s, 'a) Arena.t -> Proba.Rational.t array -> 's Core.Pred.t ->
  Proba.Rational.t * 's option * int

(** [verify_inclusion arena sub sup] checks [sub ⊆ sup] over the
    reachable states, yielding a certificate for
    {!Core.Claim.strengthen_pre} / {!Core.Claim.weaken_post}. *)
val verify_inclusion :
  ('s, 'a) Arena.t -> 's Core.Pred.t -> 's Core.Pred.t ->
  's Core.Inclusion.t option
