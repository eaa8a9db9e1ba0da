(** Discharging [U -t->_p U'] leaves by exhaustive model checking.

    This is the bridge between the MDP engine and the proof DSL of
    {!Core.Claim}: it computes the exact minimum, over all adversaries
    of the structurally encoded schema, of the probability of reaching
    [post] within [time], over every reachable state satisfying [pre],
    and produces a certified claim when the minimum meets the requested
    bound [prob].  The minimum is {!min_reach_over}'s, so asking the
    same sets and time again, at any [prob], solves nothing.

    The answer always reports the attained minimum and a witness state,
    so experiments can display how tight the paper's bound is. *)

(** A statement [pre -time->_prob post] together with what the checker
    found for it: the one record every proof module's arrows, the
    fault derivations and every surface that renders an arrow share. *)
type 's arrow = {
  label : string;  (** e.g. ["A.11"] or ["L3"] *)
  pre : 's Core.Pred.t;
  post : 's Core.Pred.t;
  time : Proba.Rational.t;  (** the paper's [t] *)
  prob : Proba.Rational.t;  (** the paper's [p] *)
  attained : Proba.Rational.t;
      (** the exact minimum over pre-states (1 if no pre-state exists) *)
  witness : 's option;  (** a pre-state attaining the minimum *)
  pre_states : int;  (** number of reachable pre-states checked *)
  claim : 's Core.Claim.t option;
      (** present iff [attained >= prob] *)
}

(** [check_arrow arena ~label ~granularity ~schema ~pre ~post ~time
    ~prob] verifies the statement [pre -time->_prob post] by exact
    backward induction over [Core.Timed.within ~granularity ~time]
    ticks.  [granularity] is the number of ticks per paper time unit;
    tick structure comes from the arena's precomputed mask.  Raises
    [Invalid_argument] if [time * granularity] is not integral. *)
val check_arrow :
  ('s, 'a) Arena.t -> label:string -> granularity:int ->
  schema:Core.Schema.t -> pre:'s Core.Pred.t -> post:'s Core.Pred.t ->
  time:Proba.Rational.t -> prob:Proba.Rational.t -> 's arrow

(** [min_reach_over arena ~target ~ticks ~over] is the minimum over
    the [over] states of {!Finite_horizon.min_reach} toward [target]
    (1 when there are none), the first state in index order attaining
    it, and the number of [over] states.  Solved once per arena and
    question ({!Arena.solved}): both sets come from the arena's set
    memo ({!Arena.set}) and reach the engine as they are stored, so a
    repeated ask sweeps nothing and solves no tick layer. *)
val min_reach_over :
  ('s, 'a) Arena.t -> target:'s Core.Pred.t -> ticks:int ->
  over:'s Core.Pred.t -> Proba.Rational.t * 's option * int

(** The same for the maximum of {!Expected_time.max_expected_ticks}
    (0 when there are no [over] states). *)
val max_expected_over :
  ('s, 'a) Arena.t -> target:'s Core.Pred.t -> over:'s Core.Pred.t ->
  float * 's option * int

(** [verify_inclusion arena sub sup] checks [sub ⊆ sup] over the
    reachable states, yielding a certificate for
    {!Core.Claim.strengthen_pre} / {!Core.Claim.weaken_post}: a
    word-wise subset test of the two memoized sets ({!Arena.set}),
    with the evidence {!Core.Inclusion.verify} gives over the same
    states. *)
val verify_inclusion :
  ('s, 'a) Arena.t -> 's Core.Pred.t -> 's Core.Pred.t ->
  's Core.Inclusion.t option
