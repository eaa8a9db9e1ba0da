(** Event schemas (Definition 2.5 and Section 4).

    An event schema associates a measurable set of maximal executions
    with each execution automaton.  Here a schema is given by a
    {e monotone} decision function on finite fragments: once it answers
    [Accept] or [Reject] on a fragment with [maximal:false], it must
    answer the same on every extension.  Calling [decide ~maximal:true]
    asserts that the fragment is a complete (finite maximal) execution,
    letting schemas resolve their pending verdict -- e.g.
    [first(a, U)] accepts executions in which [a] never occurs, while
    time-bounded reachability rejects executions that end without
    visiting the target.

    The two schemas of Section 4 -- [first(a, U)] and
    [next((a1,U1),...,(an,Un))] -- are provided, along with intersection
    and union (needed to state Proposition 4.2) and the time-bounded
    reachability schema [e_{U,t}] of Definition 3.1. *)

type verdict = Accept | Reject | Undecided

type ('s, 'a) t

(** [make ~name decide] wraps a monotone decision function.
    [decide ~maximal:true] must never return [Undecided]. *)
val make :
  name:string -> (maximal:bool -> ('s, 'a) Exec.t -> verdict) -> ('s, 'a) t

val name : ('s, 'a) t -> string
val decide : ('s, 'a) t -> maximal:bool -> ('s, 'a) Exec.t -> verdict

(** {1 The paper's schemas} *)

(** [first ~equal_action a u]: either [a] never occurs, or the state
    reached after the first occurrence of [a] is in [u]. *)
val first :
  ?equal_action:('a -> 'a -> bool) -> 'a -> 's Pred.t -> ('s, 'a) t

(** [next ~equal_action pairs]: either no action among the [a_i] occurs,
    or, where [a_i] is the first to occur, the state reached after it is
    in [U_i].  The actions must be pairwise distinct.
    Raises [Invalid_argument] on duplicate actions. *)
val next :
  ?equal_action:('a -> 'a -> bool) -> ('a * 's Pred.t) list -> ('s, 'a) t

(** [reach ?duration u ~within]: the schema [e_{U,t}] of Definition 3.1 --
    some state of the execution, {e including its first state}, lies in
    [u] within time [within].  [duration] gives each action's time cost
    (defaults to 0, i.e. step-counted untimed reachability, which then
    only rejects at maximal executions). *)
val reach :
  ?duration:('a -> int) -> 's Pred.t -> within:int -> ('s, 'a) t

(** [eventually u]: unbounded reachability (accepts as soon as [u] is
    visited; rejects only at maximal executions). *)
val eventually : 's Pred.t -> ('s, 'a) t

(** {1 A new schema in the spirit of Section 7}

    The paper closes by conjecturing that "new event schemas and
    partial independence results similar to those of Section 4 can be
    developed".  Here is one: [all_first ~count a u] holds of the
    executions in which {e each} of the first [count] occurrences of
    [a] (or all of them, if fewer occur) leads to a state of [u] --
    [first] is the [count = 1] case.  The same conditioning argument
    that proves Proposition 4.2 gives the bound [p^count] whenever
    every [a]-step gives [u] probability at least [p] (see
    {!power_bound}), again against every non-oblivious adversary.
    Raises [Invalid_argument] if [count < 0]. *)
val all_first :
  ?equal_action:('a -> 'a -> bool) -> count:int -> 'a -> 's Pred.t ->
  ('s, 'a) t

(** {1 Combinators} *)

(** Intersection of events (both must hold). *)
val conj : ('s, 'a) t -> ('s, 'a) t -> ('s, 'a) t

(** Union of events. *)
val disj : ('s, 'a) t -> ('s, 'a) t -> ('s, 'a) t

(** Complement. *)
val negate : ('s, 'a) t -> ('s, 'a) t

(** {1 Proposition 4.2 premise}

    Proposition 4.2 assumes, for each pair [(a_i, U_i)] and bound [p_i],
    that {e every} step of [M] labelled [a_i] gives [U_i] probability at
    least [p_i].  [check_premise] verifies this on an enumerated state
    set (typically the reachable states); given the premise, the
    conclusion bounds are [prod p_i] for the intersection of the
    [first] events and [min p_i] for the [next] event. *)
val check_premise :
  ('s, 'a) Pa.t -> states:'s list ->
  ('a * 's Pred.t * Proba.Rational.t) list -> bool

(** Product of the per-pair bounds (conclusion 1 of Proposition 4.2). *)
val product_bound : ('a * 's Pred.t * Proba.Rational.t) list -> Proba.Rational.t

(** Minimum of the per-pair bounds (conclusion 2 of Proposition 4.2). *)
val min_bound : ('a * 's Pred.t * Proba.Rational.t) list -> Proba.Rational.t

(** [power_bound p count] is [p^count]: the sound lower bound for
    {!all_first} under the usual per-step premise (checked with
    {!check_premise} on the singleton list). *)
val power_bound : Proba.Rational.t -> int -> Proba.Rational.t
