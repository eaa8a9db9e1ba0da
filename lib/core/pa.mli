(** Probabilistic automata (Definition 2.1 of the paper).

    A probabilistic automaton [M] consists of states, start states, an
    action signature partitioned into external and internal actions, and
    a transition relation [steps(M)] associating to a state a set of
    enabled steps, each labelled by an action and leading into a finite
    probability space over states.

    The state space may be infinite (it is given intensionally by the
    [enabled] function); exploration and checking tools enumerate only
    the reachable fragment they need. *)

(** One element of [steps(M)] from a given state: an action together with
    the probability space over target states. *)
type ('s, 'a) step = { action : 'a; dist : 's Proba.Dist.t }

type ('s, 'a) t

(** [make ~start ~enabled ...] builds an automaton.

    [equal_state]/[hash_state] default to structural equality/hashing and
    must agree with each other; they are used by exploration tools.
    [is_external] defaults to "every action is external".
    Raises [Invalid_argument] if [start] is empty. *)
val make :
  ?equal_state:('s -> 's -> bool) ->
  ?hash_state:('s -> int) ->
  ?equal_action:('a -> 'a -> bool) ->
  ?is_external:('a -> bool) ->
  ?pp_state:(Format.formatter -> 's -> unit) ->
  ?pp_action:(Format.formatter -> 'a -> unit) ->
  start:'s list ->
  enabled:('s -> ('s, 'a) step list) ->
  unit ->
  ('s, 'a) t

(** {1 Accessors} *)

val start : ('s, 'a) t -> 's list
val enabled : ('s, 'a) t -> 's -> ('s, 'a) step list
val equal_state : ('s, 'a) t -> 's -> 's -> bool
val hash_state : ('s, 'a) t -> 's -> int
val equal_action : ('s, 'a) t -> 'a -> 'a -> bool
val is_external : ('s, 'a) t -> 'a -> bool
val pp_state : ('s, 'a) t -> Format.formatter -> 's -> unit
val pp_action : ('s, 'a) t -> Format.formatter -> 'a -> unit

(** {1 Derived notions} *)

(** A state with no enabled steps. *)
val is_terminal : ('s, 'a) t -> 's -> bool

(** At most one step enabled (the per-state half of "fully
    probabilistic", Definition 2.1). *)
val is_deterministic_at : ('s, 'a) t -> 's -> bool
