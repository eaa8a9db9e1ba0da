(** Execution automata (Definitions 2.3-2.4) and their probability
    measure.

    Running a probabilistic automaton [M] under an adversary [A] from a
    starting fragment yields a fully probabilistic automaton [H(M,A,s)]
    whose states are finite execution fragments of [M]; since every state
    of [H] is reachable and each non-final state enables exactly one
    step, [H] is a tree.  This module materializes that tree up to a
    depth bound and evaluates event probabilities on it.

    The probability measure [P_H] is the unique extension of the measure
    on rectangles [R_alpha] (the set of maximal executions extending
    [alpha]), where [P_H(R_alpha)] is the product of the step
    probabilities along [alpha].  On the materialized tree, the measure
    of a set of maximal executions recognized by a monotone
    {!Event.t} is computed exactly, with truncated branches contributing
    an interval of uncertainty. *)

type ('s, 'a) node = {
  frag : ('s, 'a) Exec.t;  (** the [H]-state: the history fragment *)
  kind : ('s, 'a) kind;
}

and ('s, 'a) kind =
  | Terminal
      (** genuinely maximal: the adversary returned nothing (or no step
          was enabled) *)
  | Truncated  (** artificial leaf due to the unfolding depth bound *)
  | Step of 'a * (Proba.Rational.t * ('s, 'a) node) list
      (** the unique step chosen by the adversary, with its outcomes *)

(** [unfold m adv start ~max_depth] materializes [H(M, adv, start)]
    down to fragments of length [max_depth]. *)
val unfold :
  ('s, 'a) Pa.t -> ('s, 'a) Adversary.t -> 's -> max_depth:int ->
  ('s, 'a) node

(** Number of nodes in the tree. *)
val size : ('s, 'a) node -> int

(** [maximal_executions t] lists the leaf fragments with their rectangle
    probabilities and whether they are genuine ([Terminal]) leaves. *)
val maximal_executions :
  ('s, 'a) node -> (('s, 'a) Exec.t * Proba.Rational.t * bool) list

(** [total_mass t] sums the rectangle probabilities of all leaves
    (always 1; exposed for testing). *)
val total_mass : ('s, 'a) node -> Proba.Rational.t

(** [prob_interval event t] returns exact lower and upper bounds for
    [P_H(event)].  The two coincide when every branch is decided before
    truncation. *)
val prob_interval :
  ('s, 'a) Event.t -> ('s, 'a) node -> Proba.Rational.t * Proba.Rational.t

(** [prob_exact event t] returns the exact probability, or raises
    [Failure] if the truncation leaves uncertainty. *)
val prob_exact : ('s, 'a) Event.t -> ('s, 'a) node -> Proba.Rational.t
