(** Structured linter diagnostics.

    Every finding of the model linter is a {!t}: a stable {!code}
    identifying the well-formedness condition that was violated, a
    {!severity}, the name of the model it was found in, a
    human-readable message, and (when available) a pretty-printed
    witness (a state, an action, or a cycle).  Codes are stable across
    releases so that CI configuration and suppression lists can refer
    to them; see [docs/LINTS.md] for the catalogue with triggering
    examples. *)

type severity = Error | Warning | Info

(** Stable diagnostic codes.

    [PA*] codes concern a probabilistic automaton and its reachable
    fragment; [CL*] codes concern claim derivations and composition
    plans.  [PA000] is infrastructural: the model could not be (fully)
    analyzed, so other checks may be incomplete. *)
type code =
  | PA000  (** analysis incomplete (state bound hit, malformed input) *)
  | PA001  (** step distribution is sub- or super-stochastic *)
  | PA002  (** zero-probability or duplicate outcome in a distribution *)
  | PA003  (** [equal_state]/[hash_state] disagree on reachable states *)
  | PA010  (** reachable deadlock / unclassified terminal state *)
  | PA011  (** action signature inconsistent under [equal_action] *)
  | PA012  (** fault isolation: a crashed/stalled process still steps *)
  | PA020  (** probabilistic zero-time cycle (time can stall) *)
  | PA021  (** an adversary can block [tick] forever *)
  | PA030  (** a declared state/action permutation is not a PA automorphism *)
  | PA031  (** a predicate is not invariant under the verified group *)
  | PA032  (** symmetric model explored without orbit reduction (advisory) *)
  | PA033  (** an orbit representative is not its orbit's minimum *)
  | CL001  (** compose premise: schema not execution closed *)
  | CL002  (** claim predicate unsatisfiable on the explored fragment *)

type t = {
  code : code;
  severity : severity;
  model : string;  (** which lint target the finding belongs to *)
  message : string;
  witness : string option;  (** pretty-printed witness, if any *)
}

val v : ?witness:string -> code -> severity -> model:string -> string -> t

(** ["PA001"], ["CL002"], ... *)
val code_name : code -> string

(** [Error] < [Warning] < [Info] (most severe first). *)
val compare_severity : severity -> severity -> int

val is_error : t -> bool

(** [cap ~limit ds] keeps the first [limit] diagnostics and replaces
    the remainder, if any, with a single [Info] note stating how many
    further diagnostics of that code were suppressed.  Keeps lint
    output readable on pathological models with thousands of identical
    findings. *)
val cap : limit:int -> t list -> t list

val pp : Format.formatter -> t -> unit
val to_json : t -> Json.t
