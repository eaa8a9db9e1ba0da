(** Certificates of set inclusion between named predicates.

    The proof rules occasionally need [U1 ⊆ U2] (e.g. to retarget a
    statement's post-set to the pre-set of the next statement when they
    are not literally the same named predicate).  An [Inclusion.t] is
    such a fact together with how it was established: verified by
    enumeration over a concrete state set, or assumed. *)

type 's t

val sub : 's t -> 's Pred.t
val sup : 's t -> 's Pred.t

(** Human-readable provenance. *)
val evidence : 's t -> string

(** [true] when the inclusion was assumed rather than verified. *)
val is_axiom : 's t -> bool

(** [verify ~states sub sup] checks [sub s => sup s] for every listed
    state (callers pass the reachable states).  Returns [None] with no
    certificate if a counterexample exists. *)
val verify : states:'s list -> 's Pred.t -> 's Pred.t -> 's t option

(** [checked ~over sub sup] records an inclusion its caller verified
    over [over] states (by a subset test of their state sets), with
    the evidence {!verify} gives over that many states. *)
val checked : over:int -> 's Pred.t -> 's Pred.t -> 's t

(** [axiom ~reason sub sup] records an assumed inclusion. *)
val axiom : reason:string -> 's Pred.t -> 's Pred.t -> 's t

(** [refl p] is [p ⊆ p]. *)
val refl : 's Pred.t -> 's t

(** [in_union_left p q]: [p ⊆ p ∪ q] (constructed, always valid). *)
val in_union_left : 's Pred.t -> 's Pred.t -> 's t

val pp : Format.formatter -> 's t -> unit
