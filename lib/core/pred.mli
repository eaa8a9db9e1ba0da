(** Named state-set predicates.

    The sets [U] of statements [U -t->_p U'] are represented as
    predicates over states, tagged with a name.  Names matter: the proof
    rules of {!Claim} match the post-set of one statement against the
    pre-set of the next {e by name}, so that a composed proof tree can be
    audited (set inclusion between anonymous predicates is undecidable;
    named predicates built from shared definitions make the intended
    identifications explicit, as in the paper's [T], [RT], [F], [G], [P],
    [C]). *)

type 's t

(** [make name mem] tags a membership function with a name. *)
val make : string -> ('s -> bool) -> 's t

val name : 's t -> string
val mem : 's t -> 's -> bool

(** [union p q] is named ["p ∪ q"] and keeps its operands. *)
val union : 's t -> 's t -> 's t

(** [operands u] is [Some (p, q)] when [u] is [union p q], and [None]
    for every other predicate.  A consumer that holds the state sets of
    [p] and [q] gets [u]'s as their union, without testing [u] state by
    state ([Mdp.Explore.set] does). *)
val operands : 's t -> ('s t * 's t) option

(** [inter p q] is named ["p ∩ q"]. *)
val inter : 's t -> 's t -> 's t

(** [complement p] is named ["¬p"]. *)
val complement : 's t -> 's t

(** [union_all ps] folds {!union} over a non-empty list. *)
val union_all : 's t list -> 's t

(** Predicates are compared by name: this is the identification used by
    the proof rules. *)
val same : 's t -> 's t -> bool

val pp : Format.formatter -> 's t -> unit
