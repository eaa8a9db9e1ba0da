(** States of the Lehmann-Rabin Dining Philosophers protocol
    (Section 5 and 6.1 of the paper).

    [n] philosophers sit on a ring; resource [Res i] lies between
    process [i] and process [i+1] (indices mod [n]), so process [i]'s
    {e right} resource is [Res i] and its {e left} resource is
    [Res (i-1)].

    Each process's local state is its program counter (with the arrow
    notation of Section 6.1 for the held/awaited side) plus, for the
    checker's digital-clock encoding of the [Unit-Time] adversary
    schema, a deadline countdown [c] (slots until this process must be
    scheduled) and a per-slot step budget [b] (schedulings this process
    may still receive before the next tick).  Program counters where the
    paper deems the side variable [u_i] irrelevant (F, P, C, E_F, E_R,
    R) do not carry one, exactly as the paper's notation collapses
    them. *)

type side = L | R

(** The opposite side ([opp] in the paper). *)
val opp : side -> side

(** Program counter with the paper's arrow notation. *)
type region =
  | Rem          (** [R]: remainder region *)
  | Flip         (** [F]: ready to flip *)
  | Wait of side (** [W_u]: waiting for the first resource on side [u] *)
  | Second of side
      (** [S_u]: holds the first resource (side [u]), checking the second *)
  | Drop of side (** [D_u]: about to put the first resource back *)
  | Pre          (** [P]: pre-critical (holds both resources) *)
  | Crit         (** [C]: critical region *)
  | Exit_f       (** [E_F]: exit region, still holds both resources *)
  | Exit_s of side (** [E_S,u]: exit region, still holds the side-[u] one *)
  | Exit_r       (** [E_R]: exit region, resources relinquished *)

type proc = {
  region : region;
  c : int;  (** deadline countdown in slots; meaningful when ready *)
  b : int;  (** remaining schedulings this slot *)
}

type t = {
  procs : proc array;
  res : bool array;  (** [res.(j)] = [Res j] is taken *)
}

(** [ready region]: does this region enable a non-user action?  (The
    user-controlled [try] and [exit] actions carry no deadline, per
    Section 6.2.) *)
val ready : region -> bool

(** [resource_index ~n i side] is the shared-variable index of process
    [i]'s resource on the given side. *)
val resource_index : n:int -> int -> side -> int

(** [holds region side]: does a process whose pc is [region] hold its
    side-[side] resource?  (The content of Lemma 6.1, per process.) *)
val holds : region -> side -> bool

(** [initial ~n ~g ~k] is the start state: every process in [Rem] with
    canonical clocks, every resource free. *)
val initial : n:int -> g:int -> k:int -> t

(** [all_trying ~n ~g ~k] is the state right after every user issued
    [try]: every process at [Flip], resources free.  A canonical member
    of [T] (indeed of [RT] and [F]), used as the simulation start for
    progress measurements. *)
val all_trying : n:int -> g:int -> k:int -> t

(** Generalized constructor for non-ring topologies, where the number
    of resources differs from the number of processes. *)
val initial_general :
  num_procs:int -> num_resources:int -> g:int -> k:int -> t

val num_procs : t -> int

val pp : Format.formatter -> t -> unit

(** [equal a b] is structural equality [a = b], written out per field
    so it allocates nothing and checks physical equality first, on the
    state and on each [proc] record: states that are permutations of
    one another share their records, so orbit closures and intern
    probes mostly settle without reading fields.  States whose process
    or resource arrays differ in length are never equal.  Suitable for
    {!Core.Pa.make}, together with {!hash}. *)
val equal : t -> t -> bool

(** [equal_proc p q] is [p = q], physical equality first, allocating
    nothing. *)
val equal_proc : proc -> proc -> bool

(** Structural hash over the whole state; equal states hash equally. *)
val hash : t -> int
