(** A case study's description, built by the family library from its
    full parameter tuple, and its view of a built instance.  The proof
    builders, the model registry, the snapshot loader and Monte Carlo
    read the description; every surface that reports on an instance
    reads the view.  A family spells each once. *)

(** The family's Monte Carlo setup at these parameters. *)
type ('s, 'a) monte_carlo = {
  schedulers : ('s, 'a) Core.Pa.t -> (string * ('s, 'a) Sim.Scheduler.t) list;
      (** by name, ["uniform"] first *)
  start : 's;
  target : 's -> bool;
  reach : string;  (** what [target] means, e.g. ["decided"] *)
  horizon : int;  (** the time bound in slots: the deadline estimate's *)
  time_report :
    scheduler:string -> trials:int -> missed:int -> Proba.Stat.Summary.t ->
    string;  (** the [prtb simulate] expected-time line *)
}

type ('s, 'a, 'i) t = {
  label : string;  (** the model certificates carry, e.g. ["lr:line(3)"] *)
  pa : ('s, 'a) Core.Pa.t;
  spec : ('s, 'a) Symmetry.spec;  (** the declared symmetry *)
  is_tick : 'a -> bool;  (** the time-passage action *)
  instance : ('s, 'a) Mdp.Arena.t -> Symmetry.certificate option -> 'i;
      (** the family's instance of a compiled arena and its certificate *)
  monte_carlo : ('s, 'a) monte_carlo option;  (** [None] for lr off the ring *)
}

(** [build ?max_states ~sym d] explores [d] in mode [sym]
    ({!Symmetry.explored}), compiles the fragment with [d.is_tick] and
    makes the instance. *)
val build : ?max_states:int -> sym:Symmetry.mode -> ('s, 'a, 'i) t -> 'i

(** A built instance as the surfaces read it.  Making one builds
    nothing: each closure runs its passes when called. *)
type ('s, 'a) view = {
  arena : ('s, 'a) Mdp.Arena.t;
  cert : Symmetry.certificate option;
  target : 's -> bool;  (** the reach target [export-dot] highlights *)
  fields : helpers:int option -> (string * Json.t) list;
      (** the [/check] fields after ["states"], from one
          {!Parallel}[.Fork] region *)
  body : unit -> unit;
      (** the [prtb check] report after its state and certificate lines *)
  composed : unit -> ('s Core.Claim.t, string) result;
      (** the claim a certificate reifies *)
  claims : unit -> (string * 's Core.Claim.t) list;  (** what lint checks *)
  symmetry : unit -> ('s, 'a) Symmetry.spec;  (** what lint verifies *)
  is_tick : 'a -> bool;
}

(** {1 What the views share} *)

(** [share arena sets] builds, before a region forks, the memos its
    tasks would otherwise race to build on two domains at once: the set
    of each predicate in [sets] (those more than one task asks for),
    the zero-time order and the fixed weights.  Each is then built once,
    and the zero-time pass leaves its work vectors in the forking
    domain's {!Mdp.Scratch} pool for that domain's own task. *)
val share : ('s, 'a) Mdp.Arena.t -> 's Core.Pred.t list -> unit

(** Groups of fields through one fork region, concatenated in order. *)
val groups :
  helpers:int option -> (unit -> (string * Json.t) list) array ->
  (string * Json.t) list

(** An exact number as its decimal string. *)
val rat : Proba.Rational.t -> Json.t

(** ["holds"] for no counterexample, ["violated"] for one. *)
val holds : 'x option -> Json.t

(** The ["arrows"] and ["composed"] fields; with [sets] each arrow
    names its pre- and post-set. *)
val arrow_fields :
  sets:bool -> 's Mdp.Checker.arrow list ->
  ('s Core.Claim.t, string) result -> (string * Json.t) list

(** The arrows one per line, labels padded to [width], then the
    composition; with [statements] each line spells out its statement
    and the composed claim is followed by its derivation. *)
val print_ladder :
  ?statements:bool -> int -> 's Mdp.Checker.arrow list ->
  ('s Core.Claim.t, string) result -> unit

(** The checked arrows' claims by label, then the composed claim. *)
val claims :
  's Mdp.Checker.arrow list -> ('s Core.Claim.t, string) result ->
  (string * 's Core.Claim.t) list
