(** A case study's description, built by the family library from its
    full parameter tuple.  The proof builders, the model registry, the
    snapshot loader, the lint runner and the Monte Carlo setup all read
    it, so a family spells its parameters-to-automaton step once. *)

type ('s, 'a, 'i) t = {
  label : string;  (** the model certificates carry, e.g. ["lr:line(3)"] *)
  pa : ('s, 'a) Core.Pa.t;
  spec : ('s, 'a) Symmetry.spec;  (** the declared symmetry *)
  is_tick : 'a -> bool;  (** the time-passage action *)
  instance : ('s, 'a) Mdp.Arena.t -> Symmetry.certificate option -> 'i;
      (** the family's instance of a compiled arena and its certificate *)
}

(** [build ?max_states ~sym d] explores [d] in mode [sym]
    ({!Symmetry.explored}), compiles the fragment with [d.is_tick] and
    makes the instance. *)
val build : ?max_states:int -> sym:Symmetry.mode -> ('s, 'a, 'i) t -> 'i
