(** Stochastic local search over scheduler parameters.

    At ring sizes beyond exhaustive reach, the worst-case adversary can
    only be probed: we parameterize schedulers by a small genome (e.g.
    a priority table over action classes) and hill-climb the genome
    against a Monte Carlo objective (say, mean time to the critical
    region).  This gives empirical lower bounds on the worst case --
    the direction the paper leaves open ("it would be very satisfying
    to derive a non trivial lower bound").

    The search is deterministic given the seed, like everything else in
    this library. *)

type 'g result = {
  best : 'g;
  score : float;  (** objective value of [best] *)
  evaluations : int;  (** number of objective evaluations spent *)
  trace : float list;  (** best-so-far after each accepted move *)
}

(** [hill_climb ~rng ~init ~neighbor ~score ~steps ()] maximizes
    [score] by repeated neighbor proposals, accepting improvements;
    [restarts] (default 0) re-seeds from [init] and keeps the best
    overall. *)
val hill_climb :
  rng:Proba.Rng.t -> init:'g -> neighbor:('g -> Proba.Rng.t -> 'g) ->
  score:('g -> float) -> steps:int -> ?restarts:int -> unit -> 'g result
