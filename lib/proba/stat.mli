(** Streaming statistics for Monte Carlo experiments.

    Means and variances use Welford's online algorithm; proportion
    estimates come with Wilson score confidence intervals, which behave
    well near 0 and 1 (relevant here because we estimate probabilities
    close to their bounds). *)

(** {1 Running moments} *)

module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  (** Unbiased sample variance; [nan] for fewer than two samples. *)
  val variance : t -> float

  val min : t -> float
  val max : t -> float

  (** Normal-approximation confidence interval for the mean at the given
      [z] (default 1.96, i.e. 95%). *)
  val mean_ci : ?z:float -> t -> float * float
end

(** {1 Proportions} *)

module Proportion : sig
  type t

  val create : unit -> t

  (** [of_counts ~trials ~successes] builds a proportion from tallies
      accumulated elsewhere (e.g. per-domain batches).  Raises
      [Invalid_argument] unless [0 <= successes <= trials]. *)
  val of_counts : trials:int -> successes:int -> t

  (** [add p success] records one Bernoulli trial. *)
  val add : t -> bool -> unit

  val trials : t -> int
  val successes : t -> int
  val estimate : t -> float

  (** Wilson score interval at the given [z] (default 1.96). *)
  val wilson_ci : ?z:float -> t -> float * float
end
