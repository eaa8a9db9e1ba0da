(** Qualitative (probability-1) reachability: the Zuck-Pnueli-style
    baseline.

    Liveness methods for randomized algorithms (Zuck-Pnueli, and the
    proof the paper cites for the Lehmann-Rabin protocol) establish that
    progress occurs {e with probability 1} under every fair adversary,
    but produce no time bound.  This module implements that qualitative
    analysis on the compiled arena with standard graph fixpoints, so
    the benchmarks can contrast "liveness only" with the paper's
    quantitative [U -t->_p U'] bounds.

    [always_reaches] computes the set where the {e minimum} reachability
    probability is 1, i.e. where every adversary drives the system into
    the target almost surely.  The complement is built from two
    fixpoints: the largest sub-MDP the adversary can stay in while
    avoiding the target (greatest fixpoint), and the states from which
    the adversary can steer into that region with positive probability
    while avoiding the target (least fixpoint).

    These fixpoints are support-only: they read the transition
    {e structure}, never a probability plane, so the qualitative pass
    is free of exact arithmetic. *)

(** [always_reaches arena ~target] is the boolean vector of states where
    [Pmin(eventually target) = 1].  Terminal states count as staying
    put: a terminal non-target state never reaches the target. *)
val always_reaches : ('s, 'a) Arena.t -> target:bool array -> bool array

(** [safe_core arena ~avoid] is the largest set [S ⊆ avoid] such that
    every state of [S] is terminal or has a step whose support stays in
    [S] -- the region in which the adversary can avoid leaving [avoid]
    surely. *)
val safe_core : ('s, 'a) Arena.t -> avoid:bool array -> bool array

(** [can_avoid arena ~target] is the set where some adversary keeps the
    probability of reaching [target] below 1 (the complement of
    {!always_reaches}). *)
val can_avoid : ('s, 'a) Arena.t -> target:bool array -> bool array
