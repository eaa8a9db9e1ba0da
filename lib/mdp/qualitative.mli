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
    is free of exact arithmetic.  Each is a worklist over one
    predecessor index ({!preds}): a state is pushed at most once, each
    index entry [(i, j)] is read at most once (with a scan of [i]'s
    branches for those into [j]).  The flags are one byte per state and
    the index, counts and stacks are borrowed from the domain's
    {!Scratch} pool, so a pass allocates no state-sized vector of its
    own. *)

(** The arena's transitions turned around:
    [preds.(pred_off.(j)) .. preds.(pred_off.(j + 1) - 1)] are the
    distinct states with a branch into state [j].  Both vectors are
    borrowed ({!Scratch}) and may be longer than the index. *)
type preds = private { pred_off : int array; preds : int array }

(** [with_preds arena k] builds the index in O(states + branches) and
    runs [k] on it; the index must not escape [k].  {!Expected_time}
    builds one per pass, reads it for {!classify}, then compacts it in
    place to the states it evaluates for its dirty marking. *)
val with_preds : ('s, 'a) Arena.t -> (preds -> 'r) -> 'r

(** [classify preds arena ~target flags] writes one byte per state
    into [flags.[0 .. n - 1]]: ['\002'] on the [target],
    ['\001'] where some adversary keeps the probability of reaching it
    below 1, and ['\000'] where [Pmin(eventually target) = 1].
    Terminal states count as staying put: a terminal non-target state
    never reaches the target.  [preds] must be [arena]'s.  Raises
    [Invalid_argument] unless [target] ranges over the arena's
    states. *)
val classify :
  preds -> ('s, 'a) Arena.t -> target:Bitset.t -> Bytes.t -> unit

(** The entry points below read and return [bool array]s for tests,
    examples and single questions; each runs the pass above on its own
    index and a borrowed flag vector, then copies the flags out. *)

(** [always_reaches arena ~target] is the boolean vector of states
    where [Pmin(eventually target) = 1]. *)
val always_reaches : ('s, 'a) Arena.t -> target:bool array -> bool array

(** [safe_core arena ~avoid] is the largest set [S ⊆ avoid] such that
    every state of [S] is terminal or has a step whose support stays in
    [S] -- the region in which the adversary can avoid leaving [avoid]
    surely.  [steps] (default: every step) restricts the adversary to
    the steps it accepts; a state whose every step is refused and that
    is not terminal leaves [S]. *)
val safe_core :
  ?steps:(int -> bool) -> ('s, 'a) Arena.t -> avoid:bool array -> bool array

(** [can_avoid arena ~target] is the set where some adversary keeps the
    probability of reaching [target] below 1 (the complement of
    {!always_reaches}).  With [steps], a refused step counts as one
    that reaches [target] surely: both fixpoints read only the accepted
    steps. *)
val can_avoid :
  ?steps:(int -> bool) -> ('s, 'a) Arena.t -> target:bool array -> bool array
