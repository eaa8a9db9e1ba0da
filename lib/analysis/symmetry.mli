(** Static symmetry analysis with certified automorphisms (PA03x).

    A model {e declares} candidate permutations of its state and action
    spaces (ring rotation, process transposition, topology
    automorphisms); this pass {e verifies} each one is an automorphism
    of the probabilistic automaton by checking transition-distribution
    equivariance over the explored fragment: for every checked state
    [s] and generator [g], the multiset of enabled steps at [g s] must
    equal the [g]-image of the multiset at [s], with distributions
    compared outcome-by-outcome at exact rational weights, and the
    start set must be closed under [g].

    Verified generators yield a {!certificate}; on top of it,
    {!canonicalizer} gives the interning function that makes
    [Mdp.Explore] build the orbit quotient, which compiles through the
    ordinary [Mdp.Arena] CSR path.  Diagnostics:

    - [PA030] (error): a declared permutation is not an automorphism.
    - [PA031] (error): a claim/reachability predicate is not invariant
      under the verified group -- orbit reduction would be unsound.
    - [PA032] (info): the model is certifiably symmetric but was
      explored unreduced; reports the measured compression ratio.
    - [PA033] (error): on a quotient, a representative is not the
      [Stdlib.compare] minimum of its orbit, so the canonicalizer that
      built the quotient may have given one orbit two representatives. *)

(** How surfaces request reduction: [Off] never reduces, [On] demands
    a certificate and fails ({!Not_certified}) without one, [Auto]
    reduces when certification succeeds and silently falls back to the
    unreduced exploration otherwise. *)
type mode = Auto | On | Off

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

(** A candidate automorphism: a state permutation together with the
    matching action permutation.  Both must be bijections; the
    verifier detects most violations (via orbit overflow or
    equivariance failure) but cannot prove bijectivity of functions on
    an infinite state space. *)
type ('s, 'a) generator = private {
  gen_name : string;
  on_state : 's -> 's;
  on_action : 'a -> 'a;
  maps_to : ('s -> 's -> bool) option;
}

val generator :
  name:string -> on_state:('s -> 's) -> on_action:('a -> 'a) ->
  ('s, 'a) generator

(** [with_maps_to maps_to g] is [g] with an in-place image test:
    [maps_to u v] must equal [equal (g.on_state u) v] for every pair of
    states, decided without building the image.  The certifier then
    compares each orbit member's successors with its image's through
    [maps_to] and builds no image of them.  It assumes [g] is a
    bijection, as a declaration must be anyway: it does not merge
    outcomes whose images coincide. *)
val with_maps_to :
  ('s -> 's -> bool) -> ('s, 'a) generator -> ('s, 'a) generator

(** What a model declares: group generators, plus the named predicates
    (claim pre/post sets, reachability targets) that any sound
    reduction must leave invariant, and optionally its own orbit
    canonicalizer.

    Declare a set that {e generates} the group, not every element of
    it: orbit closure, equivariance checks and predicate comparisons
    each cost one image per orbit member per generator, and certifying
    the generators certifies every composition of them.  One rotation
    generates a ring's rotations; [n-1] transpositions generate all
    [n!] permutations.

    [canon], when given, is what {!canonicalizer} returns: a faster
    function that must map each state to the state the generic closure
    would, the [Stdlib.compare] minimum of its orbit, and must keep no
    shared mutable scratch (exploration, served workers and Monte Carlo
    domains call it concurrently).  A model builds it from its own
    representation, as [Lehmann_rabin.Symmetry] does from a permutation
    table of the group.  The certifier closes every representative's
    orbit anyway and refuses (PA033) a representative that is not its
    orbit's minimum, so an in-orbit wrong answer cannot go unnoticed;
    one that leaves the orbit is the model's obligation, like a
    generator's bijectivity. *)
type ('s, 'a) spec = {
  generators : ('s, 'a) generator list;
  invariant_preds : 's Core.Pred.t list;
  canon : ('s -> 's) option;
}

(** [spec ?preds ?canon generators].  The certifier packs each state's
    predicates into one int, so there may be at most [Sys.int_size - 1]
    of them ([Invalid_argument] otherwise); a {!Core.Pred.union} of two
    listed predicates costs an OR of their bits, not a call. *)
val spec :
  ?preds:'s Core.Pred.t list ->
  ?canon:('s -> 's) ->
  ('s, 'a) generator list -> ('s, 'a) spec

(** Raised by {!require} (and by surfaces running with [--sym on])
    when certification fails. *)
exception Not_certified of string

(** [orbit ~equal gens s]: closure of [s] under the generators.
    Raises [Invalid_argument] past [max_orbit] (default [40_320]
    = 8!), which indicates a non-bijective declaration.  [hash] must
    agree with [equal] (pass the automaton's [Core.Pa.hash_state]);
    given, membership in an orbit past 32 members is a table lookup
    instead of a scan, with the same result. *)
val orbit :
  ?max_orbit:int -> ?hash:('s -> int) -> equal:('s -> 's -> bool) ->
  ('s, 'a) generator list -> 's -> 's list

(** [canonicalizer ~equal spec] maps each state to its orbit
    representative: the minimum of the orbit under [compare] (default
    [Stdlib.compare]).  With no generators this is the identity.  When
    [spec] carries its own [canon] and no [compare] is given, that is
    returned; otherwise the orbit is closed as {!orbit} does and its
    minimum taken.  Intended as the [canon] argument of
    [Mdp.Explore.run].  [hash] as for {!orbit}. *)
val canonicalizer :
  ?compare:('s -> 's -> int) -> ?max_orbit:int -> ?hash:('s -> int) ->
  equal:('s -> 's -> bool) -> ('s, 'a) spec -> 's -> 's

(** Evidence that the group was verified on a fragment: per-generator
    spot-check fingerprints (a deterministic hash of the states each
    generator was checked at, for run-to-run comparison), coverage
    counts, and whether the fragment itself was orbit-reduced.
    [full_states] is the size of the union of the orbits of the
    fragment's states -- for a reduced fragment of a verified group
    this equals the unreduced reachable count. *)
type certificate = {
  cert_generators : (string * string) list;  (** (name, fingerprint) *)
  states_checked : int;
  full_states : int;
  reduced : bool;
  preds_checked : string list;
}

val certificate_to_json : certificate -> Json.t

(** [verify ~model spec expl] checks every generator and predicate
    over the fragment and returns the diagnostics plus the certificate
    when all checks pass ([None] under any PA030/PA031, or when there
    are no generators).

    [reduced] says [expl] was explored through a {!canonicalizer}: the
    verifier then expands each representative's full orbit and checks
    every member (sound coverage of the unreduced reachable set),
    checks that the representative is its orbit's [Stdlib.compare]
    minimum (PA033), and PA032 is suppressed.  Each member's facts
    (hash, enabled steps with merged supports, predicates packed into
    an int) are built once into scratch arrays the range reuses, so a
    predicate check costs one int comparison per member and generator
    when nothing differs.  On unreduced fragments larger than
    [max_checks] (state, generator) evaluations, states are
    stride-sampled; the certificate records actual coverage.

    The representatives are checked in a fixed grid of chunks of 16
    consecutive indices through a {!Parallel}[.Fork.stream] region,
    and merged in chunk order: the result is identical to one pass in
    index order.  [helpers] is passed to the region; tests set it to
    check chunks concurrently on a one-core host. *)
val verify :
  model:string ->
  ?reduced:bool ->
  ?max_orbit:int ->
  ?max_checks:int ->
  ?helpers:int ->
  ('s, 'a) spec ->
  ('s, 'a) Mdp.Explore.t ->
  Diagnostic.t list * certificate option

(** {2 Certificate fingerprints}

    A generator's certificate fingerprint is [mix] folded from 0 over
    the hashes of the state pairs it was checked at, in index order.
    {!verify} and {!explored} check chunks of representatives
    concurrently and rejoin their folds with {!join_fingerprints},
    which is exact: the fingerprint does not depend on how the chunks
    were scheduled. *)

(** [mix fp h] folds one hash into a 30-bit fingerprint. *)
val mix : int -> int -> int

(** [join_fingerprints ~left ~right ~right_mixes] is the fold of a
    sequence from 0 given [left], the fold of its prefix from 0, and
    [right], the fold of the remaining [right_mixes] hashes from 0. *)
val join_fingerprints : left:int -> right:int -> right_mixes:int -> int

(** [explored ~model ~mode spec pa] is the one-call surface behind
    proof builders: [Off] explores unreduced with no certificate;
    [On]/[Auto] explore the orbit quotient through the
    {!canonicalizer} and certify it exactly as {!verify} with
    [~reduced:true] would (orbit-expanded, so the certificate covers
    the unreduced reachable set): same chunk grid, same diagnostics,
    same certificate.  Certification runs while the quotient is being
    explored: each chunk of representatives is checked as soon as
    {!Mdp.Explore.run}'s [on_intern] has interned it.  When
    certification fails, [Auto] silently rebuilds unreduced, [On]
    raises {!Not_certified}; with no generators declared the quotient
    is explored all the same and certification fails.  [helpers] is as
    for {!verify}. *)
val explored :
  model:string ->
  mode:mode ->
  ?max_states:int ->
  ?max_orbit:int ->
  ?helpers:int ->
  ('s, 'a) spec ->
  ('s, 'a) Core.Pa.t ->
  ('s, 'a) Mdp.Explore.t * certificate option

(** [require ~model result] unwraps a {!verify} result, raising
    {!Not_certified} with the concatenated diagnostics when no
    certificate was produced.  Surfaces use it to implement
    [--sym on]. *)
val require :
  model:string ->
  Diagnostic.t list * certificate option ->
  Diagnostic.t list * certificate
