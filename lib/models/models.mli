(** The model registry and the case-study table: the one place that
    knows the model families.

    Every surface -- the [prtb] subcommands, [prtb serve] (the wire
    protocol, the service and the snapshot store), the experiment
    harness and the benchmarks -- reads a family's names, ranges,
    conventions and reports from here and resolves instances through
    the memoized, domain-safe registry below, so within one process
    each (model, parameters) pair is explored and its {!Mdp.Arena}
    compiled {e exactly once}, also under concurrent [prtb serve]
    workers -- [prtb check lr --stats] reports
    [explorations: 1, compiles: 1].

    A query's {!params} normalize to a full parameter {!tuple}: the
    registry key is printed from it, and {!case} maps it to the family
    library's {!Analysis.Description}, which the registry builds, the
    snapshot loader rebuilds and Monte Carlo reads.  What a family
    reads, its conventions and its report heading are rows of one
    table.  Everything a surface reads of a built instance -- the
    arena, the [/check] fields, the text report, the certificate, the
    lint claims -- is the family library's
    {!Analysis.Description.view} of it, from one opener, {!view}.  The
    registry also owns the built-in [prtb lint] targets. *)

(** The Example 4.1 two-coin automaton (here so the lint-target table
    needs nothing from the experiments library). *)
module Race = Race

(** {1 The case studies} *)

type family = [ `Lr | `Election | `Coin | `Consensus ]

(** The family a query runs when it names none: [`Lr], the paper's
    worked example. *)
val default : family

(** The wire and CLI name: ["lr"], ["election"], ["coin"] or
    ["consensus"]. *)
val name : family -> string

(** The family a name or alias denotes (["lr"], ["lehmann-rabin"],
    ["dining"], ["election"], ["itai-rodeh"], ["coin"], ["shared-coin"],
    ["consensus"], ["ben-or"]); case-sensitive. *)
val of_name : string -> family option

(** A query's parameters.  [topology] is read by lr only (["ring"],
    ["line"] or ["star"]), [bound] (the barrier) by coin only and [cap]
    (the round cap) by consensus only.  Consensus runs with the
    largest fault bound [f = (n-1)/2] and a mixed start, exactly one
    process proposing 1. *)
type params = {
  family : family;
  n : int;
  g : int;
  k : int;
  topology : string;
  bound : int;
  cap : int;
}

(** A full parameter tuple, as a snapshot records it: [params] with the
    fields its family does not read neutral, and consensus's [f] and
    [initial] ([0] and [[||]] elsewhere).  lr's general topologies are
    ["line"], ["star"] and, from {!lr_topo}, ["ring(n)"]. *)
type tuple = { params : params; f : int; initial : bool array }

(** [Some (field, problem)] for the first parameter [p]'s family does
    not accept, e.g. [("n", "must be at least 2 for lr (got 1)")]: lr
    and election need [n >= 2], coin and consensus [n >= 1]; [g], [k]
    and the [bound] or [cap] the family reads must be positive, and
    only lr takes a topology other than ["ring"].  Every resolver
    below assumes this returned [None].

    With [explored] (the default) [n] must also be at most the family's
    largest checkable size -- lr 5, election 10, coin 13, consensus 4 --
    so a query like [check lr -n 99] is refused at once instead of
    exploring for minutes before the 2M-state ceiling stops it.  Monte
    Carlo ([prtb simulate], [/simulate]) passes [~explored:false]:
    large rings are what it is for, up to the family's Monte Carlo
    ceiling -- lr 100, election 62, coin 200, consensus 7, each the
    largest [n] whose default 2 000 trials finish in about 30 s and
    256 MiB on two cores -- past which [n] is refused as [must be at
    most .. for .. Monte Carlo]. *)
val invalid : ?explored:bool -> params -> (string * string) option

(** The parameters [prtb simulate] and [/simulate] run at: [g = k = 1],
    the ring, barrier 4 and 50 consensus rounds. *)
val sim_params : family -> n:int -> params

(** The tuple [p] resolves to, consensus's [f] and [initial] by the
    convention above. *)
val normalize : params -> tuple

(** {1 Instances} *)

type instance =
  | Lr of Lehmann_rabin.Proof.instance
  | Lr_topo of Lehmann_rabin.Proof.topo_instance
  | Election of Itai_rodeh.Proof.instance
  | Coin of Shared_coin.Proof.instance
  | Consensus of Ben_or.Proof.instance

val family_of : instance -> family

(** A tuple's description and its instance's constructor ([Lr_topo]
    off the ring); [case] raises [Invalid_argument] on an unknown lr
    topology. *)
type case =
  | Case : ('s, 'a, 'i) Analysis.Description.t * ('i -> instance) -> case

val case : tuple -> case

(** [resolve ?max_states ?sym p] is the registry's instance for [p]:
    built on first request (lr's line and star topologies as
    [Lr_topo]), cached per parameter tuple including [max_states] and
    [sym] (default [Off]) for the lifetime of the process -- or, under
    {!set_capacity}, until evicted by more recently used instances. *)
val resolve :
  ?max_states:int -> ?sym:Analysis.Symmetry.mode -> params -> instance

(** The family library's view of an instance, whatever its state type.
    Opening one builds nothing: no pass runs until a closure is called. *)
type view = View : ('s, 'a) Analysis.Description.view -> view

val view : instance -> view

(** {1 What the surfaces print} *)

(** The ["params"] object of [/check] and [/cert] headers. *)
val params_json : params -> (string * Analysis.Json.t) list

(** The [/check] result fields after the header, as [prtb check
    --format json] prints them.  Independent passes (the arrows, the
    direct bound, value iteration, ...) run concurrently through the
    view's {!Parallel}[.Fork] region, inline on a server worker; the
    fields are the same bytes on any schedule. *)
val check_fields : instance -> (string * Analysis.Json.t) list

(** The family parameters every certificate leaf records. *)
val leaf_params : params -> (string * string) list

(** The composed claim's certificate, its leaves stamped with [config]
    and the arena fingerprint; [Error] when the composition fails. *)
val certificate :
  config:Cert.Node.leaf_config -> instance -> (Cert.Node.t, string) result

(** The [prtb check] text report on stdout: a heading naming the query
    (flushed before the build, so a refused build still names it),
    then {!resolve} and the instance's arrows, composition and
    bounds.  [max_states] bounds the exploration as in {!resolve}. *)
val report :
  ?max_states:int -> ?sym:Analysis.Symmetry.mode -> params -> unit

(** {1 Monte Carlo} *)

(** A seeded setup under the chosen scheduler, with its family's target. *)
type simulation =
  | Simulation :
      ('s, 'a) Sim.Monte_carlo.setup * ('s, 'a) Analysis.Description.monte_carlo
      -> simulation

(** The seeded Monte Carlo setup for [p] under the named scheduler
    (default ["uniform"]; lr also runs [eager], [delayer], [starver]
    and [round-robin]), from the description {!case} gives [p]'s tuple.
    [Error] names an unknown scheduler, a non-uniform one outside lr,
    or an lr topology other than the ring. *)
val simulation : ?scheduler:string -> params -> (simulation, string) result

(** {1 Typed builders}

    Parameters mirror the proof modules' [build] functions and share
    {!resolve}'s cache.  [lr_topo] takes the stock topologies only. *)

val lr :
  ?max_states:int -> ?g:int -> ?k:int -> ?sym:Analysis.Symmetry.mode ->
  n:int -> unit -> Lehmann_rabin.Proof.instance

val lr_topo :
  ?max_states:int -> ?g:int -> ?k:int -> ?sym:Analysis.Symmetry.mode ->
  topo:Lehmann_rabin.Topology.t -> unit ->
  Lehmann_rabin.Proof.topo_instance

val election :
  ?max_states:int -> ?g:int -> ?k:int -> ?sym:Analysis.Symmetry.mode ->
  n:int -> unit -> Itai_rodeh.Proof.instance

val coin :
  ?max_states:int -> ?g:int -> ?k:int -> ?sym:Analysis.Symmetry.mode ->
  n:int -> bound:int -> unit -> Shared_coin.Proof.instance

val consensus :
  ?max_states:int -> ?g:int -> ?k:int -> ?sym:Analysis.Symmetry.mode ->
  n:int -> f:int -> cap:int -> initial:bool array -> unit ->
  Ben_or.Proof.instance

(** {1 Preloading}

    [preload ?max_states ~sym t inst] seeds the registry with an
    instance of [t] built elsewhere -- an arena snapshot loaded by
    [prtb serve --snapshot-dir] -- under the key {!resolve} and the
    typed builders print from the same tuple, so the first served query
    for it is a cache hit with [explorations: 0, compiles: 0].  Returns
    [false] (keeping the existing entry) when the key is already cached
    or mid-build; preloaded entries respect {!set_capacity}.  [sym] and
    [max_states] are part of the key.  The typed [preload_*] take the
    whole tuple, like their builders. *)

val preload :
  ?max_states:int -> sym:Analysis.Symmetry.mode -> tuple -> instance ->
  bool

val preload_lr :
  ?max_states:int -> g:int -> k:int -> sym:Analysis.Symmetry.mode ->
  n:int -> Lehmann_rabin.Proof.instance -> bool

val preload_lr_topo :
  ?max_states:int -> g:int -> k:int -> sym:Analysis.Symmetry.mode ->
  topo:Lehmann_rabin.Topology.t -> Lehmann_rabin.Proof.topo_instance ->
  bool

val preload_election :
  ?max_states:int -> g:int -> k:int -> sym:Analysis.Symmetry.mode ->
  n:int -> Itai_rodeh.Proof.instance -> bool

val preload_coin :
  ?max_states:int -> g:int -> k:int -> sym:Analysis.Symmetry.mode ->
  n:int -> bound:int -> Shared_coin.Proof.instance -> bool

val preload_consensus :
  ?max_states:int -> g:int -> k:int -> sym:Analysis.Symmetry.mode ->
  n:int -> f:int -> cap:int -> initial:bool array ->
  Ben_or.Proof.instance -> bool

(** {1 Cache bounds}

    [set_capacity (Some bytes)] bounds the memory retained by the memo
    tables: every cached instance carries a cost estimated from its
    compiled arena size, and when the total exceeds the capacity the
    least-recently-used instances are evicted (an instance larger than
    the whole capacity is returned but not retained).  [prtb serve]
    wires [--cache-mb] here; the one-shot CLI default is [None]
    (unbounded, process lifetimes are one query long). *)
val set_capacity : int option -> unit

(** {1 Work accounting} *)

type stats = {
  explorations : int;  (** {!Mdp.Explore.explorations} *)
  compiles : int;  (** {!Mdp.Arena.compiles} *)
  builds : int;  (** instances actually constructed here *)
  cache_hits : int;  (** builder calls answered from the cache *)
  evictions : int;  (** instances dropped by {!set_capacity} pressure *)
  cached_entries : int;  (** instances currently retained *)
  cached_bytes : int;  (** their estimated total cost *)
}

(** Process-lifetime totals (the exploration and compile counters are
    global, so work done outside the registry is counted too). *)
val stats : unit -> stats

(** ["registry: explorations: %d, compiles: %d, builds: %d, cache \
    hits: %d, evictions: %d"] -- the line [prtb --stats] prints and CI
    greps. *)
val pp_stats : Format.formatter -> stats -> unit

(** {1 Lint targets} *)

type entry = {
  name : string;  (** CLI name, e.g. ["lr"] or ["example:walker"] *)
  doc : string;  (** one-line description for [--help] *)
  lint :
    max_states:int -> ?sym:Analysis.Symmetry.mode -> unit ->
    Analysis.Report.t;
      (** [sym] (default [Off]) selects the exploration mode; the
          [*-sym] targets pin it to [On] regardless. *)
}

(** The built-in targets, in display order: each case study at a small
    instance (lr also on the line and star), the [*-sym] variants on
    the certified quotient, [lr-crash], and the two example automata. *)
val entries : entry list

val find_opt : string -> entry option

(** The quickstart walker automaton (also a lint target). *)
module Walker : sig
  type state = Done | Walk of { c : int; b : int }
  type action = Tick | Flip

  val is_tick : action -> bool
  val pa : (state, action) Core.Pa.t
end
