(** The model registry and the case-study table: the one place that
    knows the model families.

    Every surface -- [prtb check], [compile], [simulate], [export-dot]
    and [lint], [prtb serve] (the wire protocol, the service and the
    snapshot store), the experiment harness and the benchmarks --
    reads a family's names, parameter ranges, conventions and reports
    from here and resolves instances through the memoized registry
    below, so within one process invocation each (model, parameters)
    pair is explored and its {!Mdp.Arena} compiled {e exactly once} --
    [prtb check lr --stats] reports [explorations: 1, compiles: 1].

    The registry is {e domain-safe}: concurrent [prtb serve] workers
    requesting the same key block on the single in-flight build instead
    of racing it, so the build-once guarantee survives contention
    (builds of distinct keys still run in parallel).

    The registry also owns all built-in lint targets for [prtb lint]
    (each target couples an automaton with the model knowledge that
    unlocks the deeper checks: tick classifier, intended terminals,
    finished claims). *)

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

(** [Some (field, problem)] for the first parameter [p]'s family does
    not accept, e.g. [("n", "must be at least 2 for lr (got 1)")]: lr
    and election need [n >= 2], coin and consensus [n >= 1]; [g], [k]
    and the [bound] or [cap] the family reads must be positive, and
    only lr takes a topology other than ["ring"].  Every resolver
    below assumes this returned [None]. *)
val invalid : params -> (string * string) option

(** The parameters [prtb simulate] and [/simulate] run at: [g = k = 1],
    the ring, barrier 4 and 50 consensus rounds. *)
val sim_params : family -> n:int -> params

(** What a snapshot records: [p] with the fields its family does not
    read at neutral values (topology ["ring"], [bound] and [cap] 0),
    then consensus's fault bound and initial estimates ([0] and [[||]]
    for the other families). *)
val normalize : params -> params * int * bool array

(** {1 Instances} *)

type instance =
  | Lr of Lehmann_rabin.Proof.instance
  | Lr_topo of Lehmann_rabin.Proof.topo_instance
  | Election of Itai_rodeh.Proof.instance
  | Coin of Shared_coin.Proof.instance
  | Consensus of Ben_or.Proof.instance

val family_of : instance -> family

(** [resolve ?max_states ?sym p] is the registry's instance for [p]:
    built on first request (lr's line and star topologies as
    [Lr_topo]), cached per parameter tuple including [max_states] and
    [sym] (default [Off]) for the lifetime of the process -- or, under
    {!set_capacity}, until evicted by more recently used instances. *)
val resolve :
  ?max_states:int -> ?sym:Analysis.Symmetry.mode -> params -> instance

(** A function over an instance's compiled arena, whatever its state
    type: the arena, its symmetry certificate, and the family's
    reachability target (the critical region, an elected leader, a
    decided coin or process). *)
type 'r visitor = {
  visit :
    's 'a. ('s, 'a) Mdp.Arena.t -> Analysis.Symmetry.certificate option ->
    ('s -> bool) -> 'r;
}

val with_arena : instance -> 'r visitor -> 'r

(** {1 What the surfaces print} *)

(** The ["params"] object of [/check] and [/cert] headers. *)
val params_json : params -> (string * Analysis.Json.t) list

(** The [/check] result fields after the header, as [prtb check
    --format json] prints them. *)
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
    bounds. *)
val report : ?sym:Analysis.Symmetry.mode -> params -> unit

(** {1 Monte Carlo} *)

type simulation =
  | Simulation : {
      setup : ('s, 'a) Sim.Monte_carlo.setup;
      target : 's -> bool;
      reach : string;  (** what [target] means, e.g. ["decided"] *)
      horizon : int;
          (** the family's time bound at these parameters, in slots:
              the deadline estimate's [within] *)
      time_report :
        trials:int -> missed:int -> Proba.Stat.Summary.t -> string;
          (** the [prtb simulate] expected-time line *)
    }
      -> simulation

(** The seeded Monte Carlo setup for [p] under the named scheduler
    (default ["uniform"]; lr also runs [eager], [delayer], [starver]
    and [round-robin]).  [Error] names an unknown scheduler, a
    non-uniform one outside lr, or an lr topology other than the
    ring. *)
val simulation : ?scheduler:string -> params -> (simulation, string) result

(** {1 Typed builders}

    Parameters mirror the proof modules' [build] functions and share
    {!resolve}'s cache. *)

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

    [preload ?max_states ~sym inst] seeds the registry with an instance
    built elsewhere -- an arena snapshot loaded by [prtb serve
    --snapshot-dir] -- under exactly the key {!resolve} and the typed
    builders use for the parameters the instance carries, so the first
    served query for those parameters is a cache hit with
    [explorations: 0, compiles: 0].  Returns [false] (keeping the
    existing entry) when the key is already cached or mid-build;
    preloaded entries respect {!set_capacity} like any other insert.
    The [sym] and [max_states] arguments are part of the key and are
    not recorded in the instance, so callers must state them.  The
    typed [preload_*] take the whole tuple, like their builders. *)

val preload :
  ?max_states:int -> sym:Analysis.Symmetry.mode -> instance -> bool

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
