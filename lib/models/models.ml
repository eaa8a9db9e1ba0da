module D = Proba.Dist
module J = Analysis.Json
module Sym = Analysis.Symmetry
module Desc = Analysis.Description
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or
module Race = Race

(* ------------------------------------------------------------------ *)
(* The case-study table.  Plain data about a family -- names, ranges,
   the fields it reads, conventions, its report heading -- is a row of
   [case_studies]; building an instance is one lookup, [case], into the
   family library's description; everything a surface reads of a built
   instance is the family's view of it, from one opener, [view]. *)

type family = [ `Lr | `Election | `Coin | `Consensus ]

type params = {
  family : family;
  n : int;
  g : int;
  k : int;
  topology : string;
  bound : int;
  cap : int;
}

type tuple = { params : params; f : int; initial : bool array }

(* lr's general topologies by topology field.  The ring's general form
   goes by its own name, e.g. "ring(3)", which only [lr_topo] asks for. *)
let lr_general = [ ("line", LR.Topology.line); ("star", LR.Topology.star) ]

let lr_topology (p : params) =
  let ring = LR.Topology.ring p.n in
  match List.assoc_opt p.topology lr_general with
  | Some make -> make p.n
  | None when p.topology = LR.Topology.name ring -> ring
  | None -> invalid_arg ("Models: no lr topology " ^ p.topology)

type case_study = {
  family : family;
  name : string;
  aliases : string list;
  min_n : int;  (* the automaton's own precondition *)
  max_n : int;
      (* the largest n at which a check (for lr, one with --sym on)
         finishes under the 2M-state ceiling in about 30 s on two cores;
         past it a check hits that ceiling or takes longer *)
  max_sim_n : int;
      (* the largest n at which Monte Carlo ([prtb simulate] at its
         default 2 000 trials) finishes in about 30 s and 256 MiB on two
         cores: lr n=100 took 28.5 s, coin n=200 21.3 s, consensus n=7
         2.7 s and 203 MiB (n=8: 22.7 s and 634 MiB); election stops
         at 62, the most per-process predicates its symmetry spec takes
         (n=62: 5.8 s) *)
  topologies : string list;  (* [] if the family runs on the ring only *)
  reads : string list;  (* which of "bound" and "cap" it reads *)
  convention : (int -> int * bool array) option;
      (* the fault bound and initial estimates every surface runs it at *)
  heading : tuple -> string;  (* the [prtb check] text report's *)
}

let case_studies =
  [ { family = `Lr; name = "lr"; aliases = [ "lehmann-rabin"; "dining" ];
      min_n = 2; max_n = 5; max_sim_n = 100;
      topologies = "ring" :: List.map fst lr_general;
      reads = []; convention = None;
      heading =
        (fun { params = p; _ } ->
           if p.topology = "ring" then
             Printf.sprintf "Lehmann-Rabin, n=%d g=%d k=%d" p.n p.g p.k
           else
             Printf.sprintf "Lehmann-Rabin on %s, g=%d k=%d"
               (LR.Topology.name (lr_topology p)) p.g p.k) };
    { family = `Election; name = "election"; aliases = [ "itai-rodeh" ];
      min_n = 2; max_n = 10; max_sim_n = 62; topologies = []; reads = [];
      convention = None;
      heading = (fun t -> Printf.sprintf "Leader election, n=%d" t.params.n) };
    { family = `Coin; name = "coin"; aliases = [ "shared-coin" ]; min_n = 1;
      max_n = 13; max_sim_n = 200; topologies = []; reads = [ "bound" ];
      convention = None;
      heading =
        (fun { params = p; _ } ->
           Printf.sprintf "Shared coin, n=%d barrier=±%d" p.n p.bound) };
    (* Ben-Or runs with the largest fault bound [n] tolerates and a mixed
       start: process [n-1] proposes 1, the others 0. *)
    { family = `Consensus; name = "consensus"; aliases = [ "ben-or" ];
      min_n = 1; max_n = 4; max_sim_n = 7; topologies = []; reads = [ "cap" ];
      convention =
        Some (fun n -> ((n - 1) / 2, Array.init n (fun i -> i = n - 1)));
      heading =
        (fun { params = p; f; _ } ->
           Printf.sprintf
             "Ben-Or consensus, n=%d f=%d cap=%d rounds, mixed start" p.n f
             p.cap) } ]

let default = `Lr

let case_study f = List.find (fun (c : case_study) -> c.family = f) case_studies
let name f = (case_study f).name

let of_name s =
  List.find_map
    (fun (c : case_study) ->
       if String.equal c.name s || List.mem s c.aliases then Some c.family
       else None)
    case_studies

let sim_params family ~n =
  { family; n; g = 1; k = 1; topology = "ring"; bound = 4; cap = 50 }

let invalid ?(explored = true) (p : params) =
  let c = case_study p.family in
  let least field v m =
    if v >= m then None
    else
      Some
        ( field,
          Printf.sprintf "must be at least %d for %s (got %d)" m c.name v )
  in
  let most =
    if explored && p.n > c.max_n then
      Some
        ( "n",
          Printf.sprintf "must be at most %d for %s (got %d)" c.max_n c.name
            p.n )
    else if p.n > c.max_sim_n then
      Some
        ( "n",
          Printf.sprintf "must be at most %d for %s Monte Carlo (got %d)"
            c.max_sim_n c.name p.n )
    else None
  in
  let read field v = if List.mem field c.reads then least field v 1 else None in
  let rec one_of = function
    | [ a ] -> a
    | [ a; b ] -> a ^ " or " ^ b
    | a :: rest -> a ^ ", " ^ one_of rest
    | [] -> ""
  in
  let readers = List.filter (fun c -> c.topologies <> []) case_studies in
  let topology =
    if List.mem p.topology ("ring" :: c.topologies) then None
    else
      Some
        ( "topology",
          if c.topologies = [] then
            Printf.sprintf "applies to the %s model only (got %S)"
              (one_of (List.map (fun c -> c.name) readers)) p.topology
          else
            Printf.sprintf "must be %s (got %S)" (one_of c.topologies)
              p.topology )
  in
  List.find_map Fun.id
    [ topology; least "n" p.n c.min_n; most; least "g" p.g 1; least "k" p.k 1;
      read "bound" p.bound; read "cap" p.cap ]

let normalize (p : params) =
  let c = case_study p.family in
  let f, initial =
    match c.convention with Some at -> at p.n | None -> (0, [||])
  in
  let read field v = if List.mem field c.reads then v else 0 in
  { params =
      { p with topology = (if c.topologies = [] then "ring" else p.topology);
               bound = read "bound" p.bound; cap = read "cap" p.cap };
    f; initial }

(* ------------------------------------------------------------------ *)
(* Instances, and the one lookup the registry and the snapshot loader
   build them from. *)

type instance =
  | Lr of LR.Proof.instance
  | Lr_topo of LR.Proof.topo_instance
  | Election of IR.Proof.instance
  | Coin of SC.Proof.instance
  | Consensus of BO.Proof.instance

let family_of = function
  | Lr _ | Lr_topo _ -> `Lr
  | Election _ -> `Election
  | Coin _ -> `Coin
  | Consensus _ -> `Consensus

type case = Case : ('s, 'a, 'i) Desc.t * ('i -> instance) -> case

let case { params = p; f; initial } =
  let { n; g; k; _ } = p in
  match p.family with
  | `Lr when p.topology = "ring" ->
    Case (LR.Proof.describe { n; g; k }, fun i -> Lr i)
  | `Lr ->
    Case
      (LR.Proof.describe_topo ~topo:(lr_topology p) ~g ~k, fun i -> Lr_topo i)
  | `Election -> Case (IR.Proof.describe { n; g; k }, fun i -> Election i)
  | `Coin ->
    Case (SC.Proof.describe { n; bound = p.bound; g; k }, fun i -> Coin i)
  | `Consensus ->
    Case
      ( BO.Proof.describe { n; f; cap = p.cap; g; k } ~initial,
        fun i -> Consensus i )

let bits a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

(* Printed from the tuple alone, so the key asked for before a build
   and the one a snapshot's recorded tuple seeds are one string. *)
let key ~max_states ~sym { params = p; f; initial } =
  Printf.sprintf
    "%s?n=%d&g=%d&k=%d&topology=%s&bound=%d&cap=%d&f=%d&initial=%s&\
     max_states=%s&sym=%s"
    (name p.family) p.n p.g p.k p.topology p.bound p.cap f (bits initial)
    (match max_states with None -> "" | Some m -> string_of_int m)
    (Sym.mode_to_string sym)

type view = View : ('s, 'a) Desc.view -> view

(* Each family's view only packs its instance's fields and closures, so
   opening an instance builds nothing. *)
let view = function
  | Lr i -> View (LR.Proof.view i)
  | Lr_topo i -> View (LR.Proof.view_topo i)
  | Election i -> View (IR.Proof.view i)
  | Coin i -> View (SC.Proof.view i)
  | Consensus i -> View (BO.Proof.view i)

(* ------------------------------------------------------------------ *)
(* The registry.  One mutex guards [building] and [builds] (the table
   is a [Parallel.Cache] with its own lock, taken inside it); builds run
   OUTSIDE the lock (so distinct keys explore in parallel) with the key
   marked in [building], and domains asking for an in-flight key wait
   on [built_cond].  N domains requesting the same key therefore
   perform exactly one exploration and one compile (asserted by the
   multi-domain hammer in test/test_models.ml). *)

let mu = Mutex.create ()
let built_cond = Condition.create ()
let builds_counter = ref 0

(* Rough retained size of an instance: CSR rows, the interned state
   values and the memo overhead, all order-of-magnitude -- the LRU
   needs proportionality, not precision. *)
let table =
  Parallel.Cache.create
    ~cost:(fun inst ->
        let (View v) = view inst in
        4096 + (512 * Mdp.Arena.num_states v.arena))
    ()

let building : (string, unit) Hashtbl.t = Hashtbl.create 8

let set_capacity cap = Parallel.Cache.set_capacity table cap

let build ?max_states ~sym t =
  let (Case (d, wrap)) = case t in
  wrap (Desc.build ?max_states ~sym d)

let obtain ?max_states ~sym t =
  let key = key ~max_states ~sym t in
  Mutex.lock mu;
  let rec go () =
    match Parallel.Cache.find table key with
    | Some inst ->
      Mutex.unlock mu;
      inst
    | None ->
      if Hashtbl.mem building key then begin
        Condition.wait built_cond mu;
        go ()
      end
      else begin
        Hashtbl.add building key ();
        Mutex.unlock mu;
        let result =
          try Ok (build ?max_states ~sym t)
          with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock mu;
        Hashtbl.remove building key;
        Condition.broadcast built_cond;
        match result with
        | Error (e, bt) ->
          Mutex.unlock mu;
          Printexc.raise_with_backtrace e bt
        | Ok inst ->
          incr builds_counter;
          Parallel.Cache.add table key inst;
          Mutex.unlock mu;
          inst
      end
  in
  go ()

(* Seed the table with an instance built elsewhere (an arena snapshot
   loaded at daemon startup).  No build happens here so [builds] stays
   put -- the CI snapshot smoke asserts [explorations: 0, compiles: 0]
   on the first served query, which only holds if preloaded entries are
   indistinguishable from built ones on the lookup path.  A key that is
   already cached or mid-build keeps the existing/raced instance;
   preloading respects the LRU capacity like any insert. *)
let preload ?max_states ~sym t inst =
  let key = key ~max_states ~sym t in
  Mutex.lock mu;
  let fresh =
    not (Parallel.Cache.mem table key || Hashtbl.mem building key)
  in
  if fresh then Parallel.Cache.add table key inst;
  Mutex.unlock mu;
  fresh

let resolve ?max_states ?(sym = Sym.Off) p =
  obtain ?max_states ~sym (normalize p)

(* The typed builders and preloads: each family's tuple, and the
   constructor [obtain] of it always yields. *)

let tuple ?(topology = "ring") ?(bound = 0) ?(cap = 0) ?(f = 0)
    ?(initial = [||]) family ~n ~g ~k =
  { params = { family; n; g; k; topology; bound; cap }; f; initial }

(* Any other topology keeps its own name, which [case] refuses. *)
let topo_tuple ~topo ~g ~k =
  let n = LR.Topology.num_procs topo and name = LR.Topology.name topo in
  let field (f, make) =
    if LR.Topology.name (make n) = name then Some f else None
  in
  tuple `Lr ~n ~g ~k
    ~topology:(Option.value ~default:name (List.find_map field lr_general))

let lr ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~n () =
  match obtain ?max_states ~sym (tuple `Lr ~n ~g ~k) with
  | Lr i -> i | _ -> assert false

let lr_topo ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~topo () =
  match obtain ?max_states ~sym (topo_tuple ~topo ~g ~k) with
  | Lr_topo i -> i | _ -> assert false

let election ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~n () =
  match obtain ?max_states ~sym (tuple `Election ~n ~g ~k) with
  | Election i -> i | _ -> assert false

let coin ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~n ~bound () =
  match obtain ?max_states ~sym (tuple `Coin ~n ~g ~k ~bound) with
  | Coin i -> i | _ -> assert false

let consensus ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~n ~f ~cap
    ~initial () =
  match
    obtain ?max_states ~sym (tuple `Consensus ~n ~g ~k ~f ~cap ~initial)
  with
  | Consensus i -> i | _ -> assert false

let preload_lr ?max_states ~g ~k ~sym ~n i =
  preload ?max_states ~sym (tuple `Lr ~n ~g ~k) (Lr i)

let preload_lr_topo ?max_states ~g ~k ~sym ~topo i =
  preload ?max_states ~sym (topo_tuple ~topo ~g ~k) (Lr_topo i)

let preload_election ?max_states ~g ~k ~sym ~n i =
  preload ?max_states ~sym (tuple `Election ~n ~g ~k) (Election i)

let preload_coin ?max_states ~g ~k ~sym ~n ~bound i =
  preload ?max_states ~sym (tuple `Coin ~n ~g ~k ~bound) (Coin i)

let preload_consensus ?max_states ~g ~k ~sym ~n ~f ~cap ~initial i =
  preload ?max_states ~sym (tuple `Consensus ~n ~g ~k ~f ~cap ~initial)
    (Consensus i)

type stats = {
  explorations : int;
  compiles : int;
  builds : int;
  cache_hits : int;
  evictions : int;
  cached_entries : int;
  cached_bytes : int;
}

let stats () =
  Mutex.lock mu;
  let builds = !builds_counter in
  Mutex.unlock mu;
  let c = Parallel.Cache.stats table in
  { explorations = Mdp.Explore.explorations ();
    compiles = Mdp.Arena.compiles ();
    builds;
    cache_hits = c.Parallel.Cache.hits;
    evictions = c.Parallel.Cache.evictions;
    cached_entries = c.Parallel.Cache.entries;
    cached_bytes = c.Parallel.Cache.cost_bytes }

let pp_stats fmt s =
  Format.fprintf fmt
    "registry: explorations: %d, compiles: %d, builds: %d, cache hits: %d, \
     evictions: %d"
    s.explorations s.compiles s.builds s.cache_hits s.evictions

(* ------------------------------------------------------------------ *)
(* The /check result fields.  [prtb check --format json] prints the
   same body, which is what makes served bodies bit-identical to the
   CLI's. *)

let params_json (p : params) =
  let c = case_study p.family in
  let read field v = if List.mem field c.reads then [ (field, J.Int v) ] else [] in
  [ ("n", J.Int p.n); ("g", J.Int p.g); ("k", J.Int p.k) ]
  @ (if c.topologies = [] then [] else [ ("topology", J.Str p.topology) ])
  @ read "bound" p.bound @ read "cap" p.cap

(* Below this many arena states the proof region runs inline: spawning
   and joining a helper domain costs more than the passes it would
   overlap.  Measured on cli-small's queries, cold [prtb check --format
   json], 20 alternating pairs each on 2 cores, median wall inline vs
   forked: coin n=2 bound 2 (19 states) 3.6 vs 4.8 ms, election n=4
   (251) 5.1 vs 6.4 ms, election n=5 (1 018) 12.4 vs 12.9 ms; lr n=3
   star with --sym on (1 593) 42.1 vs 38.4 ms, lr n=3 with --sym on
   (2 708) 75.2 vs 58.6 ms, election n=6 (4 089) 44.9 vs 36.6 ms. *)
let inline_below = 1024

(* The state count, then the view's fields.  For a certified orbit
   quotient the count is the unreduced one the certificate records --
   which is what makes [sym=on] and [sym=off] bodies identical. *)
let check_fields inst =
  let (View v) = view inst in
  let states = Mdp.Arena.num_states v.arena in
  let helpers = if states < inline_below then Some 0 else None in
  ( "states",
    J.Int
      (match v.cert with Some c when c.Sym.reduced -> c.Sym.full_states
       | _ -> states) )
  :: v.fields ~helpers

(* ------------------------------------------------------------------ *)
(* Certificates. *)

(* The fields the family reads, and its fault bound, by name. *)
let leaf_params (p : params) =
  let c = case_study p.family and { f; _ } = normalize p in
  let read field v =
    if List.mem field c.reads then [ (field, string_of_int v) ] else []
  in
  read "bound" p.bound @ read "cap" p.cap
  @ (if c.convention = None then [] else [ ("f", string_of_int f) ])
  @ [ ("g", string_of_int p.g); ("k", string_of_int p.k) ]
  @ if c.topologies = [] then [] else [ ("topology", p.topology) ]

let certificate ~config inst =
  let (View v) = view inst in
  Result.map
    (fun claim ->
       Cert.Emit.emit ~config ~fingerprint:(Mdp.Arena.fingerprint v.arena)
         claim)
    (v.composed ())

(* ------------------------------------------------------------------ *)
(* The [prtb check] text report. *)

(* The heading goes out before the build, so a refused build still
   names what was asked for.  Under a certified quotient the state line
   adds the full space it stands for, so logs stay comparable across
   --sym settings. *)
let report ?max_states ?sym (p : params) =
  Printf.printf "%s\n%!" ((case_study p.family).heading (normalize p));
  let (View v) = view (resolve ?max_states ?sym p) in
  let states = Mdp.Arena.num_states v.arena in
  (match v.cert with
   | Some c when c.Sym.reduced ->
     Printf.printf "reachable states: %d (orbit quotient of %d)\n%!" states
       c.Sym.full_states
   | _ -> Printf.printf "reachable states: %d\n%!" states);
  Option.iter
    (fun (c : Sym.certificate) ->
       Printf.printf
         "symmetry certificate: %d generator(s) verified on %d state(s), \
          %d predicate(s) invariant%s\n%!"
         (List.length c.cert_generators) c.states_checked
         (List.length c.preds_checked)
         (if c.reduced then " (quotient exploration)" else ""))
    v.cert;
  v.body ()

(* ------------------------------------------------------------------ *)
(* Monte Carlo: the family's setup from its description.  A tick lasts
   one time unit. *)

type simulation =
  | Simulation :
      ('s, 'a) Sim.Monte_carlo.setup * ('s, 'a) Desc.monte_carlo -> simulation

let simulation ?(scheduler = "uniform") p =
  let t = normalize p in
  let (Case (d, _)) = case t in
  match d.monte_carlo with
  | None ->
    Error
      (Printf.sprintf "no Monte Carlo setup for the %s topology"
         t.params.topology)
  | Some mc -> (
      let named = mc.schedulers d.pa in
      match List.assoc_opt scheduler named with
      | Some sched ->
        let duration a = if d.is_tick a then 1 else 0 in
        Ok
          (Simulation
             ({ pa = d.pa; scheduler = sched; duration; start = mc.start }, mc))
      | None when List.length named > 1 ->
        Error (Printf.sprintf "unknown scheduler %S" scheduler)
      | None ->
        Error
          (Printf.sprintf "scheduler %S applies to the lr model only"
             scheduler))

(* ------------------------------------------------------------------ *)
(* The walker of examples/quickstart.ml, registered here so the lint
   gate also covers the automaton shape the tutorial teaches. *)

module Walker = struct
  type state = Done | Walk of { c : int; b : int }
  type action = Tick | Flip

  let is_tick = function Tick -> true | Flip -> false

  let enabled = function
    | Done -> [ { Core.Pa.action = Tick; dist = D.point Done } ]
    | Walk { c; b } ->
      let tick =
        if c > 0 then
          [ { Core.Pa.action = Tick;
              dist = D.point (Walk { c = c - 1; b = 1 }) } ]
        else []
      in
      let flip =
        if b > 0 then
          [ { Core.Pa.action = Flip;
              dist = D.coin Done (Walk { c = 1; b = b - 1 }) } ]
        else []
      in
      tick @ flip

  let pa =
    Core.Pa.make
      ~pp_state:(fun fmt -> function
        | Done -> Format.pp_print_string fmt "done"
        | Walk { c; b } -> Format.fprintf fmt "walk(c=%d,b=%d)" c b)
      ~pp_action:(fun fmt a ->
          Format.pp_print_string fmt
            (match a with Tick -> "tick" | Flip -> "flip"))
      ~start:[ Walk { c = 1; b = 1 } ]
      ~enabled ()
end

(* ------------------------------------------------------------------ *)
(* Lint runners.  A case-study target hands the registry instance's
   arena to the analysis, so a process that both checks and lints a
   model explores and compiles it once, and its view's declared
   symmetry, so [prtb lint] verifies the generators (PA030) and the
   predicate invariance (PA031) and nudges unreduced-but-symmetric runs
   (PA032).  [sym] selects the exploration mode. *)

let lint_case name p ~max_states ?sym () =
  let (View v) = view (resolve ~max_states ?sym p) in
  Analysis.run_explored ~arena:v.arena
    (Analysis.config ~name ~is_tick:v.is_tick ~claims:(v.claims ())
       ~max_states ~symmetry:(v.symmetry ()) ~sym_reduced:(v.cert <> None)
       (Mdp.Arena.automaton v.arena))
    (Mdp.Arena.explored v.arena)

let lint_walker ~max_states ?sym:_ () =
  Analysis.run
    (Analysis.config ~name:"example:walker" ~is_tick:Walker.is_tick
       ~max_states Walker.pa)

let lint_race ~max_states ?sym:_ () =
  Analysis.run
    (Analysis.config ~name:"example:race"
       ~accept_terminal:(fun s ->
           s.Race.p <> Race.Unflipped && s.Race.q <> Race.Unflipped)
       ~max_states Race.pa)

let lint_lr_crash ~max_states ?sym:_ () =
  let config =
    { Faults.Lr.params = { LR.Automaton.n = 3; g = 1; k = 1 };
      faults = Faults.Fault.v ~crash:1 ();
      release = true }
  in
  let inst = Faults.Lr.explore ~max_states config in
  let d = Faults.Lr.derivation inst in
  let arena = inst.Faults.Lr.arena in
  Analysis.run_explored ~arena
    (Analysis.config ~name:"lr-crash" ~is_tick:Faults.Lr.is_tick
       ~claims:
         (Desc.claims [ d.Faults.Lr.arrow1; d.Faults.Lr.arrow2 ]
            d.Faults.Lr.composed)
       ~fault_view:
         (Faults.Inject.faulted,
          Faults.Inject.effective_proc Faults.Lr.proc_of_action)
       (Mdp.Arena.automaton arena))
    (Mdp.Arena.explored arena)

(* The proof-module builders explore eagerly, so a tight state budget
   surfaces as [Too_many_states] before [Analysis.run_explored] can
   shield it; report it as PA000 like the library does instead of
   letting the exception escape to the CLI.  [Not_certified] (a
   [--sym on] build whose declared group failed to verify) likewise
   becomes an error report, so [prtb lint --strict] fails on it
   instead of crashing. *)
let guard name runner ~max_states ?sym () =
  try runner ~max_states ?sym () with
  | Mdp.Explore.Too_many_states n ->
    (* At raise time exactly [n] states had been interned, so [n] is
       the partial state count, not just the configured ceiling. *)
    Analysis.Report.make
      { Analysis.Report.model = name; states = n; choices = 0;
        branches = 0;
        skipped = [ "all checks (exploration exceeded the state budget)" ] }
      [ Analysis.Diagnostic.v Analysis.Diagnostic.PA000
          Analysis.Diagnostic.Warning ~model:name
          (Printf.sprintf
             "exploration stopped after interning %d states while building \
              the model; all checks skipped (raise --max-states)"
             n) ]
  | Sym.Not_certified msg ->
    Analysis.Report.make
      { Analysis.Report.model = name; states = 0; choices = 0;
        branches = 0;
        skipped = [ "all checks (symmetry certification failed)" ] }
      [ Analysis.Diagnostic.v Analysis.Diagnostic.PA030
          Analysis.Diagnostic.Error ~model:name msg ]

(* ------------------------------------------------------------------ *)
(* The lint targets *)

type entry = {
  name : string;
  doc : string;
  lint :
    max_states:int -> ?sym:Sym.mode -> unit -> Analysis.Report.t;
}

(* The [-sym] variants pin the exploration mode to [On]: they lint the
   certified orbit quotient (and fail loudly if certification breaks),
   whatever [--sym] the caller passed. *)
let force_on runner ~max_states ?sym:_ () =
  runner ~max_states ?sym:(Some Sym.On) ()

let entries =
  let case ?(topology = "ring") ?(bound = 0) ?(cap = 0) name family n =
    lint_case name { family; n; g = 1; k = 1; topology; bound; cap }
  in
  let lr = case "lr" `Lr 3
  and election = case "election" `Election 3
  and coin = case "coin" `Coin 2 ~bound:3
  and consensus = case "consensus" `Consensus 3 ~cap:2 in
  List.map (fun (name, doc, runner) ->
      { name; doc; lint = guard name runner })
  @@
  [ ("lr", "Lehmann-Rabin ring (n=3) + Section 6.2 claims", lr);
    ("lr-line", "Lehmann-Rabin line topology (n=3)",
     case "lr-line" `Lr 3 ~topology:"line");
    ("lr-star", "Lehmann-Rabin star topology (n=3)",
     case "lr-star" `Lr 3 ~topology:"star");
    ("election", "Itai-Rodeh leader election (n=3) + ladder claims",
     election);
    ("coin", "shared coin (n=2, barrier 3) + ladder claims", coin);
    ("consensus", "Ben-Or (n=3, f=1, 2 rounds) + decision claim",
     consensus);
    ("lr-sym", "lr on the certified rotation-orbit quotient", force_on lr);
    ("election-sym", "election on the certified transposition quotient",
     force_on election);
    ("coin-sym", "coin on the certified transposition quotient",
     force_on coin);
    ("consensus-sym", "consensus on the certified equal-input quotient",
     force_on consensus);
    ("lr-crash",
     "Lehmann-Rabin ring (n=3) under one crash + degraded claims",
     lint_lr_crash);
    ("example:walker", "the quickstart walker automaton", lint_walker);
    ("example:race", "the Example 4.1 two-coin automaton", lint_race) ]

let find_opt name =
  List.find_opt (fun e -> String.equal e.name name) entries
