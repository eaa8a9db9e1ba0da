module Q = Proba.Rational
module D = Proba.Dist
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or
module Race = Race

(* ------------------------------------------------------------------ *)
(* Memoized builders.

   Every surface (prtb subcommands, the verification server, the lint
   targets, the experiment harness, the benchmarks) resolves case-study
   instances through these functions, so within one process invocation
   each (model, parameters) pair is explored and compiled exactly once
   no matter how many surfaces touch it.

   The registry is domain-safe: [prtb serve] workers hit it
   concurrently.  One mutex guards all tables and counters; builds run
   OUTSIDE the lock (so distinct keys explore in parallel) with the key
   marked in [building], and domains asking for an in-flight key wait
   on [built_cond].  The result is the build-once guarantee under
   contention: N domains requesting the same key perform exactly one
   exploration and one compile (asserted by the multi-domain hammer in
   test/test_models.ml).

   Caching is optionally bounded: [set_capacity (Some bytes)] turns the
   memo tables into one LRU with per-instance costs estimated from the
   compiled arena size.  The server wires [--cache-mb] here; the CLI
   default stays unbounded (process lifetimes are one query long). *)

let mu = Mutex.create ()
let built_cond = Condition.create ()

let builds_counter = ref 0
let hits_counter = ref 0
let evictions_counter = ref 0
let clock = ref 0
let total_cost = ref 0
let capacity_ref : int option ref = ref None

(* One row per cached instance, across all typed tables: LRU metadata
   plus a closure that removes the instance from its typed table. *)
type meta = { cost : int; mutable last : int; remove : unit -> unit }

let metas : (string, meta) Hashtbl.t = Hashtbl.create 32
let building : (string, unit) Hashtbl.t = Hashtbl.create 8

let next_tick () =
  incr clock;
  !clock

(* Called with [mu] held. *)
let evict_over_capacity () =
  match !capacity_ref with
  | None -> ()
  | Some cap ->
    while !total_cost > cap && Hashtbl.length metas > 0 do
      let oldest =
        Hashtbl.fold
          (fun key m acc ->
             match acc with
             | Some (_, m') when m'.last <= m.last -> acc
             | Some _ | None -> Some (key, m))
          metas None
      in
      match oldest with
      | None -> ()
      | Some (key, m) ->
        Hashtbl.remove metas key;
        m.remove ();
        total_cost := !total_cost - m.cost;
        incr evictions_counter
    done

let set_capacity cap =
  Mutex.lock mu;
  capacity_ref := cap;
  evict_over_capacity ();
  Mutex.unlock mu

(* Rough retained size of an instance whose arena interns [states]
   states: CSR rows, the interned state values and the memo overhead,
   all order-of-magnitude -- the LRU needs proportionality, not
   precision. *)
let approx_cost ~states = 4096 + (512 * states)

let memo (type v) (cache : (string, v) Hashtbl.t) ~key ~(cost : v -> int)
    (build : unit -> v) : v =
  Mutex.lock mu;
  let rec obtain () =
    match Hashtbl.find_opt cache key with
    | Some v ->
      incr hits_counter;
      (match Hashtbl.find_opt metas key with
       | Some m -> m.last <- next_tick ()
       | None -> ());
      Mutex.unlock mu;
      v
    | None ->
      if Hashtbl.mem building key then begin
        Condition.wait built_cond mu;
        obtain ()
      end
      else begin
        Hashtbl.add building key ();
        Mutex.unlock mu;
        let result =
          try Ok (build ()) with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock mu;
        Hashtbl.remove building key;
        Condition.broadcast built_cond;
        match result with
        | Error (e, bt) ->
          Mutex.unlock mu;
          Printexc.raise_with_backtrace e bt
        | Ok v ->
          incr builds_counter;
          Hashtbl.replace cache key v;
          let c = cost v in
          Hashtbl.replace metas key
            { cost = c;
              last = next_tick ();
              remove = (fun () -> Hashtbl.remove cache key) };
          total_cost := !total_cost + c;
          evict_over_capacity ();
          Mutex.unlock mu;
          v
      end
  in
  obtain ()

(* Seed the cache with an instance built elsewhere (an arena snapshot
   loaded at daemon startup).  No build happens here so [builds] stays
   put -- the CI snapshot smoke asserts [explorations: 0, compiles: 0]
   on the first served query, which only holds if preloaded entries are
   indistinguishable from built ones on the lookup path.  A key that is
   already cached or mid-build keeps the existing/raced instance;
   preloading respects the LRU capacity like any insert. *)
let preload_into (type v) (cache : (string, v) Hashtbl.t) ~key ~cost
    (v : v) =
  Mutex.lock mu;
  if Hashtbl.mem cache key || Hashtbl.mem building key then begin
    Mutex.unlock mu;
    false
  end
  else begin
    Hashtbl.replace cache key v;
    Hashtbl.replace metas key
      { cost;
        last = next_tick ();
        remove = (fun () -> Hashtbl.remove cache key) };
    total_cost := !total_cost + cost;
    evict_over_capacity ();
    Mutex.unlock mu;
    true
  end

let opt_int = function None -> "" | Some m -> string_of_int m
let sym_str = Analysis.Symmetry.mode_to_string

let lr_cache : (string, LR.Proof.instance) Hashtbl.t = Hashtbl.create 8

let lr_key ~max_states ~g ~k ~sym ~n =
  Printf.sprintf "lr?n=%d&g=%d&k=%d&max_states=%s&sym=%s" n g k
    (opt_int max_states) (sym_str sym)

let lr_cost i = approx_cost ~states:(Mdp.Arena.num_states i.LR.Proof.arena)

let lr ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off) ~n () =
  memo lr_cache
    ~key:(lr_key ~max_states ~g ~k ~sym ~n)
    ~cost:lr_cost
    (fun () -> LR.Proof.build ?max_states ~g ~k ~sym ~n ())

let preload_lr ?max_states ~g ~k ~sym ~n inst =
  preload_into lr_cache
    ~key:(lr_key ~max_states ~g ~k ~sym ~n)
    ~cost:(lr_cost inst) inst

let lr_topo_cache : (string, LR.Proof.topo_instance) Hashtbl.t =
  Hashtbl.create 8

let lr_topo_key ~max_states ~g ~k ~sym ~topo =
  Printf.sprintf "lr-topo?topo=%s&g=%d&k=%d&max_states=%s&sym=%s"
    (LR.Topology.name topo) g k (opt_int max_states) (sym_str sym)

let lr_topo_cost i =
  approx_cost ~states:(Mdp.Arena.num_states i.LR.Proof.tarena)

let lr_topo ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off)
    ~topo () =
  memo lr_topo_cache
    ~key:(lr_topo_key ~max_states ~g ~k ~sym ~topo)
    ~cost:lr_topo_cost
    (fun () -> LR.Proof.build_topo ?max_states ~g ~k ~sym ~topo ())

let preload_lr_topo ?max_states ~g ~k ~sym ~topo inst =
  preload_into lr_topo_cache
    ~key:(lr_topo_key ~max_states ~g ~k ~sym ~topo)
    ~cost:(lr_topo_cost inst) inst

let election_cache : (string, IR.Proof.instance) Hashtbl.t = Hashtbl.create 8

let election_key ~max_states ~g ~k ~sym ~n =
  Printf.sprintf "election?n=%d&g=%d&k=%d&max_states=%s&sym=%s" n g k
    (opt_int max_states) (sym_str sym)

let election_cost i =
  approx_cost ~states:(Mdp.Arena.num_states i.IR.Proof.arena)

let election ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off)
    ~n () =
  memo election_cache
    ~key:(election_key ~max_states ~g ~k ~sym ~n)
    ~cost:election_cost
    (fun () -> IR.Proof.build ?max_states ~g ~k ~sym ~n ())

let preload_election ?max_states ~g ~k ~sym ~n inst =
  preload_into election_cache
    ~key:(election_key ~max_states ~g ~k ~sym ~n)
    ~cost:(election_cost inst) inst

let coin_cache : (string, SC.Proof.instance) Hashtbl.t = Hashtbl.create 8

let coin_key ~max_states ~g ~k ~sym ~n ~bound =
  Printf.sprintf "coin?n=%d&bound=%d&g=%d&k=%d&max_states=%s&sym=%s" n bound
    g k (opt_int max_states) (sym_str sym)

let coin_cost i = approx_cost ~states:(Mdp.Arena.num_states i.SC.Proof.arena)

let coin ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off) ~n
    ~bound () =
  memo coin_cache
    ~key:(coin_key ~max_states ~g ~k ~sym ~n ~bound)
    ~cost:coin_cost
    (fun () -> SC.Proof.build ?max_states ~g ~k ~sym ~n ~bound ())

let preload_coin ?max_states ~g ~k ~sym ~n ~bound inst =
  preload_into coin_cache
    ~key:(coin_key ~max_states ~g ~k ~sym ~n ~bound)
    ~cost:(coin_cost inst) inst

let consensus_cache : (string, BO.Proof.instance) Hashtbl.t = Hashtbl.create 8

let consensus_key ~max_states ~g ~k ~sym ~n ~f ~cap ~initial =
  let bits =
    String.concat "" (List.map (fun b -> if b then "1" else "0")
                        (Array.to_list initial))
  in
  Printf.sprintf
    "consensus?n=%d&f=%d&cap=%d&initial=%s&g=%d&k=%d&max_states=%s\
     &sym=%s" n f cap bits g k (opt_int max_states) (sym_str sym)

let consensus_cost i =
  approx_cost ~states:(Mdp.Arena.num_states i.BO.Proof.arena)

let consensus ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off)
    ~n ~f ~cap ~initial () =
  memo consensus_cache
    ~key:(consensus_key ~max_states ~g ~k ~sym ~n ~f ~cap ~initial)
    ~cost:consensus_cost
    (fun () -> BO.Proof.build ?max_states ~g ~k ~sym ~n ~f ~cap ~initial ())

let preload_consensus ?max_states ~g ~k ~sym ~n ~f ~cap ~initial inst =
  preload_into consensus_cache
    ~key:(consensus_key ~max_states ~g ~k ~sym ~n ~f ~cap ~initial)
    ~cost:(consensus_cost inst) inst

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
  let s =
    { explorations = Mdp.Explore.explorations ();
      compiles = Mdp.Arena.compiles ();
      builds = !builds_counter;
      cache_hits = !hits_counter;
      evictions = !evictions_counter;
      cached_entries = Hashtbl.length metas;
      cached_bytes = !total_cost }
  in
  Mutex.unlock mu;
  s

let pp_stats fmt s =
  Format.fprintf fmt
    "registry: explorations: %d, compiles: %d, builds: %d, cache hits: %d, \
     evictions: %d"
    s.explorations s.compiles s.builds s.cache_hits s.evictions

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
(* Claim extraction from the proof modules *)

let lr_claims inst =
  let checked = LR.Proof.arrows inst in
  let arrows =
    List.filter_map
      (fun a ->
         Option.map (fun c -> (a.LR.Proof.label, c)) a.LR.Proof.claim)
      checked
  in
  match LR.Proof.compose_arrows inst checked with
  | Ok c -> arrows @ [ ("composed", c) ]
  | Error _ -> arrows

let lr_topo_claims inst =
  let checked = LR.Proof.arrows_topo inst in
  let arrows =
    List.filter_map
      (fun a ->
         Option.map (fun c -> (a.LR.Proof.label, c)) a.LR.Proof.claim)
      checked
  in
  match LR.Proof.compose_arrows_topo inst checked with
  | Ok c -> arrows @ [ ("composed", c) ]
  | Error _ -> arrows

let ir_claims inst =
  let checked = IR.Proof.arrows inst in
  let arrows =
    List.filter_map
      (fun a ->
         Option.map (fun c -> (a.IR.Proof.label, c)) a.IR.Proof.claim)
      checked
  in
  match IR.Proof.compose_arrows checked with
  | Ok c -> arrows @ [ ("composed", c) ]
  | Error _ -> arrows

let sc_claims inst =
  let checked = SC.Proof.arrows inst in
  let arrows =
    List.filter_map
      (fun a ->
         Option.map (fun c -> (a.SC.Proof.label, c)) a.SC.Proof.claim)
      checked
  in
  match SC.Proof.compose_arrows checked with
  | Ok c -> arrows @ [ ("composed", c) ]
  | Error _ -> arrows

(* ------------------------------------------------------------------ *)
(* Lint runners.  Each resolves its instance through the memoized
   builders above and hands the instance's arena to the analysis, so a
   process that both checks and lints a model explores and compiles it
   once.

   Every symmetry-declaring model also hands its declared spec to the
   analysis, so [prtb lint] verifies the generators (PA030), the
   predicate invariance (PA031) and nudges unreduced-but-symmetric runs
   (PA032) alongside the classic PA checks.  [sym] selects the
   exploration mode (the certificate gating the quotient is
   re-derived inside the analysis pass; lint targets are small enough
   that the duplicated verification is in the noise). *)

let lint_lr ~max_states ?sym () =
  let inst = lr ~max_states ?sym ~n:3 () in
  Analysis.run_explored ~arena:inst.LR.Proof.arena
    (Analysis.config ~name:"lr" ~is_tick:LR.Automaton.is_tick
       ~claims:(lr_claims inst) ~max_states
       ~symmetry:(LR.Symmetry.ring ~n:3 ())
       ~sym_reduced:(inst.LR.Proof.sym <> None)
       (Mdp.Explore.automaton inst.LR.Proof.expl))
    inst.LR.Proof.expl

let lint_lr_topo name topo ~max_states ?sym () =
  let inst = lr_topo ~max_states ?sym ~topo () in
  Analysis.run_explored ~arena:inst.LR.Proof.tarena
    (Analysis.config ~name ~is_tick:LR.Automaton.is_tick
       ~claims:(lr_topo_claims inst) ~max_states
       ~symmetry:(LR.Symmetry.spec topo)
       ~sym_reduced:(inst.LR.Proof.tsym <> None)
       (Mdp.Explore.automaton inst.LR.Proof.texpl))
    inst.LR.Proof.texpl

let lint_election ~max_states ?sym () =
  let inst = election ~max_states ?sym ~n:3 () in
  Analysis.run_explored ~arena:inst.IR.Proof.arena
    (Analysis.config ~name:"election" ~is_tick:IR.Automaton.is_tick
       ~claims:(ir_claims inst) ~max_states
       ~symmetry:(IR.Symmetry.spec inst.IR.Proof.params)
       ~sym_reduced:(inst.IR.Proof.sym <> None)
       (Mdp.Explore.automaton inst.IR.Proof.expl))
    inst.IR.Proof.expl

let lint_coin ~max_states ?sym () =
  let inst = coin ~max_states ?sym ~n:2 ~bound:3 () in
  Analysis.run_explored ~arena:inst.SC.Proof.arena
    (Analysis.config ~name:"coin" ~is_tick:SC.Automaton.is_tick
       ~claims:(sc_claims inst) ~max_states
       ~symmetry:(SC.Symmetry.spec inst.SC.Proof.params)
       ~sym_reduced:(inst.SC.Proof.sym <> None)
       (Mdp.Explore.automaton inst.SC.Proof.expl))
    inst.SC.Proof.expl

let lint_consensus ~max_states ?sym () =
  let n = 3 and f = 1 and cap = 2 in
  let initial = Array.init n (fun i -> i = n - 1) in
  let inst = consensus ~max_states ?sym ~n ~f ~cap ~initial () in
  let arrow =
    BO.Proof.decision_arrow inst ~rounds:cap ~prob:(Q.pow Q.half n)
  in
  let claims =
    match arrow.BO.Proof.claim with
    | Some c -> [ (arrow.BO.Proof.label, c) ]
    | None -> []
  in
  Analysis.run_explored ~arena:inst.BO.Proof.arena
    (Analysis.config ~name:"consensus" ~is_tick:BO.Automaton.is_tick
       ~claims ~max_states
       ~symmetry:(BO.Symmetry.spec inst.BO.Proof.params ~initial)
       ~sym_reduced:(inst.BO.Proof.sym <> None)
       (Mdp.Explore.automaton inst.BO.Proof.expl))
    inst.BO.Proof.expl

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
  let d = Faults.Lr.derive ~max_states config in
  let claims =
    List.filter_map
      (fun (a : Faults.Lr.arrow) ->
         Option.map (fun c -> (a.Faults.Lr.label, c)) a.Faults.Lr.claim)
      [ d.Faults.Lr.arrow1; d.Faults.Lr.arrow2 ]
    @ (match d.Faults.Lr.composed with
       | Ok c -> [ ("composed", c) ]
       | Error _ -> [])
  in
  Analysis.run
    (Analysis.config ~name:"lr-crash" ~is_tick:Faults.Lr.is_tick ~claims
       ~fault_view:
         (Faults.Inject.faulted,
          Faults.Inject.effective_proc Faults.Lr.proc_of_action)
       ~max_states
       (Faults.Lr.make config))

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
  | Analysis.Symmetry.Not_certified msg ->
    Analysis.Report.make
      { Analysis.Report.model = name; states = 0; choices = 0;
        branches = 0;
        skipped = [ "all checks (symmetry certification failed)" ] }
      [ Analysis.Diagnostic.v Analysis.Diagnostic.PA030
          Analysis.Diagnostic.Error ~model:name msg ]

(* ------------------------------------------------------------------ *)
(* The registry *)

type entry = {
  name : string;
  doc : string;
  lint :
    max_states:int -> ?sym:Analysis.Symmetry.mode -> unit ->
    Analysis.Report.t;
}

(* The [-sym] variants pin the exploration mode to [On]: they lint the
   certified orbit quotient (and fail loudly if certification breaks),
   whatever [--sym] the caller passed. *)
let force_on runner ~max_states ?sym:_ () =
  runner ~max_states ?sym:(Some Analysis.Symmetry.On) ()

let entries =
  List.map (fun (name, doc, runner) ->
      { name; doc; lint = guard name runner })
  @@
  [ ("lr", "Lehmann-Rabin ring (n=3) + Section 6.2 claims", lint_lr);
    ("lr-line", "Lehmann-Rabin line topology (n=3)",
     lint_lr_topo "lr-line" (LR.Topology.line 3));
    ("lr-star", "Lehmann-Rabin star topology (n=3)",
     lint_lr_topo "lr-star" (LR.Topology.star 3));
    ("election", "Itai-Rodeh leader election (n=3) + ladder claims",
     lint_election);
    ("coin", "shared coin (n=2, barrier 3) + ladder claims", lint_coin);
    ("consensus", "Ben-Or (n=3, f=1, 2 rounds) + decision claim",
     lint_consensus);
    ("lr-sym", "lr on the certified rotation-orbit quotient",
     force_on lint_lr);
    ("election-sym", "election on the certified transposition quotient",
     force_on lint_election);
    ("coin-sym", "coin on the certified transposition quotient",
     force_on lint_coin);
    ("consensus-sym", "consensus on the certified equal-input quotient",
     force_on lint_consensus);
    ("lr-crash",
     "Lehmann-Rabin ring (n=3) under one crash + degraded claims",
     lint_lr_crash);
    ("example:walker", "the quickstart walker automaton", lint_walker);
    ("example:race", "the Example 4.1 two-coin automaton", lint_race) ]

let find_opt name =
  List.find_opt (fun e -> String.equal e.name name) entries

let find name =
  match find_opt name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Models.find: unknown model %S" name)
