module J = Analysis.Json
module Q = Proba.Rational
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or

type config = {
  max_states : int;
  cache_bytes : int option;
  max_trials : int;
  deadline_ms : int option;
  degraded_after : float;
}

let default_config =
  { max_states = 2_000_000; cache_bytes = Some (64 * 1024 * 1024);
    max_trials = 200_000; deadline_ms = None; degraded_after = 5.0 }

let default_max_states = default_config.max_states

type t = {
  config : config;
  results : string Cache.t;
  started : float;
  requests : int Atomic.t;
  ok : int Atomic.t;
  client_errors : int Atomic.t;
  server_errors : int Atomic.t;
  overload : int Atomic.t;
  protocol_errors : int Atomic.t;
  draining : bool Atomic.t;
  (* In-flight compute requests (check/simulate/lint), id -> start
     time.  Read by /health to grade the daemon ok/degraded; a tiny
     table under a mutex, touched twice per request. *)
  inflight : (int, float) Hashtbl.t;
  inflight_mu : Mutex.t;
  inflight_id : int Atomic.t;
}

let create config =
  { config;
    results =
      Cache.create ?capacity:config.cache_bytes ~cost:String.length ();
    started = Unix.gettimeofday ();
    requests = Atomic.make 0;
    ok = Atomic.make 0;
    client_errors = Atomic.make 0;
    server_errors = Atomic.make 0;
    overload = Atomic.make 0;
    protocol_errors = Atomic.make 0;
    draining = Atomic.make false;
    inflight = Hashtbl.create 16;
    inflight_mu = Mutex.create ();
    inflight_id = Atomic.make 0 }

let note_overload t = Atomic.incr t.overload
let note_protocol_error t = Atomic.incr t.protocol_errors
let set_draining t v = Atomic.set t.draining v

let track t f =
  let id = Atomic.fetch_and_add t.inflight_id 1 in
  Mutex.protect t.inflight_mu (fun () ->
      Hashtbl.replace t.inflight id (Unix.gettimeofday ()));
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.inflight_mu (fun () -> Hashtbl.remove t.inflight id))
    f

(* ok | degraded | draining, plus the in-flight census: "degraded"
   means some compute request has been running longer than
   [degraded_after] seconds -- the daemon still answers, but new
   expensive work will queue behind pinned workers. *)
let health_json t =
  let now = Unix.gettimeofday () in
  let in_flight, oldest_start =
    Mutex.protect t.inflight_mu (fun () ->
        ( Hashtbl.length t.inflight,
          Hashtbl.fold (fun _ st acc -> Float.min st acc) t.inflight now ))
  in
  let oldest_ms = Stdlib.max 0. ((now -. oldest_start) *. 1000.) in
  let status =
    if Atomic.get t.draining then "draining"
    else if
      in_flight > 0 && oldest_ms >= t.config.degraded_after *. 1000.
    then "degraded"
    else "ok"
  in
  J.Obj
    [ ("status", J.Str status);
      ("in_flight", J.Int in_flight);
      ("oldest_ms", J.Int (int_of_float oldest_ms)) ]

(* ------------------------------------------------------------------ *)
(* JSON helpers. *)

let rat r = J.Str (Q.to_string r)
let claim_str c = Format.asprintf "%a" Core.Claim.pp c

(* Validated by [Protocol.sym_field]; [Off] is unreachable dead right. *)
let sym_mode s =
  Option.value (Analysis.Symmetry.mode_of_string s)
    ~default:Analysis.Symmetry.Off

(* Validated by [Protocol.plane_field]. *)
let plane_mode = function
  | "exact" -> Mdp.Plane.Exact
  | _ -> Mdp.Plane.Interval

(* The state count a body reports: for a certified orbit quotient, the
   unreduced reachable count recovered from the certificate -- which is
   what makes [sym=on] and [sym=off] bodies identical. *)
let arena_states cert arena =
  match cert with
  | Some c when c.Analysis.Symmetry.reduced ->
    c.Analysis.Symmetry.full_states
  | _ -> Mdp.Arena.num_states arena

let composed_json = function
  | Ok c -> J.Obj [ ("ok", J.Bool true); ("claim", J.Str (claim_str c)) ]
  | Error e -> J.Obj [ ("ok", J.Bool false); ("error", J.Str e) ]

(* ------------------------------------------------------------------ *)
(* /check.

   One function per case study, all shaped alike: schema, model,
   resolved params, a "verdict" ("complete" here; "exhausted" when the
   state ceiling fired), then the model's own results.  [prtb check
   --format json] prints exactly these values, which is what makes the
   served bodies bit-identical to the CLI path. *)

let check_params (c : Protocol.check_query) =
  let base = [ ("n", J.Int c.Protocol.n); ("g", J.Int c.Protocol.g);
               ("k", J.Int c.Protocol.k) ] in
  let extra =
    match c.Protocol.model with
    | `Lr -> [ ("topology", J.Str c.Protocol.topology) ]
    | `Coin -> [ ("bound", J.Int c.Protocol.bound) ]
    | `Consensus -> [ ("cap", J.Int c.Protocol.cap) ]
    | `Election -> []
  in
  J.Obj (base @ extra)

let check_header ~verdict (c : Protocol.check_query) rest =
  J.Obj
    ([ ("schema", J.Str "prtb-check/1");
       ("model", J.Str (Protocol.model_name c.Protocol.model));
       ("params", check_params c);
       ("verdict", J.Str verdict) ]
     @ rest)

let lr_arrow_json (a : LR.Proof.arrow) =
  J.Obj
    [ ("label", J.Str a.LR.Proof.label);
      ("pre", J.Str (Core.Pred.name a.LR.Proof.pre));
      ("post", J.Str (Core.Pred.name a.LR.Proof.post));
      ("time", rat a.LR.Proof.time);
      ("prob", rat a.LR.Proof.prob);
      ("attained", rat a.LR.Proof.attained);
      ("holds", J.Bool (a.LR.Proof.claim <> None)) ]

let check_lr_ring ~max_states (c : Protocol.check_query) =
  let inst =
    Models.lr ~max_states ~g:c.Protocol.g ~k:c.Protocol.k
      ~sym:(sym_mode c.Protocol.sym) ~n:c.Protocol.n ()
  in
  let arrows = LR.Proof.arrows inst in
  check_header ~verdict:"complete" c
    [ ("states",
       J.Int (arena_states inst.LR.Proof.sym inst.LR.Proof.arena));
      ( "invariant",
        J.Str
          (match LR.Invariant.check inst.LR.Proof.expl with
           | None -> "holds"
           | Some _ -> "violated") );
      ("arrows", J.Arr (List.map lr_arrow_json arrows));
      ("composed", composed_json (LR.Proof.compose_arrows inst arrows));
      ("direct_bound", rat (LR.Proof.direct_bound inst));
      ( "expected_bound",
        rat (Core.Expected.value (LR.Proof.expected_bound ())) );
      ("max_expected_time", J.Num (LR.Proof.max_expected_time inst)) ]

let check_lr_topo ~max_states (c : Protocol.check_query) =
  let topo =
    match c.Protocol.topology with
    | "line" -> LR.Topology.line c.Protocol.n
    | _ -> LR.Topology.star c.Protocol.n
  in
  let inst =
    Models.lr_topo ~max_states ~g:c.Protocol.g ~k:c.Protocol.k
      ~sym:(sym_mode c.Protocol.sym) ~topo ()
  in
  let arrows = LR.Proof.arrows_topo inst in
  check_header ~verdict:"complete" c
    [ ("states",
       J.Int (arena_states inst.LR.Proof.tsym inst.LR.Proof.tarena));
      ( "invariant",
        J.Str
          (match LR.Proof.invariant_topo inst with
           | None -> "holds"
           | Some _ -> "violated") );
      ("arrows", J.Arr (List.map lr_arrow_json arrows));
      ("composed", composed_json (LR.Proof.compose_arrows_topo inst arrows));
      ("direct_bound", rat (LR.Proof.direct_bound_topo inst));
      ("max_expected_time", J.Num (LR.Proof.max_expected_time_topo inst)) ]

let check_election ~max_states (c : Protocol.check_query) =
  let inst =
    Models.election ~max_states ~g:c.Protocol.g ~k:c.Protocol.k
      ~sym:(sym_mode c.Protocol.sym) ~n:c.Protocol.n ()
  in
  let arrow (a : IR.Proof.arrow) =
    J.Obj
      [ ("label", J.Str a.IR.Proof.label);
        ("time", rat a.IR.Proof.time);
        ("prob", rat a.IR.Proof.prob);
        ("attained", rat a.IR.Proof.attained);
        ("holds", J.Bool (a.IR.Proof.claim <> None)) ]
  in
  let arrows = IR.Proof.arrows inst in
  check_header ~verdict:"complete" c
    [ ("states",
       J.Int (arena_states inst.IR.Proof.sym inst.IR.Proof.arena));
      ("arrows", J.Arr (List.map arrow arrows));
      ("composed", composed_json (IR.Proof.compose_arrows arrows));
      ( "expected_bound",
        rat (Core.Expected.value (IR.Proof.expected_bound ~n:c.Protocol.n)) );
      ("max_expected_time", J.Num (IR.Proof.max_expected_time inst)) ]

let check_coin ~max_states (c : Protocol.check_query) =
  let inst =
    Models.coin ~max_states ~g:c.Protocol.g ~k:c.Protocol.k
      ~sym:(sym_mode c.Protocol.sym) ~n:c.Protocol.n ~bound:c.Protocol.bound ()
  in
  let arrow (a : SC.Proof.arrow) =
    J.Obj
      [ ("label", J.Str a.SC.Proof.label);
        ("time", rat a.SC.Proof.time);
        ("prob", rat a.SC.Proof.prob);
        ("attained", rat a.SC.Proof.attained);
        ("holds", J.Bool (a.SC.Proof.claim <> None)) ]
  in
  let arrows = SC.Proof.arrows inst in
  check_header ~verdict:"complete" c
    [ ("states",
       J.Int (arena_states inst.SC.Proof.sym inst.SC.Proof.arena));
      ("arrows", J.Arr (List.map arrow arrows));
      ("composed", composed_json (SC.Proof.compose_arrows arrows));
      ("direct_bound", rat (SC.Proof.direct_bound inst));
      ("expected_exact", J.Num (SC.Proof.expected_exact inst));
      ("expected_theory", J.Num (SC.Proof.expected_theory inst)) ]

let check_consensus ~max_states (c : Protocol.check_query) =
  let n = c.Protocol.n in
  let f = (n - 1) / 2 in
  let initial = Array.init n (fun i -> i = n - 1) in
  let inst =
    Models.consensus ~max_states ~g:c.Protocol.g ~k:c.Protocol.k
      ~sym:(sym_mode c.Protocol.sym) ~n ~f ~cap:c.Protocol.cap ~initial ()
  in
  let curve =
    BO.Proof.decision_curve inst
      ~rounds:(List.init c.Protocol.cap (fun r -> r + 1))
  in
  check_header ~verdict:"complete" c
    [ ("states",
       J.Int (arena_states inst.BO.Proof.sym inst.BO.Proof.arena));
      ("f", J.Int f);
      ( "agreement",
        J.Str
          (match BO.Proof.agreement_violation inst with
           | None -> "holds"
           | Some _ -> "violated") );
      ( "decision_curve",
        J.Arr
          (List.mapi
             (fun idx p ->
                J.Obj [ ("rounds", J.Int (idx + 1)); ("min_prob", rat p) ])
             curve) ) ]

(* The Estimate rung of the deadline ladder: one seeded Monte Carlo
   trial (the budgeted estimator's at-least-one-trial guarantee, under
   an already-expired clock) against the query's own instance, so a
   degraded body still carries quantitative content.  Deterministic for
   a fixed query: a fixed seed, a fixed horizon, and a trial count
   pinned to 1 -- which is what lets tests fixture the body. *)
let deadline_estimate (c : Protocol.check_query) =
  let n = c.Protocol.n and g = c.Protocol.g and k = c.Protocol.k in
  let estimate setup ~target ~within =
    let expired = Core.Budget.start (Core.Budget.v ~wall:0.0 ~retries:1 ()) in
    let b =
      Sim.Monte_carlo.estimate_reach_budgeted setup ~target ~within
        ~clock:expired ~initial_trials:1 ~seed:1994 ()
    in
    let lo, hi = Proba.Stat.Proportion.wilson_ci b.Sim.Monte_carlo.prop in
    Some
      (J.Obj
         [ ("kind", J.Str "monte-carlo");
           ("within", J.Int within);
           ("trials", J.Int b.Sim.Monte_carlo.trials_run);
           ( "estimate",
             J.Num (Proba.Stat.Proportion.estimate b.Sim.Monte_carlo.prop) );
           ("ci95", J.Arr [ J.Num lo; J.Num hi ]) ])
  in
  match c.Protocol.model with
  | `Lr when c.Protocol.topology = "ring" ->
    let params = { LR.Automaton.n; g; k } in
    let pa = LR.Automaton.make params in
    estimate
      { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
        duration = LR.Automaton.duration;
        start = LR.State.all_trying ~n ~g ~k }
      ~target:(Core.Pred.mem LR.Regions.c) ~within:(13 * g)
  | `Lr -> None
  | `Election ->
    let params = { IR.Automaton.n; g; k } in
    let pa = IR.Automaton.make params in
    estimate
      { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
        duration = IR.Automaton.duration;
        start = IR.Automaton.start params }
      ~target:IR.Automaton.leader_elected ~within:(2 * n * g)
  | `Coin ->
    let params = { SC.Automaton.n; bound = c.Protocol.bound; g; k } in
    let pa = SC.Automaton.make params in
    estimate
      { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
        duration = SC.Automaton.duration;
        start = SC.Automaton.start params }
      ~target:(SC.Automaton.decided params)
      ~within:(4 * c.Protocol.bound * c.Protocol.bound * g)
  | `Consensus ->
    let f = (n - 1) / 2 in
    let params = { BO.Automaton.n; f; cap = c.Protocol.cap; g; k } in
    let initial = Array.init n (fun i -> i = n - 1) in
    let pa = BO.Automaton.make ~initial params in
    estimate
      { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
        duration = BO.Automaton.duration;
        start = BO.Automaton.start params initial }
      ~target:BO.Automaton.some_decided ~within:(4 * c.Protocol.cap * g)

(* The SRV122 body deliberately contains nothing timing-dependent
   (no elapsed milliseconds, no interned-state count): where the
   deadline fired varies run to run, but the degraded answer is a
   fixed function of the query, so it can be asserted byte for byte. *)
let deadline_exceeded_json (c : Protocol.check_query) ~deadline_ms =
  let rungs =
    match deadline_estimate c with
    | Some est -> [ ("estimate", est) ]
    | None -> [ ("estimate", J.Null) ]
  in
  check_header ~verdict:"deadline-exceeded" c
    ([ ("code", J.Str "SRV122");
       ("deadline_ms", J.Int deadline_ms);
       ( "message",
         J.Str
           (Printf.sprintf
              "deadline of %d ms exceeded before exact verification \
               finished; the estimate below is Monte Carlo evidence, not \
               a proof -- raise deadline_ms for the exact verdict"
              deadline_ms) ) ]
     @ rungs)

let check_json ?(max_states = default_max_states) (c : Protocol.check_query) =
  let max_states =
    match c.Protocol.max_states with
    | Some client -> Stdlib.min client max_states
    | None -> max_states
  in
  let compute () =
    try
      Mdp.Plane.with_ambient (plane_mode c.Protocol.plane) (fun () ->
          match c.Protocol.model with
          | `Lr when c.Protocol.topology = "ring" ->
            check_lr_ring ~max_states c
          | `Lr -> check_lr_topo ~max_states c
          | `Election -> check_election ~max_states c
          | `Coin -> check_coin ~max_states c
          | `Consensus -> check_consensus ~max_states c)
    with
    | Mdp.Explore.Too_many_states m ->
      check_header ~verdict:"exhausted" c
        [ ("states_interned", J.Int m);
          ("code", J.Str "SRV120");
          ( "message",
            J.Str
              (Printf.sprintf
                 "exploration stopped after interning %d states (ceiling %d); \
                  raise max_states or shrink the instance"
                 m max_states) ) ]
    | Analysis.Symmetry.Not_certified msg ->
      check_header ~verdict:"not-certified" c
        [ ("code", J.Str "SRV121"); ("message", J.Str msg) ]
  in
  match c.Protocol.deadline_ms with
  | None -> compute ()
  | Some ms ->
    let clock =
      Core.Budget.start (Core.Budget.v ~wall:(float_of_int ms /. 1000.) ())
    in
    (match Core.Budget.with_deadline clock compute with
     | json -> json
     | exception Core.Budget.Deadline_exceeded _ ->
       deadline_exceeded_json c ~deadline_ms:ms)

(* ------------------------------------------------------------------ *)
(* /cert.

   The same computation as /check, reified: instead of summarizing the
   composed claim as one line, the whole derivation is emitted as a
   certificate DAG ([lib/cert]) whose leaves carry the arena
   fingerprint and the full configuration that produced them.  [prtb
   check --emit-cert] prints exactly [cert_json]'s value, which is what
   makes served /cert bodies bit-identical to the CLI path. *)

let cert_header ~verdict (c : Protocol.check_query) rest =
  J.Obj
    ([ ("schema", J.Str Cert.Node.wire_schema);
       ("model", J.Str (Protocol.model_name c.Protocol.model));
       ("params", check_params c);
       ("verdict", J.Str verdict) ]
     @ rest)

let leaf_config ~max_states (c : Protocol.check_query) =
  let s = string_of_int in
  let params =
    match c.Protocol.model with
    | `Lr ->
      [ ("g", s c.Protocol.g); ("k", s c.Protocol.k);
        ("topology", c.Protocol.topology) ]
    | `Election -> [ ("g", s c.Protocol.g); ("k", s c.Protocol.k) ]
    | `Coin ->
      [ ("bound", s c.Protocol.bound); ("g", s c.Protocol.g);
        ("k", s c.Protocol.k) ]
    | `Consensus ->
      [ ("cap", s c.Protocol.cap); ("f", s ((c.Protocol.n - 1) / 2));
        ("g", s c.Protocol.g); ("k", s c.Protocol.k) ]
  in
  { Cert.Node.model = Protocol.model_name c.Protocol.model;
    n = c.Protocol.n;
    plane = c.Protocol.plane;
    sym = c.Protocol.sym;
    faults = "none";
    budget = Printf.sprintf "states:%d" max_states;
    params }

let cert_json ?(max_states = default_max_states) (c : Protocol.check_query) =
  let max_states =
    match c.Protocol.max_states with
    | Some client -> Stdlib.min client max_states
    | None -> max_states
  in
  let emit arena composed =
    match composed with
    | Error e ->
      cert_header ~verdict:"uncertified" c
        [ ("code", J.Str "SRV123"); ("message", J.Str e) ]
    | Ok claim ->
      Cert.Node.to_json
        (Cert.Emit.emit
           ~config:(leaf_config ~max_states c)
           ~fingerprint:(Mdp.Arena.fingerprint arena) claim)
  in
  let compute () =
    try
      Mdp.Plane.with_ambient (plane_mode c.Protocol.plane) (fun () ->
          let sym = sym_mode c.Protocol.sym in
          match c.Protocol.model with
          | `Lr when c.Protocol.topology = "ring" ->
            let inst =
              Models.lr ~max_states ~g:c.Protocol.g ~k:c.Protocol.k ~sym
                ~n:c.Protocol.n ()
            in
            emit inst.LR.Proof.arena (LR.Proof.composed inst)
          | `Lr ->
            let topo =
              match c.Protocol.topology with
              | "line" -> LR.Topology.line c.Protocol.n
              | _ -> LR.Topology.star c.Protocol.n
            in
            let inst =
              Models.lr_topo ~max_states ~g:c.Protocol.g ~k:c.Protocol.k
                ~sym ~topo ()
            in
            emit inst.LR.Proof.tarena (LR.Proof.composed_topo inst)
          | `Election ->
            let inst =
              Models.election ~max_states ~g:c.Protocol.g ~k:c.Protocol.k
                ~sym ~n:c.Protocol.n ()
            in
            emit inst.IR.Proof.arena (IR.Proof.composed inst)
          | `Coin ->
            let inst =
              Models.coin ~max_states ~g:c.Protocol.g ~k:c.Protocol.k ~sym
                ~n:c.Protocol.n ~bound:c.Protocol.bound ()
            in
            emit inst.SC.Proof.arena (SC.Proof.composed inst)
          | `Consensus ->
            let n = c.Protocol.n in
            let f = (n - 1) / 2 in
            let initial = Array.init n (fun i -> i = n - 1) in
            let inst =
              Models.consensus ~max_states ~g:c.Protocol.g ~k:c.Protocol.k
                ~sym ~n ~f ~cap:c.Protocol.cap ~initial ()
            in
            emit inst.BO.Proof.arena
              (BO.Proof.composed inst ~rounds:c.Protocol.cap))
    with
    | Mdp.Explore.Too_many_states m ->
      cert_header ~verdict:"exhausted" c
        [ ("states_interned", J.Int m);
          ("code", J.Str "SRV120");
          ( "message",
            J.Str
              (Printf.sprintf
                 "exploration stopped after interning %d states (ceiling %d); \
                  raise max_states or shrink the instance"
                 m max_states) ) ]
    | Analysis.Symmetry.Not_certified msg ->
      cert_header ~verdict:"not-certified" c
        [ ("code", J.Str "SRV121"); ("message", J.Str msg) ]
  in
  match c.Protocol.deadline_ms with
  | None -> compute ()
  | Some ms ->
    let clock =
      Core.Budget.start (Core.Budget.v ~wall:(float_of_int ms /. 1000.) ())
    in
    (match Core.Budget.with_deadline clock compute with
     | json -> json
     | exception Core.Budget.Deadline_exceeded _ ->
       (* No Estimate rung here: a certificate is exact by nature, so
          the degraded body only names the deadline (timing-free, hence
          byte-stable), and [is_degraded] keeps it out of the cache. *)
       cert_header ~verdict:"deadline-exceeded" c
         [ ("code", J.Str "SRV122");
           ("deadline_ms", J.Int ms);
           ( "message",
             J.Str
               (Printf.sprintf
                  "deadline of %d ms exceeded before the certificate was \
                   emitted; raise deadline_ms"
                  ms) ) ])

(* ------------------------------------------------------------------ *)
(* /simulate. *)

let proportion_json p =
  let lo, hi = Proba.Stat.Proportion.wilson_ci p in
  J.Obj
    [ ("estimate", J.Num (Proba.Stat.Proportion.estimate p));
      ("ci95", J.Arr [ J.Num lo; J.Num hi ]) ]

let summary_json s missed =
  let lo, hi = Proba.Stat.Summary.mean_ci s in
  J.Obj
    [ ("mean", J.Num (Proba.Stat.Summary.mean s));
      ("ci95", J.Arr [ J.Num lo; J.Num hi ]);
      ("missed", J.Int missed) ]

let sim_header (s : Protocol.simulate_query) ~trials rest =
  J.Obj
    ([ ("schema", J.Str "prtb-simulate/1");
       ("model", J.Str (Protocol.model_name s.Protocol.sim_model));
       ("n", J.Int s.Protocol.sim_n);
       ("scheduler", J.Str s.Protocol.scheduler);
       ("trials", J.Int trials);
       ("seed", J.Int s.Protocol.seed) ]
     @ rest)

let simulate_json t (s : Protocol.simulate_query) =
  let n = s.Protocol.sim_n in
  let trials = Stdlib.min s.Protocol.trials t.config.max_trials in
  let seed = s.Protocol.seed in
  let uniform_only () =
    if s.Protocol.scheduler <> "uniform" then
      Error
        (Protocol.error ~status:400 ~code:"SRV103"
           (Printf.sprintf "scheduler %S applies to the lr model only"
              s.Protocol.scheduler))
    else Ok ()
  in
  let run setup ~target =
    match s.Protocol.within with
    | Some within ->
      let prop =
        Sim.Monte_carlo.estimate_reach setup ~target ~within ~trials ~seed
      in
      Ok
        (sim_header s ~trials
           [ ("within", J.Int within); ("reach", proportion_json prop) ])
    | None ->
      let summary, missed =
        Sim.Monte_carlo.estimate_time setup ~target ~trials ~seed ()
      in
      Ok (sim_header s ~trials [ ("time", summary_json summary missed) ])
  in
  match s.Protocol.sim_model with
  | `Lr ->
    let params = { LR.Automaton.n; g = 1; k = 1 } in
    let pa = LR.Automaton.make params in
    (match List.assoc_opt s.Protocol.scheduler (LR.Schedulers.all pa) with
     | None ->
       Error
         (Protocol.error ~status:400 ~code:"SRV103"
            (Printf.sprintf "unknown scheduler %S" s.Protocol.scheduler))
     | Some sched ->
       run
         { Sim.Monte_carlo.pa; scheduler = sched;
           duration = LR.Automaton.duration;
           start = LR.State.all_trying ~n ~g:1 ~k:1 }
         ~target:(Core.Pred.mem LR.Regions.c))
  | `Election ->
    Result.bind (uniform_only ()) (fun () ->
        let params = { IR.Automaton.n; g = 1; k = 1 } in
        let pa = IR.Automaton.make params in
        run
          { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
            duration = IR.Automaton.duration;
            start = IR.Automaton.start params }
          ~target:IR.Automaton.leader_elected)
  | `Coin ->
    Result.bind (uniform_only ()) (fun () ->
        let params = { SC.Automaton.n; bound = 4; g = 1; k = 1 } in
        let pa = SC.Automaton.make params in
        run
          { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
            duration = SC.Automaton.duration;
            start = SC.Automaton.start params }
          ~target:(SC.Automaton.decided params))
  | `Consensus ->
    Result.bind (uniform_only ()) (fun () ->
        let f = (n - 1) / 2 in
        let params = { BO.Automaton.n; f; cap = 50; g = 1; k = 1 } in
        let initial = Array.init n (fun i -> i = n - 1) in
        let pa = BO.Automaton.make ~initial params in
        run
          { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
            duration = BO.Automaton.duration;
            start = BO.Automaton.start params initial }
          ~target:BO.Automaton.some_decided)

(* ------------------------------------------------------------------ *)
(* /lint. *)

let lint_json t (l : Protocol.lint_query) =
  match Models.find_opt l.Protocol.target with
  | None ->
    Error
      (Protocol.error ~status:404 ~code:"SRV104"
         (Printf.sprintf "unknown lint target %S (try one of: %s)"
            l.Protocol.target
            (String.concat ", "
               (List.map (fun e -> e.Models.name) Models.entries))))
  | Some entry ->
    let max_states =
      match l.Protocol.lint_max_states with
      | Some client -> Stdlib.min client t.config.max_states
      | None -> t.config.max_states
    in
    let report =
      entry.Models.lint ~max_states ~sym:(sym_mode l.Protocol.lint_sym) ()
    in
    Ok
      (J.Obj
         [ ("schema", J.Str "prtb-lint/1");
           ("target", J.Str l.Protocol.target);
           ("report", Analysis.Report.to_json report) ])

(* ------------------------------------------------------------------ *)
(* /stats. *)

let stats_json t =
  let r = Models.stats () in
  let c = Cache.stats t.results in
  J.Obj
    [ ("schema", J.Str "prtb-stats/1");
      ( "registry",
        J.Obj
          [ ("explorations", J.Int r.Models.explorations);
            ("compiles", J.Int r.Models.compiles);
            ("builds", J.Int r.Models.builds);
            ("cache_hits", J.Int r.Models.cache_hits);
            ("evictions", J.Int r.Models.evictions);
            ("cached_entries", J.Int r.Models.cached_entries);
            ("cached_bytes", J.Int r.Models.cached_bytes) ] );
      ( "results_cache",
        J.Obj
          [ ("hits", J.Int c.Cache.hits);
            ("misses", J.Int c.Cache.misses);
            ("insertions", J.Int c.Cache.insertions);
            ("evictions", J.Int c.Cache.evictions);
            ("entries", J.Int c.Cache.entries);
            ("cost_bytes", J.Int c.Cache.cost_bytes);
            ( "capacity_bytes",
              match c.Cache.capacity with
              | None -> J.Null
              | Some b -> J.Int b ) ] );
      ( "server",
        J.Obj
          [ ("requests", J.Int (Atomic.get t.requests));
            ("ok", J.Int (Atomic.get t.ok));
            ("client_errors", J.Int (Atomic.get t.client_errors));
            ("server_errors", J.Int (Atomic.get t.server_errors));
            ("overload_rejected", J.Int (Atomic.get t.overload));
            ("protocol_errors", J.Int (Atomic.get t.protocol_errors));
            ("uptime_s", J.Num (Unix.gettimeofday () -. t.started)) ] ) ]

(* ------------------------------------------------------------------ *)
(* Dispatch. *)

type reply = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let count_status t status =
  if status >= 200 && status < 300 then Atomic.incr t.ok
  else if status >= 400 && status < 500 then Atomic.incr t.client_errors
  else if status >= 500 then Atomic.incr t.server_errors

let ok_reply t ?(headers = []) body =
  count_status t 200;
  { status = 200; headers; body }

let error_reply t (e : Protocol.error) =
  count_status t e.Protocol.status;
  { status = e.Protocol.status; headers = [];
    body = Protocol.error_body e }

(* Compute-once-then-cache for the cacheable endpoints.  The cache is
   consulted and filled outside any lock around [compute]: two workers
   racing the same cold key duplicate the work, the second insert wins,
   and both serve equal bodies (computations are deterministic). *)
let canonical_key t query =
  Protocol.canonical_key ~max_states:t.config.max_states
    ~max_trials:t.config.max_trials query

(* A deadline-degraded body must never enter the result cache: where
   the deadline fired is timing-dependent, and the next client may
   bring a larger allowance.  Complete (and SRV120/SRV121) bodies are
   deterministic in the canonical key and cache as before. *)
let is_degraded = function
  | J.Obj fields -> List.assoc_opt "code" fields = Some (J.Str "SRV122")
  | _ -> false

let with_cache t query compute =
  match canonical_key t query with
  | None ->
    (match compute () with
     | Ok json -> ok_reply t (J.to_string json)
     | Error e -> error_reply t e)
  | Some key ->
    (match Cache.find t.results key with
     | Some body -> ok_reply t ~headers:[ ("X-Prtb-Cache", "hit") ] body
     | None ->
       (match compute () with
        | Ok json when is_degraded json ->
          ok_reply t
            ~headers:
              [ ("X-Prtb-Cache", "miss"); ("X-Prtb-Degraded", "SRV122") ]
            (J.to_string json)
        | Ok json ->
          let body = J.to_string json in
          Cache.add t.results key body;
          ok_reply t ~headers:[ ("X-Prtb-Cache", "miss") ] body
        | Error e -> error_reply t e))

let cached t query =
  match canonical_key t query with
  | None -> false
  | Some key ->
    (* A stats-neutral probe would need a peek API; [find] counting a
       hit is fine for the monitoring use this serves. *)
    Cache.find t.results key <> None

(* The effective deadline is the tighter of the client's ask and the
   server-wide default ([serve --deadline]). *)
let effective_deadline t client =
  match t.config.deadline_ms, client with
  | None, c -> c
  | (Some _ as d), None -> d
  | Some server, Some client -> Some (Stdlib.min server client)

(* Generic degraded body for the endpoints without a model-specific
   Estimate rung (/simulate, /lint). *)
let degraded_json ~schema fields ~deadline_ms =
  J.Obj
    ([ ("schema", J.Str schema) ]
     @ fields
     @ [ ("verdict", J.Str "deadline-exceeded");
         ("code", J.Str "SRV122");
         ("deadline_ms", J.Int deadline_ms);
         ( "message",
           J.Str
             (Printf.sprintf
              "deadline of %d ms exceeded; raise deadline_ms for the \
               full answer" deadline_ms) ) ])

let under_deadline deadline_ms degraded compute =
  match deadline_ms with
  | None -> compute ()
  | Some ms ->
    let clock =
      Core.Budget.start (Core.Budget.v ~wall:(float_of_int ms /. 1000.) ())
    in
    (match Core.Budget.with_deadline clock compute with
     | r -> r
     | exception Core.Budget.Deadline_exceeded _ ->
       Ok (degraded ~deadline_ms:ms))

(* One query to one reply, /batch elements included ([handle] adds the
   per-request accounting and the last-resort catch).  Sub-replies of a
   batch pass through [ok_reply]/[error_reply] like any other, so the
   ok/client_errors counters see batch elements individually; only
   [requests] counts the envelope once. *)
let rec dispatch t query =
  match query with
  | Protocol.Health { sleep_ms } ->
      if sleep_ms > 0 then Unix.sleepf (float_of_int sleep_ms /. 1000.0);
      ok_reply t (J.to_string (health_json t))
    | Protocol.Stats -> ok_reply t (J.to_string (stats_json t))
    | Protocol.Check c ->
      let c =
        { c with
          Protocol.deadline_ms =
            effective_deadline t c.Protocol.deadline_ms }
      in
      track t (fun () ->
          with_cache t query (fun () ->
              Ok (check_json ~max_states:t.config.max_states c)))
    | Protocol.Cert c ->
      let c =
        { c with
          Protocol.deadline_ms =
            effective_deadline t c.Protocol.deadline_ms }
      in
      track t (fun () ->
          with_cache t query (fun () ->
              Ok (cert_json ~max_states:t.config.max_states c)))
    | Protocol.Simulate s ->
      let dl = effective_deadline t s.Protocol.sim_deadline_ms in
      track t (fun () ->
          with_cache t query (fun () ->
              under_deadline dl
                (degraded_json ~schema:"prtb-simulate/1"
                   [ ( "model",
                       J.Str (Protocol.model_name s.Protocol.sim_model) );
                     ("n", J.Int s.Protocol.sim_n) ])
                (fun () -> simulate_json t s)))
    | Protocol.Lint l ->
      let dl = effective_deadline t l.Protocol.lint_deadline_ms in
      track t (fun () ->
          with_cache t query (fun () ->
              under_deadline dl
                (degraded_json ~schema:"prtb-lint/1"
                   [ ("target", J.Str l.Protocol.target) ])
                (fun () -> lint_json t l)))
  | Protocol.Batch qs ->
    track t (fun () ->
        (* Elements sharing a canonical key are computed once and the
           reply reused -- the arena sweep and the body serialization
           both happen a single time per distinct key.  Distinct keys
           on the same model still share one arena through the Models
           registry, so a batch over one instance explores it at most
           once. *)
        let seen : (string, reply) Hashtbl.t = Hashtbl.create 16 in
        let replies =
          List.map
            (fun q ->
               match canonical_key t q with
               | Some key when Hashtbl.mem seen key -> Hashtbl.find seen key
               | key_opt ->
                 let r = dispatch t q in
                 (match key_opt with
                  | Some key -> Hashtbl.replace seen key r
                  | None -> ());
                 r)
            qs
        in
        (* The envelope splices each sub-reply's body bytes verbatim --
           never reparsed, never reserialized -- which is what makes
           batched bodies bit-identical to the single-query endpoints
           (asserted in test/test_server.ml). *)
        let buf = Buffer.create 4096 in
        Buffer.add_string buf "{\"schema\":\"prtb-batch/1\",\"count\":";
        Buffer.add_string buf (string_of_int (List.length replies));
        Buffer.add_string buf ",\"results\":[";
        List.iteri
          (fun i r ->
             if i > 0 then Buffer.add_char buf ',';
             Buffer.add_string buf "{\"status\":";
             Buffer.add_string buf (string_of_int r.status);
             (match List.assoc_opt "X-Prtb-Cache" r.headers with
              | Some c ->
                Buffer.add_string buf ",\"cache\":\"";
                Buffer.add_string buf c;
                Buffer.add_char buf '"'
              | None -> ());
             Buffer.add_string buf ",\"body\":";
             Buffer.add_string buf r.body;
             Buffer.add_char buf '}')
          replies;
        Buffer.add_string buf "]}";
        (* Sub-replies were counted by ok_reply/error_reply above; the
           envelope itself stays out of the status counters. *)
        { status = 200; headers = []; body = Buffer.contents buf })

let handle t query =
  Atomic.incr t.requests;
  try dispatch t query
  with e ->
    error_reply t
      (Protocol.error ~status:500 ~code:"SRV300"
         (Printf.sprintf "internal error: %s" (Printexc.to_string e)))

let respond t req =
  match Protocol.of_request req with
  | Ok q -> handle t q
  | Error e ->
    Atomic.incr t.requests;
    error_reply t e
