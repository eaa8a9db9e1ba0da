module J = Analysis.Json

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
(* Helpers. *)

(* Validated by [Protocol.sym_field]; [Off] is unreachable dead right. *)
let sym_mode s =
  Option.value (Analysis.Symmetry.mode_of_string s)
    ~default:Analysis.Symmetry.Off

(* Run [compute] under a wall deadline of [deadline_ms], when there is
   one; on expiry the answer is [expired ms reason]. *)
let under_deadline deadline_ms ~expired compute =
  match deadline_ms with
  | None -> compute ()
  | Some ms ->
    let clock =
      Core.Budget.start (Core.Budget.v ~wall:(float_of_int ms /. 1000.) ())
    in
    (match Core.Budget.with_deadline clock compute with
     | r -> r
     | exception Core.Budget.Deadline_exceeded reason -> expired ms reason)

(* ------------------------------------------------------------------ *)
(* /check and /cert.

   Both bodies open with the same header -- schema, model, resolved
   params, a "verdict" -- then carry the model's results ("complete")
   or a refusal.  [prtb check --format json] and [--emit-cert] print
   exactly these values, which is what makes the served bodies
   bit-identical to the CLI path. *)

let check_schema = "prtb-check/1"

let header ~schema ~verdict (c : Protocol.check_query) rest =
  J.Obj
    ([ ("schema", J.Str schema);
       ("model", J.Str (Models.name c.Protocol.model));
       ("params", J.Obj (Models.params_json (Protocol.params c)));
       ("verdict", J.Str verdict) ]
     @ rest)

(* The client's ceiling, clamped to the server's. *)
let ceiling max_states (c : Protocol.check_query) =
  match c.Protocol.max_states with
  | Some client -> Stdlib.min client max_states
  | None -> max_states

(* [body] of the query's instance; a state ceiling or a failed
   symmetry certification answers SRV120 or SRV121 under [schema]
   instead. *)
let exact ~schema ~max_states (c : Protocol.check_query) body =
  try
    body
      (Models.resolve ~max_states ~sym:(sym_mode c.Protocol.sym)
         (Protocol.params c))
  with
  | Mdp.Explore.Too_many_states m ->
    header ~schema ~verdict:"exhausted" c
      [ ("states_interned", J.Int m);
        ("code", J.Str "SRV120");
        ( "message",
          J.Str
            (Printf.sprintf
               "exploration stopped after interning %d states (ceiling %d); \
                raise max_states or shrink the instance"
               m max_states) ) ]
  | Analysis.Symmetry.Not_certified msg ->
    header ~schema ~verdict:"not-certified" c
      [ ("code", J.Str "SRV121"); ("message", J.Str msg) ]

(* The Estimate rung of the deadline ladder: one seeded Monte Carlo
   trial (the budgeted estimator's at-least-one-trial guarantee, under
   an already-expired clock) against the query's own instance, so a
   degraded body still carries quantitative content.  Deterministic for
   a fixed query: a fixed seed, the family's horizon, and a trial count
   pinned to 1 -- which is what lets tests fixture the body. *)
let deadline_estimate (c : Protocol.check_query) =
  match Models.simulation (Protocol.params c) with
  | Error _ -> J.Null
  | Ok (Models.Simulation m) ->
    let expired = Core.Budget.start (Core.Budget.v ~wall:0.0 ~retries:1 ()) in
    let b =
      Sim.Monte_carlo.estimate_reach_budgeted m.setup ~target:m.target
        ~within:m.horizon ~clock:expired ~initial_trials:1 ~seed:1994 ()
    in
    let lo, hi = Proba.Stat.Proportion.wilson_ci b.Sim.Monte_carlo.prop in
    J.Obj
      [ ("kind", J.Str "monte-carlo");
        ("within", J.Int m.horizon);
        ("trials", J.Int b.Sim.Monte_carlo.trials_run);
        ( "estimate",
          J.Num (Proba.Stat.Proportion.estimate b.Sim.Monte_carlo.prop) );
        ("ci95", J.Arr [ J.Num lo; J.Num hi ]) ]

(* The SRV122 body deliberately contains nothing timing-dependent
   (no elapsed milliseconds, no interned-state count): where the
   deadline fired varies run to run, but the degraded answer is a
   fixed function of the query, so it can be asserted byte for byte. *)
let deadline_exceeded_json (c : Protocol.check_query) ~deadline_ms =
  header ~schema:check_schema ~verdict:"deadline-exceeded" c
    [ ("code", J.Str "SRV122");
      ("deadline_ms", J.Int deadline_ms);
      ( "message",
        J.Str
          (Printf.sprintf
             "deadline of %d ms exceeded before exact verification \
              finished; the estimate below is Monte Carlo evidence, not \
              a proof -- raise deadline_ms for the exact verdict"
             deadline_ms) );
      ("estimate", deadline_estimate c) ]

let check_json ?(max_states = default_max_states) (c : Protocol.check_query) =
  let max_states = ceiling max_states c in
  under_deadline c.Protocol.deadline_ms
    ~expired:(fun ms _ -> deadline_exceeded_json c ~deadline_ms:ms)
    (fun () ->
       exact ~schema:check_schema ~max_states c (fun inst ->
           header ~schema:check_schema ~verdict:"complete" c
             (Models.check_fields inst)))

(* The same computation as /check, reified: instead of summarizing the
   composed claim as one line, the whole derivation is emitted as a
   certificate DAG ([lib/cert]) whose leaves carry the arena
   fingerprint and the full configuration that produced them. *)

let leaf_config ~max_states (c : Protocol.check_query) =
  { Cert.Node.model = Models.name c.Protocol.model;
    n = c.Protocol.n;
    plane = c.Protocol.plane;
    sym = c.Protocol.sym;
    faults = "none";
    budget = Printf.sprintf "states:%d" max_states;
    params = Models.leaf_params (Protocol.params c) }

let cert_json ?(max_states = default_max_states) (c : Protocol.check_query) =
  let max_states = ceiling max_states c in
  let schema = Cert.Node.wire_schema in
  under_deadline c.Protocol.deadline_ms
    ~expired:(fun ms _ ->
        (* No Estimate rung here: a certificate is exact by nature, so
           the degraded body only names the deadline (timing-free,
           hence byte-stable), and [is_degraded] keeps it out of the
           cache. *)
        header ~schema ~verdict:"deadline-exceeded" c
          [ ("code", J.Str "SRV122");
            ("deadline_ms", J.Int ms);
            ( "message",
              J.Str
                (Printf.sprintf
                   "deadline of %d ms exceeded before the certificate was \
                    emitted; raise deadline_ms"
                   ms) ) ])
    (fun () ->
       exact ~schema ~max_states c (fun inst ->
           match
             Models.certificate ~config:(leaf_config ~max_states c) inst
           with
           | Ok cert -> Cert.Node.to_json cert
           | Error e ->
             header ~schema ~verdict:"uncertified" c
               [ ("code", J.Str "SRV123"); ("message", J.Str e) ]))

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
       ("model", J.Str (Models.name s.Protocol.sim_model));
       ("n", J.Int s.Protocol.sim_n);
       ("scheduler", J.Str s.Protocol.scheduler);
       ("trials", J.Int trials);
       ("seed", J.Int s.Protocol.seed) ]
     @ rest)

let simulate_json t (s : Protocol.simulate_query) =
  let trials = Stdlib.min s.Protocol.trials t.config.max_trials in
  let seed = s.Protocol.seed in
  match
    Models.simulation ~scheduler:s.Protocol.scheduler
      (Models.sim_params s.Protocol.sim_model ~n:s.Protocol.sim_n)
  with
  | Error msg -> Error (Protocol.error ~status:400 ~code:"SRV103" msg)
  | Ok (Models.Simulation m) ->
    (match s.Protocol.within with
     | Some within ->
       let prop =
         Sim.Monte_carlo.estimate_reach m.setup ~target:m.target ~within
           ~trials ~seed
       in
       Ok
         (sim_header s ~trials
            [ ("within", J.Int within); ("reach", proportion_json prop) ])
     | None ->
       let summary, missed =
         Sim.Monte_carlo.estimate_time m.setup ~target:m.target ~trials ~seed
           ()
       in
       Ok (sim_header s ~trials [ ("time", summary_json summary missed) ]))

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
                ~expired:(fun ms _ ->
                    Ok
                      (degraded_json ~schema:"prtb-simulate/1"
                         [ ( "model",
                             J.Str (Models.name s.Protocol.sim_model) );
                           ("n", J.Int s.Protocol.sim_n) ]
                         ~deadline_ms:ms))
                (fun () -> simulate_json t s)))
    | Protocol.Lint l ->
      let dl = effective_deadline t l.Protocol.lint_deadline_ms in
      track t (fun () ->
          with_cache t query (fun () ->
              under_deadline dl
                ~expired:(fun ms _ ->
                    Ok
                      (degraded_json ~schema:"prtb-lint/1"
                         [ ("target", J.Str l.Protocol.target) ]
                         ~deadline_ms:ms))
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
