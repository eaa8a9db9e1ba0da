(* The traced phase: spans recorded around calls into each layer's
   public functions, from the benchmark's own code (the program itself
   carries no tracing yet).  It yields every per-layer metric.

   A traced query rebuilds its instance from the same public pieces as
   the family's Proof.build -- the automaton, the symmetry spec,
   Mdp.Explore.run ~canon, Analysis.Symmetry.verify, Mdp.Arena.compile
   -- then calls the proof functions in Service.check_json's order.
   Then it checks that the decomposition is the real computation: it
   preloads the instance into the registry and serves the query in
   process through the daemon's four layers, which must give the same
   bytes (and golden.tsv's digest); a check query's certificate is
   emitted and served the same way, and a built instance goes through
   a snapshot round trip.  The "verify.*" spans are that check, not the
   query: they are left out of in-process times and of the tracing
   overhead, but the layer spans inside them count, so every layer is
   timed on every workload's own instances. *)

module J = Analysis.Json
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or
module W = Workloads

let max_states = Server.Service.default_max_states

(* ------------------------------------------------------------------ *)
(* Child side: the decomposed queries. *)

type counters = {
  mutable canon_calls : int;
  mutable states : int;
  mutable branches : int;
  mutable builds : int;
  mutable reuses : int;
  mutable points : int;
  mutable residue : int;
  mutable fallbacks : int;
  mutable body_bytes : int;
}

let new_counters () =
  { canon_calls = 0; states = 0; branches = 0; builds = 0; reuses = 0; points = 0;
    residue = 0; fallbacks = 0; body_bytes = 0 }

(* What a query can do with a built instance. *)
type plan = {
  loaded : Snapshot.Store.loaded;  (** the instance, as a snapshot holds it *)
  preload : unit -> bool;  (** seed the registry under the Service's key *)
  proof : (string * (unit -> unit)) list;
      (** Service.check_json's engine calls, in its order, by layer *)
  compose : unit -> (Cert.Node.leaf_config -> J.t) option;
      (** the composed claim, then its certificate emitter *)
}

let sym_mode s = Option.get (Analysis.Symmetry.mode_of_string s)

let emitter arena claim config =
  Cert.Node.to_json
    (Cert.Emit.emit ~config ~fingerprint:(Mdp.Arena.fingerprint arena) claim)

let composed_then arena = function
  | Ok claim -> Some (emitter arena claim)
  | Error _ -> None

let run f () = ignore (f ())

let lr_plan ~n ~g ~k ~sym (i : LR.Proof.instance) =
  { loaded = Snapshot.Store.Lr i;
    preload = (fun () -> Models.preload_lr ~max_states ~g ~k ~sym ~n i);
    proof =
      [ ("invariant.check", run (fun () -> LR.Invariant.check i.LR.Proof.expl));
        ("checker.arrows", run (fun () -> LR.Proof.arrows i));
        ("claim.compose", run (fun () -> LR.Proof.composed i));
        ("finite_horizon.direct_bound", run (fun () -> LR.Proof.direct_bound i));
        ("expected_time.vi", run (fun () -> LR.Proof.max_expected_time i)) ];
    compose = (fun () -> composed_then i.LR.Proof.arena (LR.Proof.composed i)) }

let lr_topo_plan ~g ~k ~sym (i : LR.Proof.topo_instance) =
  { loaded = Snapshot.Store.Lr_topo i;
    preload =
      (fun () -> Models.preload_lr_topo ~max_states ~g ~k ~sym ~topo:i.LR.Proof.topo i);
    proof =
      [ ("invariant.check", run (fun () -> LR.Proof.invariant_topo i));
        ("checker.arrows", run (fun () -> LR.Proof.arrows_topo i));
        ("claim.compose", run (fun () -> LR.Proof.composed_topo i));
        ("finite_horizon.direct_bound", run (fun () -> LR.Proof.direct_bound_topo i));
        ("expected_time.vi", run (fun () -> LR.Proof.max_expected_time_topo i)) ];
    compose =
      (fun () -> composed_then i.LR.Proof.tarena (LR.Proof.composed_topo i)) }

let election_plan ~n ~g ~k ~sym (i : IR.Proof.instance) =
  { loaded = Snapshot.Store.Election i;
    preload = (fun () -> Models.preload_election ~max_states ~g ~k ~sym ~n i);
    proof =
      [ ("checker.arrows", run (fun () -> IR.Proof.arrows i));
        ("claim.compose", run (fun () -> IR.Proof.composed i));
        ("expected_time.vi", run (fun () -> IR.Proof.max_expected_time i)) ];
    compose = (fun () -> composed_then i.IR.Proof.arena (IR.Proof.composed i)) }

let coin_plan ~n ~g ~k ~bound ~sym (i : SC.Proof.instance) =
  { loaded = Snapshot.Store.Coin i;
    preload = (fun () -> Models.preload_coin ~max_states ~g ~k ~sym ~n ~bound i);
    proof =
      [ ("checker.arrows", run (fun () -> SC.Proof.arrows i));
        ("claim.compose", run (fun () -> SC.Proof.composed i));
        ("finite_horizon.direct_bound", run (fun () -> SC.Proof.direct_bound i));
        ("expected_time.vi", run (fun () -> SC.Proof.expected_exact i)) ];
    compose = (fun () -> composed_then i.SC.Proof.arena (SC.Proof.composed i)) }

let consensus_plan ~g ~k ~cap ~sym (i : BO.Proof.instance) =
  let n = i.BO.Proof.params.BO.Automaton.n
  and f = i.BO.Proof.params.BO.Automaton.f in
  { loaded = Snapshot.Store.Consensus i;
    preload =
      (fun () ->
         Models.preload_consensus ~max_states ~g ~k ~sym ~n ~f ~cap
           ~initial:i.BO.Proof.initial i);
    proof =
      [ ("invariant.check", run (fun () -> BO.Proof.agreement_violation i));
        ( "finite_horizon.direct_bound",
          run (fun () ->
              BO.Proof.decision_curve i ~rounds:(List.init cap (fun r -> r + 1))) ) ];
    compose =
      (fun () -> composed_then i.BO.Proof.arena (BO.Proof.composed i ~rounds:cap)) }

(* Explore (through a timed canonicalizer when reducing), certify and
   compile: Analysis.Symmetry.explored and the arena compile of
   Proof.build, one span per layer.  The canonicalizer's calls are far
   too many to span one by one; their total becomes one synthetic
   "symmetry.canon" child of "explore". *)
let explore tr cnt ~model ~sym ~is_tick pa spec =
  let canon_ns = ref 0 and calls = ref 0 in
  let expl =
    Spans.with_span tr "explore" (fun () ->
        if sym <> "on" then Mdp.Explore.run ~max_states pa
        else begin
          let canon =
            Analysis.Symmetry.canonicalizer ~equal:(Core.Pa.equal_state pa) spec
          in
          let timed s =
            let t0 = Clock.now_ns () in
            let r = canon s in
            canon_ns := !canon_ns + (Clock.now_ns () - t0);
            incr calls;
            r
          in
          let start_ns = Clock.now_ns () in
          let e = Mdp.Explore.run ~max_states ~canon:timed pa in
          ignore
            (Spans.add tr ~parent:(Spans.current tr) ~name:"symmetry.canon"
               ~start_ns ~dur_ns:!canon_ns ());
          e
        end)
  in
  cnt.canon_calls <- cnt.canon_calls + !calls;
  let cert =
    if sym <> "on" then None
    else
      Some
        (snd
           (Spans.with_span tr "symmetry.certify" (fun () ->
                Analysis.Symmetry.require ~model
                  (Analysis.Symmetry.verify ~model ~reduced:true spec expl))))
  in
  let arena =
    Spans.with_span tr "arena.compile" (fun () -> Mdp.Arena.compile ~is_tick expl)
  in
  cnt.states <- cnt.states + Mdp.Arena.num_states arena;
  cnt.branches <- cnt.branches + Mdp.Arena.num_branches arena;
  (expl, arena, cert)

let build tr cnt (q : Keys.t) =
  let span name f = Spans.with_span tr name f in
  let sym = sym_mode q.sym and n = q.n and g = q.g and k = q.k in
  match q.model with
  | "lr" when q.topology = "ring" ->
    let params = { LR.Automaton.n; g; k } in
    let pa = span "model.automaton" (fun () -> LR.Automaton.make params) in
    let spec = span "symmetry.spec" (fun () -> LR.Symmetry.ring ~n ()) in
    let expl, arena, cert =
      explore tr cnt ~model:"lr" ~sym:q.sym ~is_tick:LR.Automaton.is_tick pa spec
    in
    lr_plan ~n ~g ~k ~sym { LR.Proof.params; expl; arena; sym = cert }
  | "lr" ->
    let topo =
      if q.topology = "line" then LR.Topology.line n else LR.Topology.star n
    in
    let pa = span "model.automaton" (fun () -> LR.Automaton.make_general ~topo ~g ~k) in
    let spec = span "symmetry.spec" (fun () -> LR.Symmetry.spec topo) in
    let texpl, tarena, tsym =
      explore tr cnt
        ~model:(Printf.sprintf "lr:%s" (LR.Topology.name topo))
        ~sym:q.sym ~is_tick:LR.Automaton.is_tick pa spec
    in
    lr_topo_plan ~g ~k ~sym { LR.Proof.topo; tg = g; tk = k; texpl; tarena; tsym }
  | "election" ->
    let params = { IR.Automaton.n; g; k } in
    let pa = span "model.automaton" (fun () -> IR.Automaton.make params) in
    let spec = span "symmetry.spec" (fun () -> IR.Symmetry.spec params) in
    let expl, arena, cert =
      explore tr cnt ~model:"itai_rodeh" ~sym:q.sym ~is_tick:IR.Automaton.is_tick pa spec
    in
    election_plan ~n ~g ~k ~sym { IR.Proof.params; expl; arena; sym = cert }
  | "coin" ->
    let params = { SC.Automaton.n; bound = q.bound; g; k } in
    let pa = span "model.automaton" (fun () -> SC.Automaton.make params) in
    let spec = span "symmetry.spec" (fun () -> SC.Symmetry.spec params) in
    let expl, arena, cert =
      explore tr cnt ~model:"shared_coin" ~sym:q.sym ~is_tick:SC.Automaton.is_tick pa spec
    in
    coin_plan ~n ~g ~k ~bound:q.bound ~sym { SC.Proof.params; expl; arena; sym = cert }
  | _ ->
    (* Service.check_consensus's conventions: f = (n-1)/2 and one
       process starting with estimate 1. *)
    let f = (n - 1) / 2 in
    let initial = Array.init n (fun i -> i = n - 1) in
    let params = { BO.Automaton.n; f; cap = q.cap; g; k } in
    let pa = span "model.automaton" (fun () -> BO.Automaton.make ~initial params) in
    let spec = span "symmetry.spec" (fun () -> BO.Symmetry.spec params ~initial) in
    let expl, arena, cert =
      explore tr cnt ~model:"ben_or" ~sym:q.sym ~is_tick:BO.Automaton.is_tick pa spec
    in
    consensus_plan ~g ~k ~cap:q.cap ~sym
      { BO.Proof.params; initial; expl; arena; sym = cert }

let plan_of_loaded (q : Keys.t) loaded =
  let sym = sym_mode q.sym and n = q.n and g = q.g and k = q.k in
  match loaded with
  | Snapshot.Store.Lr i -> lr_plan ~n ~g ~k ~sym i
  | Snapshot.Store.Lr_topo i -> lr_topo_plan ~g ~k ~sym i
  | Snapshot.Store.Election i -> election_plan ~n ~g ~k ~sym i
  | Snapshot.Store.Coin i -> coin_plan ~n ~g ~k ~bound:q.bound ~sym i
  | Snapshot.Store.Consensus i -> consensus_plan ~g ~k ~cap:q.cap ~sym i

(* Service.leaf_config: the configuration stamped into certificate
   leaves. *)
let leaf_config (q : Keys.t) =
  let s = string_of_int in
  let params =
    match q.model with
    | "lr" -> [ ("g", s q.g); ("k", s q.k); ("topology", q.topology) ]
    | "election" -> [ ("g", s q.g); ("k", s q.k) ]
    | "coin" -> [ ("bound", s q.bound); ("g", s q.g); ("k", s q.k) ]
    | _ -> [ ("cap", s q.cap); ("f", s ((q.n - 1) / 2)); ("g", s q.g); ("k", s q.k) ]
  in
  { Cert.Node.model = q.model; n = q.n; plane = q.plane; sym = q.sym;
    faults = "none"; budget = Printf.sprintf "states:%d" max_states; params }

let plane_mode = function "exact" -> Mdp.Plane.Exact | _ -> Mdp.Plane.Interval

(* The snapshot configuration `prtb compile` would write for the
   query's instance (Snapshot.Store.config's conventional defaults for
   the fields a model does not use). *)
let snapshot_config (q : Keys.t) =
  let consensus = q.model = "consensus" in
  { Snapshot.Store.model = q.model; n = q.n; g = q.g; k = q.k; topology = q.topology;
    bound = (if q.model = "coin" then q.bound else 0);
    cap = (if consensus then q.cap else 0);
    f = (if consensus then (q.n - 1) / 2 else 0);
    initial = (if consensus then Array.init q.n (fun i -> i = q.n - 1) else [||]);
    sym = sym_mode q.sym }

(* Store.of_string rebuilds the arena from the bytes and refuses it
   unless its fingerprint is the one encoded, the built arena's. *)
let round_trip tr (q : Keys.t) loaded =
  let bytes = Snapshot.Store.encode (snapshot_config q) loaded in
  match Spans.with_span tr "snapshot.load" (fun () -> Snapshot.Store.of_string bytes) with
  | Ok _ -> ()
  | Error e ->
    failwith (Printf.sprintf "snapshot round trip of %s: %s" (Keys.instance q) e)

let layer_names = [| "http.parse"; "protocol.parse"; "service.handle"; "http.render" |]

(* The daemon's four calls for one request, in process: the reply and
   the timestamps before, between and after them. *)
let through_layers svc wire =
  let t0 = Clock.now_ns () in
  let req =
    match Server.Http.read_request (Server.Http.of_string wire) with
    | `Request req -> req
    | `Eof | `Error _ -> failwith "in-process request: unparsable"
  in
  let t1 = Clock.now_ns () in
  let query =
    match Server.Protocol.of_request req with
    | Ok q -> q
    | Error _ -> failwith "in-process request: rejected"
  in
  let t2 = Clock.now_ns () in
  let reply = Server.Service.handle svc query in
  let t3 = Clock.now_ns () in
  let response =
    Server.Http.response ~headers:reply.Server.Service.headers ~keep_alive:true
      ~status:reply.Server.Service.status ~body:reply.Server.Service.body ()
  in
  let t4 = Clock.now_ns () in
  ignore (Sys.opaque_identity response);
  (reply, [| t0; t1; t2; t3; t4 |])

let served (q : Keys.t) (reply : Server.Service.reply) =
  if reply.status <> 200 then
    failwith (Printf.sprintf "served [%s]: status %d" (Keys.to_string q) reply.status);
  reply.body

(* A query served the way the daemon serves it, one span per layer. *)
let serve_layered svc tr (q : Keys.t) =
  let wire = Client.render ~meth:"GET" ~target:(Keys.target q) ~body:"" in
  let reply, ts = through_layers svc wire in
  let parent = Spans.current tr in
  Array.iteri
    (fun l name ->
       ignore
         (Spans.add tr ~parent ~name ~start_ns:ts.(l) ~dur_ns:(ts.(l + 1) - ts.(l)) ()))
    layer_names;
  served q reply

(* A query straight to Service.handle: serve-hot's warm-up, whose layer
   spans would otherwise mix into the replay's. *)
let serve_direct svc (q : Keys.t) =
  let p = Keys.protocol q in
  let query =
    match q.endpoint with
    | Keys.Check -> Server.Protocol.Check p
    | Keys.Cert -> Server.Protocol.Cert p
  in
  served q (Server.Service.handle svc query)

let answer tr cnt plans ~serve (q : Keys.t) =
  let span name f = Spans.with_span tr name f in
  let plan =
    match Hashtbl.find_opt plans (Keys.instance q) with
    | Some p ->
      cnt.reuses <- cnt.reuses + 1;
      p
    | None ->
      let p = build tr cnt q in
      cnt.builds <- cnt.builds + 1;
      if not (span "registry.preload" p.preload) then
        failwith ("preload refused for " ^ Keys.instance q);
      span "verify.snapshot" (fun () -> round_trip tr q p.loaded);
      Hashtbl.replace plans (Keys.instance q) p;
      p
  in
  let engines f = Mdp.Plane.with_ambient (plane_mode q.plane) f in
  let compose () =
    match engines plan.compose with
    | Some emit -> emit
    | None -> failwith ("composition failed for " ^ Keys.to_string q)
  in
  let builds = (Models.stats ()).Models.builds in
  let s0 = Mdp.Plane.stats () in
  let emit =
    match q.endpoint with
    | Keys.Check ->
      engines (fun () -> List.iter (fun (name, f) -> span name f) plan.proof);
      None
    | Keys.Cert -> Some (span "claim.compose" compose)
  in
  let s1 = Mdp.Plane.stats () in
  cnt.points <- cnt.points + s1.Mdp.Plane.point_states - s0.Mdp.Plane.point_states;
  cnt.residue <- cnt.residue + s1.Mdp.Plane.residue_states - s0.Mdp.Plane.residue_states;
  cnt.fallbacks <-
    cnt.fallbacks + s1.Mdp.Plane.exact_fallbacks - s0.Mdp.Plane.exact_fallbacks;
  let differs what =
    failwith (Printf.sprintf "%s differs for [%s]" what (Keys.to_string q))
  in
  let body =
    match emit with
    | None ->
      (* The decomposition does not assemble a check body, so the served
         body is parsed and rendered again, which must give its bytes. *)
      let served = span "verify.serve" (fun () -> serve q) in
      let json =
        span "verify.parse" (fun () ->
            match J.of_string served with
            | Ok j -> j
            | Error e -> differs ("the body (" ^ e ^ ")"))
      in
      let body = span "json.render" (fun () -> J.to_string json) in
      if body <> served then differs "the re-rendered body";
      span "verify.cert" (fun () ->
          let emit = compose () in
          let cert = J.to_string (span "cert.emit" (fun () -> emit (leaf_config q))) in
          if cert <> serve (Keys.cert q) then differs "the served certificate");
      body
    | Some emit ->
      let json = span "cert.emit" (fun () -> emit (leaf_config q)) in
      let body = span "json.render" (fun () -> J.to_string json) in
      if span "verify.serve" (fun () -> serve q) <> body then
        differs "the served certificate";
      body
  in
  if (Models.stats ()).Models.builds <> builds then
    failwith ("the registry rebuilt " ^ Keys.instance q ^ ": the preload missed its key");
  cnt.body_bytes <- cnt.body_bytes + String.length body;
  body

let load_snapshots tr plans dir =
  List.iter
    (fun (q, file) ->
       match
         Spans.with_span tr "snapshot.load" (fun () ->
             Snapshot.Store.load ~path:(Filename.concat dir file))
       with
       | Error e -> failwith (file ^ ": " ^ e)
       | Ok (_, loaded) ->
         let p = plan_of_loaded q loaded in
         if not (Spans.with_span tr "registry.preload" p.preload) then
           failwith ("preload refused for " ^ file);
         Hashtbl.replace plans (Keys.instance q) p)
    Keys.snapshots

let is_verify name = String.starts_with ~prefix:"verify." name

(* Each query's in-process seconds: its root span minus the
   verification inside it. *)
let inprocess spans =
  let verify = Hashtbl.create 64 in
  let find id = Option.value (Hashtbl.find_opt verify id) ~default:0 in
  List.iter
    (fun (s : Spans.span) ->
       if is_verify s.name then Hashtbl.replace verify s.parent (find s.parent + s.dur_ns))
    spans;
  List.filter_map
    (fun (s : Spans.span) ->
       if s.parent = -1 && s.name = "query" then
         Some (float_of_int (s.dur_ns - find s.id) *. 1e-9)
       else None)
    spans

let counters_json cnt =
  let c name v = (name, J.Int v) in
  J.Obj
    [ c "canon_calls" cnt.canon_calls; c "states" cnt.states;
      c "branches" cnt.branches; c "builds" cnt.builds; c "reuses" cnt.reuses;
      c "points" cnt.points; c "residue" cnt.residue; c "fallbacks" cnt.fallbacks;
      c "body_bytes" cnt.body_bytes ]

let digests_json rows =
  J.Arr
    (List.map
       (fun (q, b) -> J.Arr [ J.Str (Keys.to_string q); J.Str (Golden.digest b) ])
       rows)

let nums xs = J.Arr (List.map (fun x -> J.Num x) xs)

(* `prtb_bench trace-queries [--untraced] [--snapshot-dir D] KEY...`:
   answer the queries in order in this one process and print one JSON
   object: spans (absolute times), counters, the body digests, and each
   query's in-process seconds.  With --untraced the queries go straight
   to Server.Service, with the snapshots preloaded by
   Snapshot.Store.preload: the same work without the decomposition,
   for the tracing overhead and the residual. *)
let queries ~untraced ~snapshot_dir keys =
  let cnt = new_counters () and tr = Spans.create () in
  let bodies, seconds =
    if untraced then begin
      Option.iter
        (fun dir ->
           List.iter
             (fun (_, file) ->
                match
                  Snapshot.Store.preload ~max_states ~path:(Filename.concat dir file) ()
                with
                | Ok _ -> ()
                | Error e -> failwith (file ^ ": " ^ e))
             Keys.snapshots)
        snapshot_dir;
      List.split
        (List.map
           (fun (q : Keys.t) ->
              Clock.time (fun () ->
                  let p = Keys.protocol q in
                  J.to_string
                    (match q.endpoint with
                     | Keys.Check -> Server.Service.check_json p
                     | Keys.Cert -> Server.Service.cert_json p)))
           keys)
    end
    else begin
      let plans = Hashtbl.create 16 in
      let svc = Server.Service.create Server.Service.default_config in
      Option.iter (load_snapshots tr plans) snapshot_dir;
      let bodies =
        List.map
          (fun q ->
             Spans.with_span tr "query" (fun () ->
                 answer tr cnt plans ~serve:(serve_layered svc tr) q))
          keys
      in
      (bodies, inprocess (Spans.spans tr))
    end
  in
  print_string
    (J.to_string
       (J.Obj
          [ ("spans", Spans.to_json ~base_ns:0 (Spans.spans tr));
            ("counters", counters_json cnt);
            ("digests", digests_json (List.combine keys bodies));
            ("inprocess_s", nums seconds) ]))

(* `prtb_bench trace-hot --seed N`: serve-hot's warm-up, traced like
   trace-queries, then its mix replayed in-process through the daemon's
   own layers -- Server.Http.read_request, Server.Protocol.of_request,
   Server.Service.handle, Server.Http.response -- against the Service
   it warmed.  Untraced and traced replay passes alternate; the traced
   ones time each layer of every request and keep spans for the first
   requests. *)
let hot_span_requests = 200
let hot_passes = 2

let hot ~seed =
  Models.set_capacity (Some (64 * 1024 * 1024));
  let svc = Server.Service.create Server.Service.default_config in
  let cnt = new_counters () and tr = Spans.create () and plans = Hashtbl.create 16 in
  let warm = Hashtbl.create 16 in
  let warmed =
    List.map
      (fun q ->
         let body =
           Spans.with_span tr "query" (fun () ->
               answer tr cnt plans ~serve:(serve_direct svc) q)
         in
         Hashtbl.replace warm (Keys.to_string q) body;
         (q, body))
      (Keys.hot_check @ Keys.hot_cert)
  in
  let block = W.hot_block ~seed in
  let replay = Spans.create () in
  let layers = Array.make 4 0 in
  let roots = ref [] and bytes = ref 0 and failures = ref 0 in
  let one ~traced i (r : W.hot_request) =
    let reply, ts = through_layers svc r.W.wire in
    if traced then begin
      for l = 0 to 3 do
        layers.(l) <- layers.(l) + (ts.(l + 1) - ts.(l))
      done;
      roots := (ts.(4) - ts.(0)) :: !roots;
      bytes := !bytes + String.length reply.Server.Service.body;
      if i < hot_span_requests then begin
        let add ~parent ~name l m =
          Spans.add replay ~parent ~name ~start_ns:ts.(l) ~dur_ns:(ts.(m) - ts.(l)) ()
        in
        let root = add ~parent:(-1) ~name:"request" 0 4 in
        Array.iteri (fun l name -> ignore (add ~parent:root ~name l (l + 1))) layer_names
      end
    end;
    let { Server.Service.status; body; _ } = reply in
    if not (W.reply_ok warm r ~status ~body) then incr failures
  in
  let pass ~traced = snd (Clock.time (fun () -> Array.iteri (one ~traced) block)) in
  let untraced_s = ref 0. and traced_s = ref 0. in
  for _ = 1 to hot_passes do
    untraced_s := !untraced_s +. pass ~traced:false;
    traced_s := !traced_s +. pass ~traced:true
  done;
  let per_pass ns = J.Num (float_of_int ns *. 1e-9 /. float_of_int hot_passes) in
  print_string
    (J.to_string
       (J.Obj
          [ ("spans", Spans.to_json ~base_ns:0 (Spans.spans tr));
            ("replay_spans", Spans.to_json ~base_ns:0 (Spans.spans replay));
            ("counters", counters_json cnt);
            ("digests", digests_json warmed);
            ( "layers",
              J.Obj
                (Array.to_list
                   (Array.mapi (fun l name -> (name, per_pass layers.(l))) layer_names)) );
            ( "request_p50_s",
              J.Num
                (Stats.percentile ~pct:50
                   (List.map (fun ns -> float_of_int ns *. 1e-9) !roots)) );
            ("body_bytes", J.Int (!bytes / hot_passes));
            ("traced_s", J.Num !traced_s);
            ("untraced_s", J.Num !untraced_s);
            ("failures", J.Int !failures) ]))

(* ------------------------------------------------------------------ *)
(* Parent side: the traced passes and the per-layer metrics. *)

type kind = Time | Count | Ratio

(* Every per-layer metric, with the span or counter it is read from. *)
let metrics =
  [ ("symmetry.certify_s", "s", Time); ("symmetry.canon_s", "s", Time);
    ("symmetry.canon_calls", "count", Count); ("explore.self_s", "s", Time);
    ("explore.states", "count", Count); ("arena.compile_s", "s", Time);
    ("arena.branches", "count", Count); ("checker.arrows_s", "s", Time);
    ("claim.compose_s", "s", Time); ("finite_horizon.direct_bound_s", "s", Time);
    ("expected_time.vi_s", "s", Time); ("invariant.check_s", "s", Time);
    ("plane.residue_ratio", "ratio", Ratio); ("plane.exact_fallbacks", "count", Count);
    ("json.render_s", "s", Time); ("json.body_bytes", "bytes", Count);
    ("cert.emit_s", "s", Time); ("snapshot.load_s", "s", Time);
    ("registry.builds", "count", Count); ("registry.hits", "count", Count);
    ("results_cache.hit_ratio", "ratio", Ratio); ("http.parse_s", "s", Time);
    ("protocol.parse_s", "s", Time); ("service.handle_s", "s", Time);
    ("http.render_s", "s", Time); ("daemon.residual_s", "s", Time);
    ("host.calib_s", "s", Time); ("trace.coverage", "ratio", Ratio);
    ("trace.overhead", "ratio", Ratio) ]

(* Span names whose self time is a "<name>_s" metric. *)
let spanned =
  [ "symmetry.certify"; "symmetry.canon"; "explore"; "arena.compile";
    "checker.arrows"; "claim.compose"; "finite_horizon.direct_bound";
    "expected_time.vi"; "invariant.check"; "json.render"; "cert.emit";
    "snapshot.load"; "http.parse"; "protocol.parse"; "service.handle";
    "http.render" ]

let metric_of_span = function "explore" -> "explore.self_s" | name -> name ^ "_s"

(* One traced pass: raw per-layer values by metric name. *)
type layer_pass = {
  values : (string, float) Hashtbl.t;
  spans : Spans.span list;
}

let next_pid = ref 0

let fresh_pid () =
  incr next_pid;
  !next_pid

let spans_of ~pid key j =
  match Option.map Spans.of_json (J.member key j) with
  | Some (Ok spans) -> List.map (fun (s : Spans.span) -> { s with pid }) spans
  | _ -> failwith ("child output without " ^ key)

let num j name =
  match Option.bind (J.member name j) J.to_float_opt with
  | Some v -> v
  | None -> failwith ("child output without " ^ name)

let check_digests ctx j =
  match J.member "digests" j with
  | Some (J.Arr rows) ->
    List.iter
      (function
        | J.Arr [ J.Str key; J.Str md5 ] -> (
            W.attempt ctx;
            match Hashtbl.find_opt ctx.W.golden key with
            | Some want when want = md5 -> ()
            | Some want ->
              W.fail ctx
                (Printf.sprintf "traced body of [%s] has digest %s, golden.tsv says %s" key md5 want)
            | None -> W.fail ctx (Printf.sprintf "no golden digest for [%s]" key))
        | _ -> failwith "malformed digests")
      rows
  | _ -> failwith "child output without digests"

(* Run a trace child, check its bodies, and return its JSON. *)
let child ctx args =
  let what = String.concat " " (List.filteri (fun i _ -> i < 2) args) in
  let out, st, _ = Proc.run ctx.W.self args in
  if not (Proc.ok st) then failwith (Printf.sprintf "%s: %s" what (Proc.describe st));
  match J.of_string out with
  | Ok j ->
    check_digests ctx j;
    j
  | Error e -> failwith (Printf.sprintf "%s printed no JSON: %s" what e)

(* The in-process seconds of a trace-queries child's queries. *)
let inprocess j =
  match J.member "inprocess_s" j with
  | Some (J.Arr xs) -> List.filter_map J.to_float_opt xs
  | _ -> failwith "child output without inprocess_s"

let total j = List.fold_left ( +. ) 0. (inprocess j)

let add values name v =
  Hashtbl.replace values name (v +. Option.value (Hashtbl.find_opt values name) ~default:0.)

(* Self times per layer, and the counters of trace children. *)
let absorb values spans children =
  let self = Spans.self_by_name spans in
  List.iter
    (fun name ->
       add values (metric_of_span name)
         (float_of_int (Option.value (Hashtbl.find_opt self name) ~default:0) *. 1e-9))
    spanned;
  let total = Hashtbl.create 8 in
  List.iter
    (fun j ->
       match J.member "counters" j with
       | Some (J.Obj kvs) ->
         List.iter
           (fun (k, v) ->
              match v with
              | J.Int i -> add total k (float_of_int i)
              | _ -> ())
           kvs
       | _ -> failwith "child output without counters")
    children;
  let get k = Option.value (Hashtbl.find_opt total k) ~default:0. in
  add values "symmetry.canon_calls" (get "canon_calls");
  add values "explore.states" (get "states");
  add values "arena.branches" (get "branches");
  add values "json.body_bytes" (get "body_bytes");
  add values "plane.exact_fallbacks" (get "fallbacks");
  let assessed = get "points" +. get "residue" in
  add values "plane.residue_ratio" (if assessed = 0. then 0. else get "residue" /. assessed)

let min_coverage spans =
  List.fold_left
    (fun m ((s : Spans.span), c) ->
       if s.name = "query" || s.name = "request" then Float.min m c else m)
    1. (Spans.coverage spans)

let new_values () = Hashtbl.create 32

(* cli-small and cli-lr4-sym: each query traced in a fresh child, the
   way a cold CLI process runs it, then answered by an untraced child
   and by the CLI itself.  The CLI's time beyond the untraced child's is
   the process's own: exec, runtime start, arguments, output, exit. *)
let cli_pass ctx keys index =
  let values = new_values () in
  let order = W.shuffle (Random.State.make [| ctx.W.seed; index |]) keys in
  let runs =
    List.map
      (fun q ->
         let key = Keys.to_string q in
         let traced = child ctx [ "trace-queries"; key ] in
         let untraced = child ctx [ "trace-queries"; "--untraced"; key ] in
         let cli_wall, _ = W.cli_run ctx q in
         (traced, untraced, cli_wall))
      order
  in
  let traced = List.map (fun (t, _, _) -> t) runs in
  let spans = List.concat_map (fun j -> spans_of ~pid:(fresh_pid ()) "spans" j) traced in
  absorb values spans traced;
  let sum f = List.fold_left (fun a r -> a +. f r) 0. runs in
  add values "registry.builds" (float_of_int (List.length runs));
  add values "daemon.residual_s"
    (Stats.percentile ~pct:50 (List.map (fun (_, u, cli) -> cli -. total u) runs));
  add values "trace.overhead"
    ((sum (fun (t, _, _) -> total t) /. sum (fun (_, u, _) -> total u)) -. 1.);
  add values "trace.coverage" (min_coverage spans);
  { values; spans }

let hot_pass ctx block _index =
  let values = new_values () in
  let d, c, bodies, _ = W.hot_daemon ctx in
  let s0 = W.stats c in
  let p = W.hot_pass ctx c bodies block 0 in
  let s1 = W.stats c in
  Client.close c;
  ignore (W.stop_daemon ctx d);
  let j = child ctx [ "trace-hot"; "--seed"; string_of_int ctx.W.seed ] in
  if num j "failures" > 0. then
    W.fail ctx "trace-hot: the in-process replay answered wrongly";
  let pid = fresh_pid () in
  let warm = spans_of ~pid "spans" j and replay = spans_of ~pid "replay_spans" j in
  (* The warm-up's spans give the engine layers (serve-hot's set-up);
     the four daemon layers and the body bytes are the replay's. *)
  absorb values warm [ j ];
  Hashtbl.remove values "json.body_bytes";
  add values "json.body_bytes" (num j "body_bytes");
  (match J.member "layers" j with
   | Some (J.Obj kvs) ->
     List.iter
       (fun (k, v) -> add values (k ^ "_s") (Option.value (J.to_float_opt v) ~default:0.))
       kvs
   | _ -> failwith "trace-hot printed no layers");
  add values "registry.builds" (float_of_int (s1.W.builds - s0.W.builds));
  add values "registry.hits" (float_of_int (s1.W.registry_hits - s0.W.registry_hits));
  add values "results_cache.hit_ratio" (W.hit_ratio s0 s1);
  add values "daemon.residual_s"
    (Stats.percentile ~pct:50 (Array.to_list p.W.lat) -. num j "request_p50_s");
  add values "trace.overhead" ((num j "traced_s" /. num j "untraced_s") -. 1.);
  add values "trace.coverage" (min_coverage (warm @ replay));
  { values; spans = warm @ replay }

let sweep_pass ctx dir order _index =
  let values = new_values () in
  let tr = Spans.create ~pid:(fresh_pid ()) () in
  let p, (s0, s1) =
    Spans.with_span tr "sweep" (fun () ->
        let root = Spans.current tr in
        W.sweep_once ctx dir order ~on_request:(fun ~tid ~start_ns ~dur_ns ->
            ignore (Spans.add tr ~tid ~parent:root ~name:"client.request" ~start_ns ~dur_ns ())))
  in
  let keys = List.map Keys.to_string (Array.to_list order) in
  let replay flags = child ctx ([ "trace-queries" ] @ flags @ [ "--snapshot-dir"; dir ] @ keys) in
  let traced = replay [] and untraced = replay [ "--untraced" ] in
  let spans = spans_of ~pid:(fresh_pid ()) "spans" traced in
  absorb values spans [ traced ];
  add values "registry.builds" (float_of_int (s1.W.builds - s0.W.builds));
  add values "registry.hits" (float_of_int (s1.W.registry_hits - s0.W.registry_hits));
  add values "results_cache.hit_ratio" (W.hit_ratio s0 s1);
  add values "daemon.residual_s"
    (Stats.percentile ~pct:50 (Array.to_list p.W.lat)
     -. Stats.percentile ~pct:50 (inprocess untraced));
  add values "trace.overhead" ((total traced /. total untraced) -. 1.);
  add values "trace.coverage" (min_coverage spans);
  { values; spans = Spans.spans tr @ spans }

(* The per-layer metrics of a run.  A timing is the fast quartile over
   passes, normalized like the end-to-end ones; a count or ratio is the
   median. *)
let summarize ctx passes =
  let factor = W.factor ctx in
  List.map
    (fun (name, unit, kind) ->
       let per_pass =
         List.map (fun p -> Option.value (Hashtbl.find_opt p.values name) ~default:0.) passes
       in
       let value, raw =
         if name = "host.calib_s" then
           let v = Stats.fast !(ctx.W.calibs) in
           (v, v)
         else if kind = Time then
           let v = Stats.fast per_pass in
           (Stats.normalize ~factor v, v)
         else
           let v = Stats.median per_pass in
           (v, v)
       in
       { W.name; unit; value; raw; samples = List.length passes })
    metrics

let run ctx workload =
  let passes =
    match workload with
    | "cli-small" -> W.measure ctx (cli_pass ctx Keys.cli_small)
    | "cli-lr4-sym" -> W.measure ctx (cli_pass ctx [ Keys.lr4 ])
    | "serve-hot" -> W.measure ctx (hot_pass ctx (W.hot_block ~seed:ctx.W.seed))
    | _ ->
      let dir = W.snapshot_dir ctx in
      W.measure ctx (fun index -> sweep_pass ctx dir (W.sweep_order ctx ~index) index)
  in
  let spans = List.concat_map (fun p -> p.spans) passes in
  (summarize ctx passes, spans)
