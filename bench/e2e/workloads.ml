(* The untraced phase: the real `prtb` CLI and daemon, spawned and
   timed from outside.  It yields every end-to-end metric. *)

module J = Analysis.Json

type ctx = {
  prtb : string;  (** the binary under test *)
  self : string;  (** this program, re-run for calibration and traced children *)
  golden : Golden.t;
  seed : int;
  seconds : float;  (** how long the measured passes run, in total *)
  out_dir : string;  (** where results, traces and snapshots go *)
  calibs : float list ref;  (** every calibration reading of the run, newest first *)
  pass_s : float list ref;  (** every measured pass's seconds, newest first *)
  attempted : int Atomic.t;
  failed : int Atomic.t;
  violations : string list ref;  (** invariants that failed (not operations) *)
}

let attempt ctx = Atomic.incr ctx.attempted

(* Failures are counted and the first few are named on stderr. *)
let fail ctx msg =
  if Atomic.fetch_and_add ctx.failed 1 < 20 then
    Printf.eprintf "prtb_bench: FAILED: %s\n%!" msg

let violate ctx msg =
  ctx.violations := msg :: !(ctx.violations);
  Printf.eprintf "prtb_bench: VIOLATED: %s\n%!" msg

let check_golden ctx q body =
  match Golden.check ctx.golden q body with
  | Ok () -> true
  | Error e ->
    fail ctx e;
    false

(* ------------------------------------------------------------------ *)
(* Host calibration. *)

(* One kernel process per core of the 2-core host, run at once: a
   daemon with two busy workers slows with the slower core, which one
   kernel process, landing on either, would miss half the time. *)
let calib_processes = 2

let calibrate ctx =
  let children = List.init calib_processes (fun _ -> Proc.spawn ctx.self [ "calib" ]) in
  List.iter
    (fun child ->
       let out = Proc.read_all child.Proc.out in
       let st = Proc.wait child in
       let times =
         List.filter_map float_of_string_opt (String.split_on_char ' ' (String.trim out))
       in
       if not (Proc.ok st) || times = [] then
         failwith ("calibration run failed: " ^ Proc.describe st);
       ctx.calibs := times @ !(ctx.calibs))
    children

(* The multiplier that rescales this run's timings to the calibration
   host. *)
let factor ctx = Stats.factor ~nominal:Calib.nominal_s !(ctx.calibs)

let bracket ctx f =
  calibrate ctx;
  let r = f () in
  calibrate ctx;
  r

(* Windows stay short, so the calibration runs between them sample the
   host all through the run, not just at its ends. *)
let window_s = 2.0

(* [measure ctx pass] runs [pass 0], [pass 1], ... back to back for
   about [ctx.seconds] (always at least once), starting another only
   while the last one's duration still fits.  Calibration runs before
   the first pass, between windows of at most [window_s] and after the
   last pass. *)
let measure ctx pass =
  calibrate ctx;
  let measured = ref 0. and last = ref 0. and in_window = ref 0. in
  let passes = ref [] and index = ref 0 in
  let more () = !index = 0 || !measured +. !last <= ctx.seconds in
  while more () do
    let r, dt = Clock.time (fun () -> pass !index) in
    incr index;
    measured := !measured +. dt;
    last := dt;
    in_window := !in_window +. dt;
    passes := r :: !passes;
    ctx.pass_s := dt :: !(ctx.pass_s);
    if (not (more ())) || !in_window +. dt > window_s then begin
      calibrate ctx;
      in_window := 0.
    end
  done;
  List.rev !passes

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Metrics. *)

type metric = {
  name : string;
  unit : string;
  value : float;  (** host-normalized where the metric is a timing *)
  raw : float;  (** as measured *)
  samples : int;
}

(* One pass over a workload's request list. *)
type pass = {
  lat : float array;
      (** per-query latency, seconds, indexed by the query's fixed slot in
          the workload so each query can be followed across passes *)
  makespan : float;  (** first request sent to last answer, seconds *)
  requests : int;
  setup : float option;  (** a set-up that belongs to this pass *)
  peak_kb : int option;  (** peak RSS of the prtb process(es) of the pass *)
}

let mib kb = float_of_int kb /. 1024.

(* The end-to-end metrics of a run, from its raw set-up times, peak
   memory samples and passes.  Timings take the fast quartile over the
   run ({!Stats.fast}); set-up and memory take the median.  A latency
   percentile ranges over the workload's queries, each taken at its
   fast quartile over the passes, and is the Harrell-Davis estimate:
   cli-small's queries cost from 3 ms to 0.4 s and serve-sweep's are
   either cheap (their instance is built) or not, so a sample
   percentile sits in a gap between clusters and jumps with every
   small disturbance. *)
let e2e ctx ~setup ~peak_kb passes =
  let factor = factor ctx in
  let lat =
    List.init
      (Array.length (List.hd passes).lat)
      (fun i -> Stats.fast (List.map (fun p -> p.lat.(i)) passes))
  in
  let spans = List.map (fun p -> p.makespan) passes in
  let time name f xs =
    let raw = f xs in
    { name; unit = "s"; value = Stats.normalize ~factor raw; raw;
      samples = List.length xs }
  in
  let rate = float_of_int (List.hd passes).requests /. Stats.fast spans in
  let peak = Stats.median (List.map mib peak_kb) in
  [ time "setup_s" Stats.median setup;
    time "latency_p50_s" (Stats.harrell_davis ~pct:50) lat;
    time "latency_p90_s" (Stats.harrell_davis ~pct:90) lat;
    time "makespan_s" Stats.fast spans;
    { name = "throughput_rps"; unit = "req/s";
      value = Stats.normalize_rate ~factor rate; raw = rate;
      samples = List.length spans };
    { name = "peak_rss_mb"; unit = "MiB"; value = peak; raw = peak;
      samples = List.length peak_kb } ]

let peak_of_passes passes = List.filter_map (fun p -> p.peak_kb) passes
let setup_of_passes passes = List.filter_map (fun p -> p.setup) passes

(* ------------------------------------------------------------------ *)
(* The CLI. *)

(* Set-up of a cold CLI run is the process start itself: exec, runtime
   and module initialisation, argument parsing.  Work a change moves
   into start-up shows here. *)
let version_probes = 25

let cli_setup ctx =
  bracket ctx (fun () ->
      List.init version_probes (fun _ ->
          attempt ctx;
          let out, st, wall = Proc.run ctx.prtb [ "--version" ] in
          if not (Proc.ok st && String.trim out <> "") then
            fail ctx ("prtb --version: " ^ Proc.describe st);
          wall))

let cli_run ctx q =
  attempt ctx;
  let out, st, wall = Proc.run ctx.prtb (Keys.cli_args q) in
  if not (Proc.ok st) then
    fail ctx (Printf.sprintf "prtb %s: %s" (Keys.to_string q) (Proc.describe st))
  else ignore (check_golden ctx q (Golden.cli_body out));
  (wall, st.Proc.maxrss_kb)

let cli_pass ctx keys index =
  let order =
    shuffle (Random.State.make [| ctx.seed; index |]) (List.mapi (fun i q -> (i, q)) keys)
  in
  let lat = Array.make (List.length keys) 0. and peak = ref 0 in
  let t0 = Clock.now () in
  List.iter
    (fun (i, q) ->
       let wall, kb = cli_run ctx q in
       lat.(i) <- wall;
       peak := Int.max !peak kb)
    order;
  { lat; makespan = Clock.since t0; requests = Array.length lat; setup = None;
    peak_kb = Some !peak }

let cli_workload ctx keys =
  let setup = cli_setup ctx in
  let passes = measure ctx (cli_pass ctx keys) in
  e2e ctx ~setup ~peak_kb:(peak_of_passes passes) passes

(* ------------------------------------------------------------------ *)
(* The daemon. *)

type daemon = { child : Proc.child; chan : in_channel; port : int }

(* --domains counts the accept domain: 3 gives two workers, one per
   core of the 2-core host and one per client connection. *)
let serve_args = [ "serve"; "--port"; "0"; "--domains"; "3" ]

let port_of_banner line =
  let marker = "listening on http://" in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length line then None
    else if String.sub line i ml = marker then Some (i + ml)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> (
      let rest = String.sub line i (String.length line - i) in
      match String.index_opt rest ':', String.index_opt rest '/' with
      | Some c, Some s when s > c -> int_of_string_opt (String.sub rest (c + 1) (s - c - 1))
      | _ -> None)

(* Spawn a daemon and wait until /health answers; returns it with the
   seconds from spawn to healthy. *)
let start_daemon ctx extra =
  let t0 = Clock.now () in
  let child = Proc.spawn ctx.prtb (serve_args @ extra) in
  let chan = Unix.in_channel_of_descr child.Proc.out in
  let rec banner () =
    match In_channel.input_line chan with
    | None -> failwith "prtb serve exited before it listened"
    | Some line -> (
        match port_of_banner line with Some p -> p | None -> banner ())
  in
  let port = banner () in
  let c = Client.create port in
  let rec healthy tries =
    match Client.get c "/health" with
    | Ok { Client.status = 200; _ } -> ()
    | _ when tries > 0 ->
      Thread.delay 0.005;
      healthy (tries - 1)
    | _ -> failwith "prtb serve never answered /health"
  in
  healthy 1000;
  Client.close c;
  ({ child; chan; port }, Clock.since t0)

(* SIGTERM drains the daemon; anything but exit 0 afterwards is a
   failure. *)
let stop_daemon ctx d =
  attempt ctx;
  Unix.kill d.child.Proc.pid Sys.sigterm;
  ignore (In_channel.input_all d.chan);
  let st = Proc.wait d.child in
  if not (Proc.ok st) then fail ctx ("prtb serve after SIGTERM: " ^ Proc.describe st);
  st

type stats = {
  explorations : int;
  builds : int;
  registry_hits : int;
  hits : int;
  misses : int;
  insertions : int;
}

let stats c =
  match Client.get c "/stats" with
  | Ok { Client.status = 200; body } -> (
      let int path =
        match J.of_string body with
        | Error e -> failwith ("/stats: " ^ e)
        | Ok j ->
          (match
             List.fold_left
               (fun j k -> Option.bind j (J.member k))
               (Some j) path
           with
           | Some (J.Int i) -> i
           | _ -> failwith ("/stats: no " ^ String.concat "." path))
      in
      { explorations = int [ "registry"; "explorations" ];
        builds = int [ "registry"; "builds" ];
        registry_hits = int [ "registry"; "cache_hits" ];
        hits = int [ "results_cache"; "hits" ];
        misses = int [ "results_cache"; "misses" ];
        insertions = int [ "results_cache"; "insertions" ] })
  | Ok r -> failwith (Printf.sprintf "/stats answered %d" r.Client.status)
  | Error e -> failwith ("/stats: " ^ e)

let hit_ratio s0 s1 =
  let hits = s1.hits - s0.hits and misses = s1.misses - s0.misses in
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

(* ------------------------------------------------------------------ *)
(* serve-hot. *)

type hot_request = {
  wire : string;  (** the request bytes *)
  expect : Keys.t list;  (** the bodies it must return, in order *)
  batch : bool;
}

(* The mix, in exact counts so the seed only draws keys and order:
   80% GET /check, 15% GET /cert, 5% POST /batch of 8 elements drawn
   from all twelve hot keys.  Batches are the slowest class; at 5% the
   90th percentile falls inside the /cert cluster, where at 10% it would
   sit on the edge of the batch cluster and follow whichever class the
   seed drew one more of. *)
let hot_mix = [ (`Check, 8_000); (`Cert, 1_500); (`Batch, 500) ]

let hot_block ~seed =
  let st = Random.State.make [| seed; 0x407 |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let get q =
    { wire = Client.render ~meth:"GET" ~target:(Keys.target q) ~body:"";
      expect = [ q ]; batch = false }
  in
  let request = function
    | `Check -> get (pick Keys.hot_check)
    | `Cert -> get (pick Keys.hot_cert)
    | `Batch ->
      let qs = List.init 8 (fun _ -> pick (Keys.hot_check @ Keys.hot_cert)) in
      let body =
        J.to_string (J.Obj [ ("queries", J.Arr (List.map Keys.batch_element qs)) ])
      in
      { wire = Client.render ~meth:"POST" ~target:"/batch" ~body; expect = qs;
        batch = true }
  in
  Array.of_list
    (List.map request
       (shuffle st (List.concat_map (fun (kind, n) -> List.init n (fun _ -> kind)) hot_mix)))

(* [hot_bodies ctx fetch] asks for every hot key once, checks each body
   against golden.tsv, and returns the table the load checks against
   (comparing bytes is cheaper than hashing them per request). *)
let hot_bodies ctx fetch =
  let table = Hashtbl.create 16 in
  List.iter
    (fun q ->
       attempt ctx;
       match fetch q with
       | Ok body ->
         if check_golden ctx q body then Hashtbl.replace table (Keys.to_string q) body
       | Error e -> fail ctx (Printf.sprintf "warming [%s]: %s" (Keys.to_string q) e))
    (Keys.hot_check @ Keys.hot_cert);
  table

let reply_ok bodies r ~status ~body =
  let want q = Hashtbl.find_opt bodies (Keys.to_string q) in
  status = 200
  &&
  if r.batch then
    match Envelope.bodies body with
    | got ->
      List.length got = List.length r.expect
      && List.for_all2
           (fun (st, b) q -> st = 200 && Some b = want q)
           got r.expect
    | exception Failure _ -> false
  else Some body = want (List.hd r.expect)

let fetch_over c q =
  match Client.get c (Keys.target q) with
  | Ok { Client.status = 200; body } -> Ok body
  | Ok r -> Error (Printf.sprintf "status %d" r.Client.status)
  | Error e -> Error e

(* Spawn, answer each hot key once: the daemon as serve-hot measures
   it. *)
let hot_daemon ctx =
  let t0 = Clock.now () in
  let d, _ = start_daemon ctx [] in
  let c = Client.create d.port in
  let bodies = hot_bodies ctx (fetch_over c) in
  (d, c, bodies, Clock.since t0)

let hot_pass ctx c bodies block _index =
  let t0 = Clock.now () in
  let lat =
    Array.map
      (fun r ->
         attempt ctx;
         let s = Clock.now () in
         let res = Client.request c ~request:r.wire in
         let dt = Clock.since s in
         (match res with
          | Ok { Client.status; body } ->
            if not (reply_ok bodies r ~status ~body) then
              fail ctx
                (Printf.sprintf "serve-hot: wrong reply (status %d) to %s" status
                   (String.sub r.wire 0 (String.index r.wire '\r')))
          | Error e -> fail ctx ("serve-hot: " ^ e));
         dt)
      block
  in
  { lat; makespan = Clock.since t0; requests = Array.length block; setup = None;
    peak_kb = None }

(* Set-up is spawn -> hot set warmed, three times; the third daemon is
   the one measured. *)
let hot_launches = 3

let serve_hot ctx =
  let block = hot_block ~seed:ctx.seed in
  let launches =
    bracket ctx (fun () ->
        List.init hot_launches (fun i ->
            let (d, c, bodies, t) = hot_daemon ctx in
            if i < hot_launches - 1 then begin
              Client.close c;
              ignore (stop_daemon ctx d)
            end;
            ((d, c, bodies), t)))
  in
  let d, c, bodies = fst (List.nth launches (hot_launches - 1)) in
  let setup = List.map snd launches in
  let s0 = stats c in
  let passes = measure ctx (hot_pass ctx c bodies block) in
  let s1 = stats c in
  let ratio = hit_ratio s0 s1 in
  if ratio < 0.99 then
    violate ctx (Printf.sprintf "serve-hot: result-cache hit ratio %.4f < 0.99" ratio);
  if s1.builds <> s0.builds then
    violate ctx
      (Printf.sprintf "serve-hot: %d registry builds inside the measured window"
         (s1.builds - s0.builds));
  Client.close c;
  let st = stop_daemon ctx d in
  Printf.printf "serve-hot: result-cache hit ratio %.4f, registry builds %d\n"
    ratio (s1.builds - s0.builds);
  e2e ctx ~setup ~peak_kb:[ st.Proc.maxrss_kb ] passes

(* ------------------------------------------------------------------ *)
(* serve-sweep. *)

(* `prtb compile` snapshots, built untimed once per binary: the
   directory name carries the binary's digest, so a snapshot is never
   offered to a build it did not come from. *)
let snapshot_dir ctx =
  let dir =
    Filename.concat ctx.out_dir
      ("snapshots-" ^ Digest.to_hex (Digest.file ctx.prtb))
  in
  if not (Sys.file_exists dir) then begin
    let tmp = dir ^ ".tmp" in
    if not (Sys.file_exists tmp) then Sys.mkdir tmp 0o755;
    List.iter
      (fun (q, file) ->
         let _, st, _ =
           Proc.run ctx.prtb (Keys.compile_args q ~output:(Filename.concat tmp file))
         in
         if not (Proc.ok st) then
           failwith (Printf.sprintf "prtb compile %s: %s" file (Proc.describe st)))
      Keys.snapshots;
    Sys.rename tmp dir
  end;
  dir

(* Instances the daemon must explore itself: the sweep's distinct
   instances minus the preloaded ones. *)
let sweep_explorations =
  let preloaded = List.map (fun (q, _) -> Keys.instance q) Keys.snapshots in
  List.length
    (List.filter
       (fun i -> not (List.mem i preloaded))
       (List.sort_uniq compare (List.map Keys.instance Keys.sweep)))

(* The sweep's queue.  Queries are grouped by the registry instance
   they share, and the seed shuffles the groups (the mid-size ones
   first, so the end of the sweep is not decided by where a one-second
   query lands).  The queue then asks every group's first query, then
   every group's second, and so on.  So the first query of an instance
   always pays its build and the others are registry hits, whatever the
   seed; with adjacent queries, which one paid would depend on the
   order and on which worker got there first.  Each pass draws its own
   order, so a run averages over which queries the two workers compute
   side by side instead of keeping one pairing. *)
let sweep_order ctx ~index =
  let st = Random.State.make [| ctx.seed; 0x5eed; index |] in
  let groups keys =
    let tbl = Hashtbl.create 32 and order = ref [] in
    List.iter
      (fun q ->
         let i = Keys.instance q in
         match Hashtbl.find_opt tbl i with
         | Some qs -> Hashtbl.replace tbl i (q :: qs)
         | None ->
           Hashtbl.replace tbl i [ q ];
           order := i :: !order)
      keys;
    List.rev_map (fun i -> List.rev (Hashtbl.find tbl i)) !order
  in
  let rec rounds = function
    | [] -> []
    | gs -> List.map List.hd gs @ rounds (List.filter (( <> ) []) (List.map List.tl gs))
  in
  Array.of_list
    (rounds (shuffle st (groups Keys.sweep_extra) @ shuffle st (groups Keys.cli_small)))

(* Each sweep query's slot in a pass's latencies, whatever the order. *)
let sweep_slot =
  let slots = Hashtbl.create 64 in
  List.iteri (fun i q -> Hashtbl.replace slots q i) Keys.sweep;
  Hashtbl.find slots

(* Two client threads, one connection each, pull from one queue until
   every key has been asked once.  [on_request] sees each request's
   thread, start and duration (the traced phase records them). *)
let sweep_load ctx port order ~on_request =
  let next = Atomic.make 0 in
  let lat = Array.make (Array.length order) 0. in
  let client tid () =
    let c = Client.create port in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length order then begin
        let q = order.(i) in
        attempt ctx;
        let s = Clock.now_ns () in
        let res = fetch_over c q in
        let dur = Clock.now_ns () - s in
        lat.(sweep_slot q) <- float_of_int dur *. 1e-9;
        on_request ~tid ~start_ns:s ~dur_ns:dur;
        (match res with
         | Ok body -> ignore (check_golden ctx q body)
         | Error e -> fail ctx (Printf.sprintf "serve-sweep [%s]: %s" (Keys.to_string q) e));
        loop ()
      end
    in
    loop ();
    Client.close c
  in
  let t0 = Clock.now () in
  List.iter Thread.join [ Thread.create (client 1) (); Thread.create (client 2) () ];
  (lat, Clock.since t0)

let sweep_once ctx dir order ~on_request =
  let d, setup = start_daemon ctx [ "--snapshot-dir"; dir ] in
  (* A keep-alive connection pins a daemon worker, so /stats goes over
     its own short-lived connection. *)
  let stats_once () =
    let ctl = Client.create d.port in
    Fun.protect ~finally:(fun () -> Client.close ctl) (fun () -> stats ctl)
  in
  let s0 = stats_once () in
  let lat, makespan = sweep_load ctx d.port order ~on_request in
  let s1 = stats_once () in
  if s1.hits <> s0.hits then
    violate ctx
      (Printf.sprintf "serve-sweep: %d result-cache hits, expected none" (s1.hits - s0.hits));
  if s1.explorations - s0.explorations <> sweep_explorations then
    violate ctx
      (Printf.sprintf "serve-sweep: %d explorations, expected %d (distinct non-preloaded instances)"
         (s1.explorations - s0.explorations) sweep_explorations);
  let st = stop_daemon ctx d in
  ( { lat; makespan; requests = Array.length order; setup = Some setup;
      peak_kb = Some st.Proc.maxrss_kb },
    (s0, s1) )

(* serve-sweep's setup_s is the median of at least this many launches. *)
let sweep_launches = 5

let serve_sweep ctx =
  let dir = snapshot_dir ctx in
  let passes =
    measure ctx (fun index ->
        fst
          (sweep_once ctx dir (sweep_order ctx ~index)
             ~on_request:(fun ~tid:_ ~start_ns:_ ~dur_ns:_ -> ())))
  in
  let extra = sweep_launches - List.length passes in
  let more =
    if extra <= 0 then []
    else
      bracket ctx (fun () ->
          List.init extra (fun _ ->
              let d, t = start_daemon ctx [ "--snapshot-dir"; dir ] in
              ignore (stop_daemon ctx d);
              t))
  in
  e2e ctx ~setup:(setup_of_passes passes @ more) ~peak_kb:(peak_of_passes passes) passes
