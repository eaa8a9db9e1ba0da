type config = {
  host : string;
  port : int;
  domains : int;
  accept_queue : int;
  cache_mb : int;
  max_states : int;
  read_timeout : float;
  write_timeout : float;
  conn_deadline : float;
  max_requests_per_conn : int;
  deadline_ms : int option;
  degraded_after : float;
  snapshot_dir : string option;
}

let default_config =
  { host = "127.0.0.1"; port = 8080; domains = 2; accept_queue = 16;
    cache_mb = 64; max_states = 2_000_000; read_timeout = 10.0;
    write_timeout = 10.0; conn_deadline = 60.0;
    max_requests_per_conn = 1000; deadline_ms = None;
    degraded_after = 5.0; snapshot_dir = None }

type t = {
  service : Service.t;
  pool : Parallel.Pool.t;
  lsock : Unix.file_descr;
  bound_port : int;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  stopping : bool Atomic.t;
  accept_domain : unit Domain.t;
}

let port t = t.bound_port
let service t = t.service

(* ------------------------------------------------------------------ *)
(* The per-connection keep-alive loop, run on a worker domain. *)

let handle_conn service fd ~read_timeout ~write_timeout ~conn_deadline
    ~max_requests =
  (* SO_SNDTIMEO mirrors the read side: a peer that accepts our bytes
     arbitrarily slowly (a slow-reader/slowloris on the write path)
     trips EAGAIN in [Http.write_all], which abandons the response and
     winds the connection down instead of pinning the worker. *)
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO write_timeout
   with Unix.Unix_error _ -> ());
  (* A read timeout (or any socket error) reads as end-of-input: clean
     between requests, a 400 mid-request -- either way the connection
     winds down instead of wedging the worker. *)
  let read buf off len =
    try Unix.read fd buf off len with Unix.Unix_error _ -> 0
  in
  let r = Http.reader read in
  let conn_start = Unix.gettimeofday () in
  (* The per-connection total deadline: a client cannot hold a worker
     past [conn_deadline] seconds by trickling requests that each stay
     inside the per-read timeout.  The read timeout shrinks to the
     remaining allowance before every request. *)
  let arm_read_timeout () =
    let left = conn_deadline -. (Unix.gettimeofday () -. conn_start) in
    if left <= 0.0 then false
    else begin
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO
           (Stdlib.min read_timeout left)
       with Unix.Unix_error _ -> ());
      true
    end
  in
  let rec serve remaining =
    if remaining > 0 && arm_read_timeout () then
      match Http.read_request r with
      | `Eof -> ()
      | `Error e ->
        Service.note_protocol_error service;
        let body =
          Protocol.error_body
            (Protocol.error ~status:e.Http.status ~code:"SRV110"
               e.Http.reason)
        in
        Http.write_all fd
          (Http.response ~keep_alive:false ~status:e.Http.status ~body ())
      | `Request req ->
        let keep = Http.keep_alive req && remaining > 1 in
        let reply = Service.respond service req in
        Http.write_all fd
          (Http.response ~headers:reply.Service.headers ~keep_alive:keep
             ~status:reply.Service.status ~body:reply.Service.body ());
        if keep then serve (remaining - 1)
  in
  (try serve max_requests with _ -> ());
  Http.close_quietly fd

(* An accept-loop rejection: answered inline, never queued.  The
   Retry-After is advisory backoff guidance, for any client that
   honors it. *)
let reject_overloaded service fd =
  Service.note_overload service;
  let body =
    Protocol.error_body
      (Protocol.error ~status:503 ~code:"SRV111"
         "server overloaded; retry later")
  in
  Http.write_all fd
    (Http.response
       ~headers:[ ("Retry-After", "1") ]
       ~keep_alive:false ~status:503 ~body ());
  Http.close_quietly fd

(* ------------------------------------------------------------------ *)
(* The accept loop. *)

let accept_loop ~service ~pool ~lsock ~stop_r ~stopping ~accept_queue
    ~read_timeout ~write_timeout ~conn_deadline ~max_requests =
  let rec loop () =
    if not (Atomic.get stopping) then
      match Unix.select [ lsock; stop_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
      | ready, _, _ ->
        if List.mem stop_r ready then ()
        else begin
          (match Unix.accept ~cloexec:true lsock with
           | exception Unix.Unix_error _ -> ()
           | fd, _ ->
             if Parallel.Pool.pending pool > accept_queue then
               reject_overloaded service fd
             else begin
               let accepted =
                 Parallel.Pool.submit pool (fun () ->
                     handle_conn service fd ~read_timeout ~write_timeout
                       ~conn_deadline ~max_requests)
               in
               if not accepted then Http.close_quietly fd
             end);
          loop ()
        end
  in
  loop ();
  (* Whatever ended the loop, let [run]'s poll loop see it. *)
  Atomic.set stopping true;
  Http.close_quietly lsock

(* ------------------------------------------------------------------ *)
(* Lifecycle. *)

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found ->
      invalid_arg (Printf.sprintf "Daemon.start: unknown host %S" host))

(* Load every [*.prtba] in [dir] into the registry before the socket
   opens, so the first query for a snapshotted instance never explores
   or compiles.  A refused snapshot (stale fingerprint, tamper, version
   skew) is a warning, not a startup failure: the daemon still serves,
   it just computes that instance on demand. *)
let preload_snapshots ~max_states dir =
  let entries =
    match Sys.readdir dir with
    | exception Sys_error e ->
      Printf.eprintf "prtb serve: snapshot dir %s\n%!" e;
      [||]
    | names ->
      Array.sort String.compare names;
      names
  in
  Array.iter
    (fun name ->
       if Filename.check_suffix name ".prtba" then begin
         let path = Filename.concat dir name in
         match Snapshot.Store.preload ~max_states ~path () with
         | Ok desc ->
           Printf.printf "prtb serve: snapshot %s: %s\n%!" name desc
         | Error e ->
           Printf.eprintf "prtb serve: snapshot %s refused: %s\n%!" name e
       end)
    entries

let start config =
  let bytes = config.cache_mb * 1024 * 1024 in
  Models.set_capacity (Some bytes);
  (match config.snapshot_dir with
   | None -> ()
   | Some dir -> preload_snapshots ~max_states:config.max_states dir);
  let service =
    Service.create
      { Service.max_states = config.max_states;
        cache_bytes = Some bytes;
        max_trials = Service.default_config.Service.max_trials;
        deadline_ms = config.deadline_ms;
        degraded_after = config.degraded_after }
  in
  let pool = Parallel.Pool.create ~domains:(Stdlib.max 2 config.domains) in
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lsock Unix.SO_REUSEADDR true;
     Unix.bind lsock (Unix.ADDR_INET (resolve config.host, config.port));
     Unix.listen lsock 128
   with e ->
     Http.close_quietly lsock;
     Parallel.Pool.shutdown pool;
     raise e);
  let bound_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let stopping = Atomic.make false in
  let accept_domain =
    Domain.spawn (fun () ->
        accept_loop ~service ~pool ~lsock ~stop_r ~stopping
          ~accept_queue:config.accept_queue
          ~read_timeout:config.read_timeout
          ~write_timeout:config.write_timeout
          ~conn_deadline:config.conn_deadline
          ~max_requests:config.max_requests_per_conn)
  in
  { service; pool; lsock; bound_port; stop_r; stop_w; stopping;
    accept_domain }

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* /health flips to "draining" for the rest of the shutdown:
       accepted requests still finish, new connections stop being
       taken. *)
    Service.set_draining t.service true;
    try ignore (Unix.write_substring t.stop_w "." 0 1)
    with Unix.Unix_error _ -> ()
  end

let wait t =
  Domain.join t.accept_domain;
  Parallel.Pool.shutdown t.pool;
  Http.close_quietly t.stop_r;
  Http.close_quietly t.stop_w

let run config =
  let t = start config in
  let on_signal _ = stop t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Printf.printf "prtb serve: listening on http://%s:%d/ (%d domains)\n%!"
    config.host (port t)
    (Parallel.Pool.domains t.pool);
  (* Poll instead of blocking in [Domain.join]: pending signal handlers
     only run when some domain reaches a poll point, and with the main
     domain parked in [join] and every worker parked in a condition
     wait, none would -- a SIGTERM would sit pending forever.  Waking
     every 100 ms guarantees the handler (hence {!stop}) runs here. *)
  while not (Atomic.get t.stopping) do
    Unix.sleepf 0.1
  done;
  wait t;
  print_endline "prtb serve: drained, bye"
