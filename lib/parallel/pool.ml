(* A hand-rolled fixed domain pool (no domainslib in the build
   environment).  Workers block on a shared queue of "drain this
   region" jobs; a region is one parallel_for/map_reduce call.

   The caller always drains its own region too, so completion never
   depends on workers being free: if every worker is busy (or the pool
   has one domain), the caller just runs all chunks itself.  After its
   own drain the caller waits for chunks claimed by workers to finish,
   which makes every write performed by [chunk] happen-before the
   caller's return (all bookkeeping goes through the region mutex). *)

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
  size : int;
}

exception Cancelled of string

let default_chunks = 64

let domains pool = pool.size

(* A worker already owns a core: fork regions opened by its jobs run
   inline instead of oversubscribing the pool's domains. *)
let worker pool () =
  Fork.mark_inline ();
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.jobs && not pool.closed do
      Condition.wait pool.nonempty pool.lock
    done;
    if Queue.is_empty pool.jobs then Mutex.unlock pool.lock (* closed *)
    else begin
      let job = Queue.pop pool.jobs in
      Mutex.unlock pool.lock;
      job ();
      loop ()
    end
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let pool =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      closed = false;
      workers = [||];
      size = domains;
    }
  in
  pool.workers <- Array.init (domains - 1) (fun _ -> Domain.spawn (worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.lock;
  let was_closed = pool.closed in
  pool.closed <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock;
  if not was_closed then Array.iter Domain.join pool.workers

(* ------------------------------------------------------------------ *)
(* Fire-and-forget jobs (the server work queue).

   [submit] rides the same job queue the regions use, so a pool can
   serve long-lived connection handlers and still run parallel_for
   regions issued from inside those handlers: region callers always
   drain their own chunks, so progress never depends on a free
   worker. *)

let submit pool job =
  Mutex.lock pool.lock;
  let accepted = (not pool.closed) && pool.size > 1 in
  if accepted then begin
    Queue.add job pool.jobs;
    Condition.signal pool.nonempty
  end;
  Mutex.unlock pool.lock;
  accepted

let pending pool =
  Mutex.lock pool.lock;
  let n = Queue.length pool.jobs in
  Mutex.unlock pool.lock;
  n

(* ------------------------------------------------------------------ *)
(* Regions. *)

type region = {
  nchunks : int;
  chunk : int -> unit;
  stop : (unit -> string option) option;
  rlock : Mutex.t;
  drained : Condition.t;
  mutable claimed : int;  (* next chunk index; monotone, <= nchunks *)
  mutable completed : int;  (* chunks whose [chunk] call returned *)
  mutable stop_reason : string option;
  mutable failure : (exn * Printexc.raw_backtrace) option;
}

(* Claim chunks until none are left or the region is poisoned (stop
   probe fired / a chunk raised).  Probes and claims share the region
   lock, so once poisoned no further chunk starts. *)
let drain r =
  let rec loop () =
    Mutex.lock r.rlock;
    let claim =
      if r.failure <> None || r.stop_reason <> None || r.claimed >= r.nchunks
      then None
      else begin
        match r.stop with
        | Some probe ->
          (match probe () with
           | Some reason ->
             r.stop_reason <- Some reason;
             None
           | None ->
             let i = r.claimed in
             r.claimed <- i + 1;
             Some i)
        | None ->
          let i = r.claimed in
          r.claimed <- i + 1;
          Some i
      end
    in
    Mutex.unlock r.rlock;
    match claim with
    | None -> ()
    | Some i ->
      (try r.chunk i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock r.rlock;
         if r.failure = None then r.failure <- Some (e, bt);
         Mutex.unlock r.rlock);
      Mutex.lock r.rlock;
      r.completed <- r.completed + 1;
      if r.completed = r.claimed then Condition.broadcast r.drained;
      Mutex.unlock r.rlock;
      loop ()
  in
  loop ()

let run_region pool ?stop ~nchunks chunk =
  if nchunks > 0 then begin
    let r =
      {
        nchunks;
        chunk;
        stop;
        rlock = Mutex.create ();
        drained = Condition.create ();
        claimed = 0;
        completed = 0;
        stop_reason = None;
        failure = None;
      }
    in
    if pool.size > 1 then begin
      let helpers = Stdlib.min (pool.size - 1) nchunks in
      Mutex.lock pool.lock;
      if not pool.closed then begin
        for _ = 1 to helpers do
          Queue.add (fun () -> drain r) pool.jobs
        done;
        Condition.broadcast pool.nonempty
      end;
      Mutex.unlock pool.lock
    end;
    drain r;
    Mutex.lock r.rlock;
    while r.completed < r.claimed do
      Condition.wait r.drained r.rlock
    done;
    let failure = r.failure and stop_reason = r.stop_reason in
    Mutex.unlock r.rlock;
    (match failure with
     | Some (e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    match stop_reason with
    | Some reason -> raise (Cancelled reason)
    | None -> ()
  end

(* Chunk [c] of [n] items in [nchunks] ranges: the grid depends only on
   [n] and [nchunks], never on the pool size. *)
let chunk_bounds ~n ~nchunks c = (c * n / nchunks, (c + 1) * n / nchunks)

let resolve_chunks ?chunks n =
  let c = match chunks with Some c -> c | None -> default_chunks in
  if c < 1 then invalid_arg "Pool: chunks must be >= 1";
  Stdlib.min c n

let parallel_for pool ?stop ?chunks ~n f =
  if n < 0 then invalid_arg "Pool.parallel_for: negative n";
  if n > 0 then begin
    let nchunks = resolve_chunks ?chunks n in
    run_region pool ?stop ~nchunks (fun c ->
        let lo, hi = chunk_bounds ~n ~nchunks c in
        for i = lo to hi - 1 do
          f i
        done)
  end

let map_reduce pool ?stop ?chunks ~n ~combine ~init map =
  if n < 0 then invalid_arg "Pool.map_reduce: negative n";
  if n = 0 then init
  else begin
    let nchunks = resolve_chunks ?chunks n in
    let partial = Array.make nchunks None in
    run_region pool ?stop ~nchunks (fun c ->
        let lo, hi = chunk_bounds ~n ~nchunks c in
        let acc = ref (map lo) in
        for i = lo + 1 to hi - 1 do
          acc := combine !acc (map i)
        done;
        partial.(c) <- Some !acc);
    Array.fold_left
      (fun acc -> function None -> acc | Some v -> combine acc v)
      init partial
  end

(* ------------------------------------------------------------------ *)
(* Session default. *)

let default : t option ref = ref None
let exit_hook_installed = ref false

let get_default () = !default

let set_default pool =
  (match !default with Some old -> shutdown old | None -> ());
  default := pool;
  if pool <> None && not !exit_hook_installed then begin
    exit_hook_installed := true;
    at_exit (fun () ->
        match !default with
        | Some p ->
          default := None;
          shutdown p
        | None -> ())
  end
