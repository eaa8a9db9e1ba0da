(* A hand-rolled fixed domain pool (no domainslib in the build
   environment): workers block on a shared job queue until it is
   closed and drained. *)

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
  size : int;
}

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
