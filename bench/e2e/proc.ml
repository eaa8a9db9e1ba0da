type status = { exited : bool; code : int; maxrss_kb : int }

external wait4 : int -> bool * int * int = "prtb_bench_wait4"

let ok s = s.exited && s.code = 0

let describe s =
  if s.exited then Printf.sprintf "exit %d" s.code
  else Printf.sprintf "killed by signal %d" s.code

type child = { pid : int; out : Unix.file_descr }

(* Every child not yet reaped, so a watchdog can stop them all. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 8
let live_mu = Mutex.create ()

let kill_all () =
  let pids =
    Mutex.protect live_mu (fun () -> Hashtbl.fold (fun pid () acc -> pid :: acc) live [])
  in
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) pids;
  (* A thread already blocked in [wait] may reap one first. *)
  List.iter
    (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    pids

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)

let spawn prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () ->
         Unix.create_process prog
           (Array.of_list (prog :: args))
           (Lazy.force devnull) w Unix.stderr)
  in
  Mutex.protect live_mu (fun () -> Hashtbl.replace live pid ());
  { pid; out = r }

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  Buffer.contents buf

let wait child =
  let exited, code, maxrss_kb = wait4 child.pid in
  Mutex.protect live_mu (fun () -> Hashtbl.remove live child.pid);
  (try Unix.close child.out with Unix.Unix_error _ -> ());
  { exited; code; maxrss_kb }

let run prog args =
  let t0 = Clock.now () in
  let child = spawn prog args in
  let out = read_all child.out in
  let status = wait child in
  (out, status, Clock.since t0)
