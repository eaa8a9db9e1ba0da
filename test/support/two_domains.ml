(* [run f] runs [f] twice at once in a [Parallel.Fork] region with one
   forced helper.  Each copy waits (up to 5 s) until both have started,
   so the copies run on two domains and one of them is the helper --
   marked inline and holding the caller's deadline, as a forked proof
   pass is.  Both results come back in task order. *)
let run f =
  let started = Atomic.make 0 in
  let task () =
    Atomic.incr started;
    let give_up = Unix.gettimeofday () +. 5.0 in
    while Atomic.get started < 2 && Unix.gettimeofday () < give_up do
      Domain.cpu_relax ()
    done;
    f ()
  in
  Parallel.Fork.run ~helpers:1 [| task; task |]
