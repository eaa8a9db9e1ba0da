(* The host-calibration kernel.

   A shared 2-core KVM guest's speed drifts by up to 2x over minutes,
   while the ratio of a prtb timing to a fixed OCaml kernel stays
   within a few percent.  So every measurement window is bracketed by
   runs of this kernel, and timings are rescaled by [nominal_s] over
   the fast quartile of the run's kernel times, to the quiet host
   [nominal_s] was taken on.  The kernel does what the checker does:
   allocate small boxed states, hash and intern them in a Hashtbl, and
   sort them with polymorphic compare, on one domain. *)

(* The fast quartile of 160 kernel runs, two in each of 80 fresh
   processes started two at a time as prtb_bench starts them, on a
   quiet 2-core x86-64 KVM guest (Intel Xeon, 2.0 GHz); three such
   measurements gave 0.0817, 0.0863 and 0.0866 s. *)
let nominal_s = 0.085

let rounds = 3
let keys_per_round = 25_000

let kernel () =
  let table = Hashtbl.create 4096 in
  let seed = ref 0x2545F491 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed
  in
  let checksum = ref 0 in
  for _ = 1 to rounds do
    let states =
      Array.init keys_per_round (fun _ ->
          let x = next () in
          [| x land 0x3F; (x lsr 6) land 0x3F; (x lsr 12) land 0xF; x lsr 24 |])
    in
    Array.iter
      (fun s ->
         let id =
           match Hashtbl.find_opt table s with
           | Some id -> id
           | None ->
             let id = Hashtbl.length table in
             Hashtbl.add table s id;
             id
         in
         checksum := !checksum + id)
      states;
    Array.sort compare states;
    checksum := !checksum + states.(0).(0)
  done;
  !checksum

(* What the [calib] subcommand prints: the seconds of two runs of the
   kernel in this fresh process. *)
let repeats = 2

let run () =
  print_endline
    (String.concat " "
       (List.init repeats (fun _ ->
            let checksum, seconds = Clock.time kernel in
            ignore (Sys.opaque_identity checksum);
            Printf.sprintf "%.9f" seconds)))
