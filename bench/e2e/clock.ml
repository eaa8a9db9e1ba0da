external now_ns : unit -> int = "prtb_bench_monotonic_ns" [@@noalloc]

let now () = float_of_int (now_ns ()) *. 1e-9
let since t0 = now () -. t0

let time f =
  let t0 = now () in
  let r = f () in
  (r, since t0)
