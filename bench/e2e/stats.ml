let rank ~pct n = ((pct * n) + 99) / 100

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile ~pct xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(Int.max 1 (Int.min n (rank ~pct n)) - 1)

let beyond ~pct n = n - rank ~pct n

(* ln Gamma(x), Lanczos approximation (g = 7, 9 terms), with the
   reflection formula below 1/2. *)
let lanczos =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec lgamma x =
  if x < 0.5 then log (Float.pi /. Float.abs (sin (Float.pi *. x))) -. lgamma (1. -. x)
  else begin
    let x = x -. 1. in
    let sum = ref lanczos.(0) in
    for i = 1 to 8 do
      sum := !sum +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !sum
  end

(* The continued fraction of the incomplete beta function, by the
   modified Lentz method. *)
let betacf a b x =
  let tiny = 1e-300 in
  let clamp v = if Float.abs v < tiny then tiny else v in
  let c = ref 1. and d = ref (1. /. clamp (1. -. ((a +. b) *. x /. (a +. 1.)))) in
  let h = ref !d in
  let m = ref 1 and converged = ref false in
  while (not !converged) && !m <= 1000 do
    let fm = float_of_int !m in
    let step aa =
      d := 1. /. clamp (1. +. (aa *. !d));
      c := clamp (1. +. (aa /. !c));
      !d *. !c
    in
    h := !h *. step (fm *. (b -. fm) *. x /. ((a +. (2. *. fm) -. 1.) *. (a +. (2. *. fm))));
    let delta =
      step (-.(a +. fm) *. (a +. b +. fm) *. x /. ((a +. (2. *. fm)) *. (a +. (2. *. fm) +. 1.)))
    in
    h := !h *. delta;
    if Float.abs (delta -. 1.) < 1e-15 then converged := true;
    incr m
  done;
  !h

(* The regularized incomplete beta function I_x(a, b). *)
let betai a b x =
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    let front =
      exp (lgamma (a +. b) -. lgamma a -. lgamma b +. (a *. log x) +. (b *. log (1. -. x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. betacf a b x /. a
    else 1. -. (front *. betacf b a (1. -. x) /. b)

let harrell_davis ~pct xs =
  let q = float_of_int pct /. 100. in
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.harrell_davis: no samples";
  let alpha = q *. float_of_int (n + 1) and beta = (1. -. q) *. float_of_int (n + 1) in
  let cdf i = betai alpha beta (float_of_int i /. float_of_int n) in
  let sum = ref 0. and prev = ref 0. in
  for i = 1 to n do
    let c = cdf i in
    sum := !sum +. (a.(i - 1) *. (c -. !prev));
    prev := c
  done;
  !sum

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* statistics.quantiles, method="exclusive", n=4: the cut point i sits
   at position i*(len+1)/4 of the sorted data, interpolated between the
   two neighbouring samples and clamped to the inner positions. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: needs two samples";
  let m = ld + 1 in
  let cut i =
    let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 2, cut 3)

let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. median xs

let fast xs = harrell_davis ~pct:25 xs
let factor ~nominal calibs = nominal /. fast calibs
let normalize ~factor raw = raw *. factor
let normalize_rate ~factor raw = raw /. factor
