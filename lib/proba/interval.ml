(* Outward-rounded double intervals.

   An interval [{lo; hi}] encloses an exact real: every operation
   rounds its lower endpoint down and its upper endpoint up, so the
   enclosure is preserved without ever touching exact arithmetic.  A
   *point* interval (lo = hi, finite) pins the enclosed value to
   exactly one rational ([Rational.of_float_exact]).

   OCaml gives no access to the FPU rounding mode, so the directed
   helpers below recover each operation's exact residual
   (2Sum for [+.], [Float.fma] for [*.]) and nudge the result one ulp
   when round-to-nearest went the wrong way.  When the residual is
   exact this yields *correctly rounded* directed results, i.e. point
   intervals whenever the true result is representable — tightness
   matters as much as soundness here, because points are what the
   engines harvest. *)

module Q = Rational

type t = { lo : float; hi : float }

let lo t = t.lo
let hi t = t.hi

(* ------------------------------------------------------------------ *)
(* Directed scalar arithmetic. *)

let min_sub = 0x1p-1074 (* smallest positive subnormal *)

(* Below this magnitude a product's FMA residual may itself round (the
   residual of a near-subnormal product need not be representable), so
   its sign is only trustworthy when it pushes outward. *)
let near_zero = 0x1p-1021

let[@inline] add_down a b =
  let s = a +. b in
  if Float.is_nan s then s
  else if s = infinity then
    (* overflow from finite operands: max_float is a sound lower
       bound; a genuinely infinite operand keeps infinity *)
    if a = infinity || b = infinity then infinity else max_float
  else if s = neg_infinity then neg_infinity
  else begin
    (* 2Sum: [err = a + b - s] exactly (no overflow: |s| finite) *)
    let bv = s -. a in
    let av = s -. bv in
    let err = (a -. av) +. (b -. bv) in
    if err < 0.0 then Float.pred s else s
  end

let[@inline] add_up a b =
  let s = a +. b in
  if Float.is_nan s then s
  else if s = neg_infinity then
    (if a = neg_infinity || b = neg_infinity then neg_infinity
     else -.max_float)
  else if s = infinity then infinity
  else begin
    let bv = s -. a in
    let av = s -. bv in
    let err = (a -. av) +. (b -. bv) in
    if err > 0.0 then Float.succ s else s
  end

let[@inline] mul_down a b =
  let p = a *. b in
  if Float.is_nan p then
    (* 0 * inf: no information, return a sound (infinite) bound *)
    if Float.is_nan a || Float.is_nan b then p else neg_infinity
  else if p = infinity then
    (if Float.is_finite a && Float.is_finite b then max_float else infinity)
  else if p = neg_infinity then neg_infinity
  else if p = 0.0 then
    (* underflow to zero: the true product's magnitude is below
       2^-1075, bound it by one subnormal on the signed side *)
    (if a = 0.0 || b = 0.0 then 0.0
     else if (a > 0.0) = (b > 0.0) then 0.0
     else -.min_sub)
  else begin
    let err = Float.fma a b (-.p) in
    if Float.abs p < near_zero then
      (* inexact residual zone: only trust an outward-pushing sign *)
      (if err > 0.0 then p else Float.pred p)
    else if err < 0.0 then Float.pred p
    else p
  end

let[@inline] mul_up a b =
  let p = a *. b in
  if Float.is_nan p then
    (if Float.is_nan a || Float.is_nan b then p else infinity)
  else if p = neg_infinity then
    (if Float.is_finite a && Float.is_finite b then -.max_float
     else neg_infinity)
  else if p = infinity then infinity
  else if p = 0.0 then
    (if a = 0.0 || b = 0.0 then 0.0
     else if (a > 0.0) = (b > 0.0) then min_sub
     else 0.0)
  else begin
    let err = Float.fma a b (-.p) in
    if Float.abs p < near_zero then
      (if err < 0.0 then p else Float.succ p)
    else if err > 0.0 then Float.succ p
    else p
  end

(* ------------------------------------------------------------------ *)
(* Intervals. *)

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi || lo > hi then
    invalid_arg "Interval.make: empty or nan interval";
  { lo; hi }

let zero = { lo = 0.0; hi = 0.0 }
let one = { lo = 1.0; hi = 1.0 }
let of_rational q = { lo = Q.to_float_down q; hi = Q.to_float_up q }

(* [lo = hi] as floats; both endpoints then denote the same real (the
   only subtlety, -0. = +0., still pins the value 0). *)
let is_point t = t.lo = t.hi

let exact_value t =
  if t.lo = t.hi && Float.is_finite t.lo then Some (Q.of_float_exact t.lo)
  else None

let add x y = { lo = add_down x.lo y.lo; hi = add_up x.hi y.hi }
let neg x = { lo = -.x.hi; hi = -.x.lo }
let sub x y = add x (neg y)

let mul x y =
  let a = x.lo and b = x.hi and c = y.lo and d = y.hi in
  (* general sign handling: extremes over the four endpoint products *)
  let lo =
    Float.min
      (Float.min (mul_down a c) (mul_down a d))
      (Float.min (mul_down b c) (mul_down b d))
  and hi =
    Float.max
      (Float.max (mul_up a c) (mul_up a d))
      (Float.max (mul_up b c) (mul_up b d))
  in
  { lo; hi }

(* min/max are exact componentwise: no rounding, no widening *)
let min x y = { lo = Float.min x.lo y.lo; hi = Float.min x.hi y.hi }
let max x y = { lo = Float.max x.lo y.lo; hi = Float.max x.hi y.hi }

let contains t q =
  (t.lo = neg_infinity || Q.leq (Q.of_float_exact t.lo) q)
  && (t.hi = infinity || Q.leq q (Q.of_float_exact t.hi))

let compare_to t q =
  if Float.is_finite t.hi && Q.lt (Q.of_float_exact t.hi) q then Some (-1)
  else if Float.is_finite t.lo && Q.gt (Q.of_float_exact t.lo) q then Some 1
  else if t.lo = t.hi && Float.is_finite t.lo
          && Q.equal (Q.of_float_exact t.lo) q
  then Some 0
  else None

let width t = t.hi -. t.lo
let equal x y = Float.equal x.lo y.lo && Float.equal x.hi y.hi
let pp fmt t = Format.fprintf fmt "[%.17g, %.17g]" t.lo t.hi
