(* Canonical rationals: positive denominator, coprime numerator.

   Two-tier representation.  Values whose canonical numerator and
   denominator both fit in a native [int] (as witnessed by
   [Bigint.to_int]) are carried unboxed as [S (num, den)] and computed
   with overflow-checked native arithmetic; everything else lives on the
   [Bigint] path.  The representation is itself canonical -- a value
   representable as [S] is never built as [B], and [min_int] (whose
   magnitude exceeds [max_int]) is banished to the big path -- so
   structural equality, hashing and pattern matching on the constructor
   all remain meaningful, and [equal]/[hash]/[compare] are
   allocation-free whenever both operands are small.  Paper-sized
   probabilities (1/2, 1/8, 7/4096, ...) never leave the small path. *)

type t =
  | S of int * int  (* den > 0, gcd(|num|, den) = 1, neither is min_int *)
  | B of Bigint.t * Bigint.t  (* canonical; some component exceeds int *)

(* ------------------------------------------------------------------ *)
(* Overflow-checked native arithmetic. *)

(* [add_checked a b] is [Some (a + b)] unless the exact sum overflows:
   overflow flips the result sign away from both same-signed operands. *)
let add_checked a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then None else Some s

let lim31 = 1 lsl 31

(* [mul_checked a b] is [Some (a * b)] when the exact product is
   representable.  Operands with magnitude below [2^31] multiply
   directly; otherwise the wrapped product is validated by division,
   which is exact because a wrapped product is off by a multiple of
   [2^63], far more than [|b|].  [min_int] operands are rejected
   outright (their magnitude breaks the division check). *)
let mul_checked a b =
  if a > -lim31 && a < lim31 && b > -lim31 && b < lim31 then Some (a * b)
  else if a = 0 || b = 0 then Some 0
  else if a = min_int || b = min_int then None
  else begin
    let p = a * b in
    if p / b = a then Some p else None
  end

(* Positive-operand Euclid. *)
let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* ------------------------------------------------------------------ *)
(* Constructors.  All of them establish the canonical form and pick the
   cheapest representation that holds it. *)

(* Demote an already-canonical bigint fraction to the small tier when it
   fits.  [Bigint.to_int] never returns [min_int], so [S] components are
   always strictly above [min_int]. *)
let demote num den =
  match Bigint.to_int num, Bigint.to_int den with
  | Some n, Some d -> S (n, d)
  | (Some _ | None), _ -> B (num, den)

let big num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then S (0, 1)
  else begin
    let num, den =
      if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den)
      else (num, den)
    in
    let g = Bigint.gcd num den in
    if Bigint.equal g Bigint.one then demote num den
    else demote (Bigint.div num g) (Bigint.div den g)
  end

let make num den = big num den

(* Canonicalize a native fraction; only [min_int] components need the
   big path (their absolute value overflows). *)
let small n d =
  if d = 0 then raise Division_by_zero;
  if n = 0 then S (0, 1)
  else if n = min_int || d = min_int then
    big (Bigint.of_int n) (Bigint.of_int d)
  else begin
    let n, d = if d < 0 then (-n, -d) else (n, d) in
    let g = gcd_int d (abs n) in
    if g = 1 then S (n, d) else S (n / g, d / g)
  end

(* A coprime pair with positive denominator, as produced by the
   cross-reduced product: only the [min_int] corner needs rerouting. *)
let small_coprime n d =
  if n = min_int then B (Bigint.of_int n, Bigint.of_int d) else S (n, d)

let of_ints a b = small a b

let of_int n = if n = min_int then B (Bigint.of_int n, Bigint.one) else S (n, 1)

let of_bigint n = demote n Bigint.one

let zero = S (0, 1)
let one = S (1, 1)
let two = S (2, 1)
let half = S (1, 2)

let num = function S (n, _) -> Bigint.of_int n | B (n, _) -> n
let den = function S (_, d) -> Bigint.of_int d | B (_, d) -> d

let to_bigints = function
  | S (n, d) -> (Bigint.of_int n, Bigint.of_int d)
  | B (n, d) -> (n, d)

let to_float = function
  | S (n, d) -> float_of_int n /. float_of_int d
  | B (n, d) -> Bigint.to_float n /. Bigint.to_float d

(* ------------------------------------------------------------------ *)
(* Comparisons. *)

let sign = function S (n, _) -> compare n 0 | B (n, _) -> Bigint.sign n

let compare_big a b =
  let an, ad = to_bigints a and bn, bd = to_bigints b in
  if Bigint.equal ad bd then Bigint.compare an bn
  else begin
    let sa = Bigint.sign an and sb = Bigint.sign bn in
    if sa <> sb then Stdlib.compare sa sb
    else Bigint.compare (Bigint.mul an bd) (Bigint.mul bn ad)
  end

let compare a b =
  match a, b with
  | S (an, ad), S (bn, bd) ->
    if ad = bd then Stdlib.compare an bn
    else begin
      let sa = Stdlib.compare an 0 and sb = Stdlib.compare bn 0 in
      if sa <> sb then Stdlib.compare sa sb
      else
        (match mul_checked an bd, mul_checked bn ad with
         | Some x, Some y -> Stdlib.compare x y
         | (Some _ | None), _ -> compare_big a b)
    end
  | (S _ | B _), _ -> compare_big a b

let equal a b =
  match a, b with
  | S (an, ad), S (bn, bd) -> an = bn && ad = bd
  | B (an, ad), B (bn, bd) -> Bigint.equal an bn && Bigint.equal ad bd
  | S _, B _ | B _, S _ -> false

let hash = function
  | S (n, d) -> (n * 65599) lxor d
  | B (n, d) -> (Bigint.hash n * 65599) lxor Bigint.hash d

let is_zero = function S (n, _) -> n = 0 | B _ -> false
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let leq a b = compare a b <= 0
let lt a b = compare a b < 0
let geq a b = compare a b >= 0
let gt a b = compare a b > 0

(* ------------------------------------------------------------------ *)
(* Arithmetic. *)

let neg = function
  | S (n, d) -> S (-n, d)
  | B (n, d) -> B (Bigint.neg n, d)

let abs = function
  | S (n, d) -> S (Stdlib.abs n, d)
  | B (n, d) -> B (Bigint.abs n, d)

let add_big a b =
  let an, ad = to_bigints a and bn, bd = to_bigints b in
  big
    (Bigint.add (Bigint.mul an bd) (Bigint.mul bn ad))
    (Bigint.mul ad bd)

let add a b =
  match a, b with
  | S (0, _), _ -> b
  | _, S (0, _) -> a
  | S (an, ad), S (bn, bd) ->
    if ad = bd then
      (match add_checked an bn with
       | Some n -> small n ad
       | None -> add_big a b)
    else
      (match mul_checked an bd, mul_checked bn ad, mul_checked ad bd with
       | Some x, Some y, Some d ->
         (match add_checked x y with
          | Some n -> small n d
          | None -> add_big a b)
       | (Some _ | None), _, _ -> add_big a b)
  | (S _ | B _), _ -> add_big a b

let sub a b = add a (neg b)

let mul_big_reduced an ad bn bd =
  big
    (Bigint.mul (Bigint.of_int an) (Bigint.of_int bn))
    (Bigint.mul (Bigint.of_int ad) (Bigint.of_int bd))

let mul a b =
  match a, b with
  | S (0, _), _ | _, S (0, _) -> zero
  | S (an, ad), S (bn, bd) ->
    (* Cross-reduce before multiplying: with gcd(an,ad) = gcd(bn,bd) = 1,
       dividing out gcd(an,bd) and gcd(bn,ad) leaves a coprime result,
       so no gcd of full products is ever computed. *)
    let g1 = gcd_int bd (Stdlib.abs an) in
    let g2 = gcd_int ad (Stdlib.abs bn) in
    let an = an / g1 and bd = bd / g1 in
    let bn = bn / g2 and ad = ad / g2 in
    (match mul_checked an bn, mul_checked ad bd with
     | Some n, Some d -> small_coprime n d
     | (Some _ | None), _ -> mul_big_reduced an ad bn bd)
  | (S _ | B _), _ ->
    let an, ad = to_bigints a and bn, bd = to_bigints b in
    big (Bigint.mul an bn) (Bigint.mul ad bd)

let inv = function
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n > 0 then S (d, n) else S (-d, -n)
  | B (n, d) ->
    if Bigint.sign n < 0 then demote (Bigint.neg d) (Bigint.neg n)
    else demote d n

let div a b = mul a (inv b)

let rec pow_pos x n =
  if n = 1 then x
  else begin
    let h = pow_pos (mul x x) (n / 2) in
    if n land 1 = 1 then mul x h else h
  end

let pow x n =
  if n = 0 then one
  else if n > 0 then pow_pos x n
  else inv (pow_pos x (-n))

let mul_int x n = mul x (of_int n)

let is_probability x = sign x >= 0 && leq x one

let sum xs = List.fold_left add zero xs

(* ------------------------------------------------------------------ *)
(* Printing and parsing. *)

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | B (n, d) ->
    if Bigint.equal d Bigint.one then Bigint.to_string n
    else Bigint.to_string n ^ "/" ^ Bigint.to_string d

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    let a = Bigint.of_string (String.sub s 0 i) in
    let b = Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make a b
  | None ->
    (match String.index_opt s '.' with
     | None -> of_bigint (Bigint.of_string s)
     | Some i ->
       let whole = String.sub s 0 i in
       let frac = String.sub s (i + 1) (String.length s - i - 1) in
       if frac = "" then invalid_arg "Rational.of_string: empty fraction";
       let negative = String.length whole > 0 && whole.[0] = '-' in
       let whole_v =
         if whole = "" || whole = "-" || whole = "+" then Bigint.zero
         else Bigint.of_string whole
       in
       let scale = Bigint.pow (Bigint.of_int 10) (String.length frac) in
       let frac_v = Bigint.of_string frac in
       if Bigint.sign frac_v < 0 then
         invalid_arg "Rational.of_string: malformed decimal";
       let mag =
         Bigint.add (Bigint.mul (Bigint.abs whole_v) scale) frac_v
       in
       let signed = if negative then Bigint.neg mag else mag in
       make signed scale)

let pp fmt x = Format.pp_print_string fmt (to_string x)

(* ------------------------------------------------------------------ *)
(* Wire encoding.

   The canonical rendering doubles as the wire form of certificate
   weights: exact at any magnitude (the Bigint tier prints and parses
   losslessly), and *unique* -- [of_wire] accepts exactly the strings
   [to_wire] emits, so "2/4", "1/-2", "+1/2", "0.5" and other aliases
   of an encoded value are rejected rather than silently normalized.
   Uniqueness is what lets an independent verifier treat certificate
   bytes as authoritative: re-rendering a parsed weight reproduces the
   input bytes or the parse fails. *)

let to_wire = to_string

let add_wire buf = function
  | S (n, 1) -> Decimal.add buf n
  | S (n, d) ->
    Decimal.add buf n;
    Buffer.add_char buf '/';
    Decimal.add buf d
  | B _ as q -> Buffer.add_string buf (to_string q)

(* The general reader: parse any spelling, then accept only if
   re-rendering reproduces the input. *)
let of_wire_general s =
  let plausible =
    (* cheap shape gate so [of_string]'s decimal branch and exotic
       accepted spellings never reach the expensive parse *)
    s <> ""
    && String.for_all
         (fun c -> (c >= '0' && c <= '9') || c = '/' || c = '-')
         s
  in
  if not plausible then
    Error (Printf.sprintf "malformed rational %S" s)
  else
    match of_string s with
    | q when String.equal (to_string q) s -> Ok q
    | _ -> Error (Printf.sprintf "non-canonical rational %S" s)
    | exception _ -> Error (Printf.sprintf "malformed rational %S" s)

let rec find_slash s i stop =
  if i < stop && s.[i] <> '/' then find_slash s (i + 1) stop
  else i

(* The small tier reads the wire of an [S] value in native ints: ["n"]
   with [n <> min_int], or ["n/d"] with [d > 1] and [gcd(|n|, d) = 1],
   each component spelled as [string_of_int] spells it.  Those are
   exactly the canonical renderings of [S] values, so the result needs
   no re-rendering; every other byte sequence, canonical or not, goes
   to the general reader, which owns every refusal. *)
let of_wire_sub s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Rational.of_wire_sub";
  let stop = pos + len in
  let slash = find_slash s pos stop in
  match Decimal.parse s pos (slash - pos) with
  | Some n when n <> min_int && slash = stop -> Ok (S (n, 1))
  | Some n when n <> min_int -> (
      match Decimal.parse s (slash + 1) (stop - slash - 1) with
      | Some d when d > 1 && gcd_int d (Stdlib.abs n) = 1 -> Ok (S (n, d))
      | Some _ | None -> of_wire_general (String.sub s pos len))
  | Some _ | None -> of_wire_general (String.sub s pos len)

let of_wire s = of_wire_sub s 0 (String.length s)
