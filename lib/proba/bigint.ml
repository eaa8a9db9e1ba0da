(* Arbitrary-precision integers over base-2^30 little-endian limb arrays.
   The magnitude is canonical (no leading zero limbs); zero has an empty
   magnitude and sign 0.  Limb products fit in native 63-bit ints. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Magnitude helpers.  A magnitude is a little-endian [int array] with
   limbs in [0, base) and no trailing (most-significant) zeros. *)

let mag_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else
      if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1)
    in
    go (la - 1)
  end

let mag_is_zero a = Array.length a = 0

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  assert (!carry = 0);
  mag_normalize r

(* Requires [mag_compare a b >= 0]. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let da = a.(i) in
    let db = if i < lb then b.(i) else 0 in
    let s = da - db - !borrow in
    if s < 0 then begin r.(i) <- s + base; borrow := 1 end
    else begin r.(i) <- s; borrow := 0 end
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    mag_normalize r
  end

let mag_bit_length a =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width n = if top lsr n = 0 then n else width (n + 1) in
    ((la - 1) * base_bits) + width 0
  end

let mag_bit a i =
  let limb = i / base_bits and off = i mod base_bits in
  if limb >= Array.length a then 0 else (a.(limb) lsr off) land 1

(* Binary long division on magnitudes: returns (quotient, remainder).
   Magnitudes in this library stay small (a handful of limbs), so the
   O(bits * limbs) shift-and-subtract algorithm is simple and fast
   enough; its correctness is also easy to check by property tests. *)
let mag_divmod a b =
  if mag_is_zero b then raise Division_by_zero;
  if mag_compare a b < 0 then ([||], a)
  else begin
    let nbits = mag_bit_length a in
    let qlimbs = (nbits + base_bits - 1) / base_bits in
    let q = Array.make qlimbs 0 in
    (* Mutable remainder with spare room. *)
    let r = Array.make (Array.length a + 1) 0 in
    let rlen = ref 0 in
    let r_shift_in bit =
      (* r := r*2 + bit *)
      let carry = ref bit in
      for i = 0 to !rlen - 1 do
        let s = (r.(i) lsl 1) lor !carry in
        r.(i) <- s land mask;
        carry := s lsr base_bits
      done;
      if !carry <> 0 then begin r.(!rlen) <- !carry; incr rlen end
    in
    let r_ge_b () =
      let lb = Array.length b in
      if !rlen <> lb then !rlen > lb
      else begin
        let rec go i = if i < 0 then true else
          if r.(i) <> b.(i) then r.(i) > b.(i) else go (i - 1)
        in
        go (!rlen - 1)
      end
    in
    let r_sub_b () =
      let lb = Array.length b in
      let borrow = ref 0 in
      for i = 0 to !rlen - 1 do
        let db = if i < lb then b.(i) else 0 in
        let s = r.(i) - db - !borrow in
        if s < 0 then begin r.(i) <- s + base; borrow := 1 end
        else begin r.(i) <- s; borrow := 0 end
      done;
      while !rlen > 0 && r.(!rlen - 1) = 0 do decr rlen done
    in
    for i = nbits - 1 downto 0 do
      r_shift_in (mag_bit a i);
      if r_ge_b () then begin
        r_sub_b ();
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
    done;
    (mag_normalize q, mag_normalize (Array.sub r 0 !rlen))
  end

(* ------------------------------------------------------------------ *)
(* Construction and conversions. *)

let make sign mag =
  let mag = mag_normalize mag in
  if mag_is_zero mag then zero else { sign; mag }

let rec of_int n =
  if n = 0 then zero
  else if n = min_int then
    (* [-min_int] overflows; go through [min_int = 2 * (min_int / 2)]. *)
    let half = of_int (n / 2) in
    { half with mag = mag_mul half.mag [| 2 |] }
  else begin
    let sign = if n < 0 then -1 else 1 in
    let u = abs n in
    if u < base then { sign; mag = [| u |] }
    else if u < base * base then { sign; mag = [| u land mask; u lsr base_bits |] }
    else
      { sign;
        mag =
          [| u land mask; (u lsr base_bits) land mask;
             u lsr (2 * base_bits) |] }
  end

let one = of_int 1
let two = of_int 2

let to_int x =
  match Array.length x.mag with
  | 0 -> Some 0
  | 1 -> Some (x.sign * x.mag.(0))
  | 2 -> Some (x.sign * (x.mag.(0) lor (x.mag.(1) lsl base_bits)))
  | 3 ->
    let hi = x.mag.(2) in
    if hi lsr (62 - 2 * base_bits) <> 0 then None
    else begin
      let u =
        x.mag.(0) lor (x.mag.(1) lsl base_bits) lor (hi lsl (2 * base_bits))
      in
      if u < 0 then None else Some (x.sign * u)
    end
  | _ -> None

let to_float x =
  let acc = ref 0.0 in
  for i = Array.length x.mag - 1 downto 0 do
    acc := (!acc *. float_of_int base) +. float_of_int x.mag.(i)
  done;
  float_of_int x.sign *. !acc

(* ------------------------------------------------------------------ *)
(* Comparisons. *)

let sign x = x.sign
let is_zero x = x.sign = 0

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else a.sign * mag_compare a.mag b.mag

let equal a b = compare a b = 0

let hash x =
  Array.fold_left (fun acc limb -> (acc * 1000003) lxor limb) x.sign x.mag

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* ------------------------------------------------------------------ *)
(* Arithmetic. *)

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (mag_add a.mag b.mag)
  else begin
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (mag_sub a.mag b.mag)
    else make b.sign (mag_sub b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mag_mul a.mag b.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = mag_divmod a.mag b.mag in
  (make (a.sign * b.sign) q, make a.sign r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd_mag a b =
  if mag_is_zero b then a
  else begin
    let _, r = mag_divmod a b in
    gcd_mag b r
  end

let gcd a b = make 1 (gcd_mag (abs a).mag (abs b).mag)

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else begin
      let acc = if n land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (n lsr 1)
    end
  in
  go one x n

let mul_int x n = mul x (of_int n)
let add_int x n = add x (of_int n)

let bit_length x = mag_bit_length x.mag

let shift_left x k =
  if k < 0 then invalid_arg "Bigint.shift_left: negative shift";
  if x.sign = 0 || k = 0 then x
  else begin
    let limbs = k / base_bits and off = k mod base_bits in
    let la = Array.length x.mag in
    let r = Array.make (la + limbs + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (x.mag.(i) lsl off) lor !carry in
      r.(i + limbs) <- v land mask;
      carry := v lsr base_bits
    done;
    r.(la + limbs) <- !carry;
    make x.sign r
  end

let shift_right x k =
  if k < 0 then invalid_arg "Bigint.shift_right: negative shift";
  if x.sign = 0 || k = 0 then x
  else begin
    let limbs = k / base_bits and off = k mod base_bits in
    let la = Array.length x.mag in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = x.mag.(i + limbs) lsr off in
        let hi =
          if off > 0 && i + limbs + 1 < la then
            (x.mag.(i + limbs + 1) lsl (base_bits - off)) land mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
      make x.sign r
    end
  end

let is_even x = Array.length x.mag = 0 || x.mag.(0) land 1 = 0

let trailing_zeros x =
  let la = Array.length x.mag in
  if la = 0 then 0
  else begin
    let limb = ref 0 in
    while x.mag.(!limb) = 0 do incr limb done;
    let v = x.mag.(!limb) in
    let rec low_bit n = if (v lsr n) land 1 = 1 then n else low_bit (n + 1) in
    (!limb * base_bits) + low_bit 0
  end

(* ------------------------------------------------------------------ *)
(* Decimal I/O. *)

let ten_9 = of_int 1_000_000_000

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec chunks acc v =
      if v.sign = 0 then acc
      else begin
        let q, r = divmod v ten_9 in
        chunks (Option.get (to_int r) :: acc) q
      end
    in
    match chunks [] (abs x) with
    | [] -> "0"
    | first :: rest ->
      if x.sign < 0 then Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int first);
      let add_chunk c = Buffer.add_string buf (Printf.sprintf "%09d" c) in
      List.iter add_chunk rest;
      Buffer.contents buf
  end

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= n then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then
      invalid_arg (Printf.sprintf "Bigint.of_string: bad character %C" c);
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if negative then neg !acc else !acc

let pp fmt x = Format.pp_print_string fmt (to_string x)
