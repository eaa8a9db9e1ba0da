(* xoshiro256++ seeded via SplitMix64.  Both algorithms are public
   domain (Blackman & Vigna); implemented here directly on Int64. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64;
           mutable s3 : int64 }

let ( +% ) = Int64.add
let ( *% ) = Int64.mul
let ( ^% ) = Int64.logxor

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* SplitMix64 step: advances the given state cell, returns next output. *)
let splitmix_next state =
  state := !state +% 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = (z ^% Int64.shift_right_logical z 30) *% 0xBF58476D1CE4E5B9L in
  let z = (z ^% Int64.shift_right_logical z 27) *% 0x94D049BB133111EBL in
  z ^% Int64.shift_right_logical z 31

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix_next state in
  let s1 = splitmix_next state in
  let s2 = splitmix_next state in
  let s3 = splitmix_next state in
  { s0; s1; s2; s3 }

let copy r = { s0 = r.s0; s1 = r.s1; s2 = r.s2; s3 = r.s3 }

let bits64 r =
  let result = rotl (r.s0 +% r.s3) 23 +% r.s0 in
  let t = Int64.shift_left r.s1 17 in
  r.s2 <- r.s2 ^% r.s0;
  r.s3 <- r.s3 ^% r.s1;
  r.s1 <- r.s1 ^% r.s2;
  r.s0 <- r.s0 ^% r.s3;
  r.s2 <- r.s2 ^% t;
  r.s3 <- rotl r.s3 45;
  result

let split r =
  let state = ref (bits64 r) in
  let s0 = splitmix_next state in
  let s1 = splitmix_next state in
  let s2 = splitmix_next state in
  let s3 = splitmix_next state in
  { s0; s1; s2; s3 }

let int r bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let range = Int64.of_int bound in
  let limit = Int64.sub (Int64.div 0x3FFF_FFFF_FFFF_FFFFL range) 1L in
  let threshold = Int64.mul (Int64.add limit 1L) range in
  let rec draw () =
    let v = Int64.shift_right_logical (bits64 r) 2 in
    if Int64.unsigned_compare v threshold < 0 then
      Int64.to_int (Int64.rem v range)
    else draw ()
  in
  draw ()

let float r =
  let v = Int64.shift_right_logical (bits64 r) 11 in
  Int64.to_float v *. 0x1.0p-53

let bool r = Int64.logand (bits64 r) 1L = 1L

let pick r xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth xs (int r (List.length xs))
