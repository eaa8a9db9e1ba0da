(* Linear probing over a power-of-two slot count, kept at most half
   full.  [slot_idx.(s)] is the index of the key in slot [s] ([-1] when
   the slot is empty) and [slot_hash.(s)] its full hash; the slot is
   chosen from the hash's high bits after a Fibonacci multiply, so keys
   whose hashes differ only in high bits (or are small consecutive
   ints) still spread. *)

type 'k t = {
  equal : 'k -> 'k -> bool;
  hash : 'k -> int;
  mutable bits : int;  (** log2 of the slot count *)
  mutable slot_hash : int array;
  mutable slot_idx : int array;
  mutable keys : 'k array;  (** key [i] at [i]; grown on demand *)
  mutable size : int;
  hint : int;  (** the length of [keys] once the first key arrives *)
}

let slots_for n =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  !bits

let create ~equal ~hash n =
  let bits = slots_for n in
  { equal; hash; bits;
    slot_hash = Array.make (1 lsl bits) 0;
    slot_idx = Array.make (1 lsl bits) (-1);
    keys = [||];
    size = 0;
    hint = Int.max 16 n }

let length t = t.size
let capacity t = Array.length t.keys

let trim t =
  if Array.length t.keys > t.size then t.keys <- Array.sub t.keys 0 t.size

(* The 64-bit golden-ratio constant cut to an OCaml int (it stays
   odd): multiplying by it mixes every bit of the hash into the high
   bits, which pick the slot. *)
let home bits h = (h * 0x1E37_79B9_7F4A_7C15) lsr (Sys.int_size - bits)

(* The slot holding [k], or the empty slot where it would go. *)
let probe t k h =
  let mask = (1 lsl t.bits) - 1 in
  let rec go s =
    let i = Array.unsafe_get t.slot_idx s in
    if i < 0 then s
    else if Array.unsafe_get t.slot_hash s = h && t.equal k t.keys.(i) then s
    else go ((s + 1) land mask)
  in
  go (home t.bits h)

let find t k =
  let h = t.hash k in
  t.slot_idx.(probe t k h)

let key t i =
  if i < 0 || i >= t.size then invalid_arg "Funtbl.key: index out of range";
  t.keys.(i)

(* Doubles the slot arrays and re-homes every index by its stored
   hash: no key is hashed or compared again. *)
let grow t =
  let old_hash = t.slot_hash and old_idx = t.slot_idx in
  t.bits <- t.bits + 1;
  let mask = (1 lsl t.bits) - 1 in
  t.slot_hash <- Array.make (1 lsl t.bits) 0;
  t.slot_idx <- Array.make (1 lsl t.bits) (-1);
  Array.iteri
    (fun s i ->
       if i >= 0 then begin
         let h = old_hash.(s) in
         let s = ref (home t.bits h) in
         while t.slot_idx.(!s) >= 0 do
           s := (!s + 1) land mask
         done;
         t.slot_hash.(!s) <- h;
         t.slot_idx.(!s) <- i
       end)
    old_idx

let push_key t k =
  if t.size = Array.length t.keys then begin
    let keys = Array.make (if t.size = 0 then t.hint else 2 * t.size) k in
    Array.blit t.keys 0 keys 0 t.size;
    t.keys <- keys
  end;
  t.keys.(t.size) <- k

let find_or_add t k admit =
  let h = t.hash k in
  let s = probe t k h in
  let i = t.slot_idx.(s) in
  if i >= 0 then i
  else begin
    let i = t.size in
    admit i;
    push_key t k;
    t.slot_hash.(s) <- h;
    t.slot_idx.(s) <- i;
    t.size <- i + 1;
    if 2 * t.size > 1 lsl t.bits then grow t;
    i
  end
