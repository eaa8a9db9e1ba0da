(* 32 bits per word: an index splits by shifts alone, and every word
   is a non-negative OCaml int on 64-bit hosts.  Bits past [n] in the
   last word are zero, so word-wise comparisons need no mask. *)
type t = { n : int; words : int array }

let full = 0xFFFF_FFFF

(* Each word is gathered in a register and stored once. *)
let init n f =
  let words = Array.make ((n + 31) lsr 5) 0 in
  for k = 0 to Array.length words - 1 do
    let base = k lsl 5 in
    let w = ref 0 in
    for b = 0 to Int.min 31 (n - 1 - base) do
      if f (base + b) then w := !w lor (1 lsl b)
    done;
    words.(k) <- !w
  done;
  { n; words }

let length s = s.n

let mem s i = (s.words.(i lsr 5) lsr (i land 31)) land 1 = 1

let first_absent s =
  let k = ref 0 and nw = Array.length s.words in
  while !k < nw && s.words.(!k) = full do
    incr k
  done;
  let i = ref (!k lsl 5) in
  while !i < s.n && mem s !i do
    incr i
  done;
  if !i < s.n then Some !i else None

let same_universe what a b =
  if a.n <> b.n then
    invalid_arg
      (Printf.sprintf "Bitset.%s: universes of %d and %d indices" what a.n b.n)

let union a b =
  same_universe "union" a b;
  { n = a.n; words = Array.map2 ( lor ) a.words b.words }

let subset a b =
  same_universe "subset" a b;
  let k = ref 0 and nw = Array.length a.words in
  while !k < nw && a.words.(!k) land lnot b.words.(!k) = 0 do
    incr k
  done;
  !k = nw

let equal a b =
  a.n = b.n
  &&
  let k = ref 0 and nw = Array.length a.words in
  while !k < nw && a.words.(!k) = b.words.(!k) do
    incr k
  done;
  !k = nw

let of_bools a = init (Array.length a) (Array.get a)

let to_bools s =
  let a = Array.make s.n false in
  for i = 0 to s.n - 1 do
    if mem s i then a.(i) <- true
  done;
  a
