(* Digits are produced from a non-positive value, so [min_int], whose
   magnitude has no [int], needs no special case: for [x <= 0] and
   [q = x / 10], the digit [10 q - x] lies in [0, 9]. *)
let rec digits buf x =
  let q = x / 10 in
  if q < 0 then digits buf q;
  Buffer.add_char buf (Char.unsafe_chr (48 + (q * 10) - x))

let add buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    digits buf i
  end
  else digits buf (-i)

(* The value accumulates negatively for the same reason; [limit] and
   [last] bound it before each step, so overflow never wraps. *)
let limit = min_int / 10
let last = -(min_int mod 10)

let rec accumulate s i stop negative acc =
  if i = stop then
    if negative then Some acc else if acc = min_int then None else Some (-acc)
  else
    let d = Char.code (String.unsafe_get s i) - 48 in
    if d < 0 || d > 9 || acc < limit || (acc = limit && d > last) then None
    else accumulate s (i + 1) stop negative ((acc * 10) - d)

let parse s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Decimal.parse";
  let stop = pos + len in
  let negative = len > 0 && String.unsafe_get s pos = '-' in
  let first = if negative then pos + 1 else pos in
  if first >= stop then None
  else if String.unsafe_get s first = '0' then
    if len = 1 then Some 0 else None
  else accumulate s first stop negative 0
