type t = { headers : string list; mutable rows : string list list }

let create headers = { headers; rows = [] }

let row t cells =
  let n = List.length t.headers in
  let len = List.length cells in
  let cells =
    if len = n then cells
    else if len < n then cells @ List.init (n - len) (fun _ -> "")
    else List.filteri (fun i _ -> i < n) cells
  in
  t.rows <- cells :: t.rows

(* Visible width: count UTF-8 code points rather than bytes, so arrows
   and set symbols in predicate names do not break the alignment.
   (Code points are a fine approximation here: the symbols we print are
   all single-width.) *)
let width s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then acc
    else begin
      let c = Char.code s.[i] in
      let skip =
        if c < 0x80 then 1
        else if c < 0xE0 then 2
        else if c < 0xF0 then 3
        else 4
      in
      go (i + skip) (acc + 1)
    end
  in
  go 0 0

let to_string t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell ->
         if i < ncols && width cell > widths.(i) then
           widths.(i) <- width cell))
    all;
  let buf = Buffer.create 256 in
  let emit cells =
    List.iteri
      (fun i cell ->
         if i > 0 then Buffer.add_string buf "  ";
         Buffer.add_string buf cell;
         Buffer.add_string buf (String.make (widths.(i) - width cell) ' '))
      cells;
    Buffer.add_char buf '\n'
  in
  emit t.headers;
  emit
    (List.init ncols (fun i -> String.make widths.(i) '-'));
  List.iter emit rows;
  Buffer.contents buf

let print t = print_string (to_string t)
