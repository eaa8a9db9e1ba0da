let magic = "prtba/1\n"

(* "len:bytes" framing, as in lib/cert's node hashing: unambiguous for
   arbitrary payloads (Marshal blobs included) and cheap to parse. *)
let enc buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let encode sections =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  List.iter
    (fun (name, payload) ->
       enc buf name;
       enc buf payload)
    sections;
  (* The seal covers every byte before it, magic included, so version
     skew, a truncation and a one-byte tamper all surface as the same
     named refusal. *)
  let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  enc buf "digest";
  enc buf digest;
  Buffer.contents buf

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* The one "len:bytes" frame reader.  It walks offsets in place: a
   cursor over the whole input, a length prefix read as a canonical
   decimal, and the payload left where it is for the caller to parse
   or copy.  Each caller names its own failures. *)
type frame_error =
  | Unterminated  (* the input ends inside the length prefix *)
  | Prefix_too_long
  | Bad_prefix  (* not the canonical decimal of a length *)
  | Missing of int  (* payload bytes past the end of the input *)

exception Frame of frame_error

(* The bytes [pos .. stop - 1] of [s] are left to read. *)
type cursor = { s : string; mutable pos : int; stop : int }

let rec find_colon c start i =
  if i >= c.stop then raise (Frame Unterminated)
  else if String.unsafe_get c.s i = ':' then i
  else if i - start > 12 then raise (Frame Prefix_too_long)
  else find_colon c start (i + 1)

(* Reads the frame at the cursor and leaves the cursor after it; the
   payload runs from the returned offset to the cursor. *)
let frame c =
  let colon = find_colon c c.pos c.pos in
  let n =
    match Proba.Decimal.parse c.s c.pos (colon - c.pos) with
    | Some n when n >= 0 -> n
    | Some _ | None -> raise (Frame Bad_prefix)
  in
  let stop = colon + 1 + n in
  if stop > c.stop then raise (Frame (Missing (stop - c.stop)));
  c.pos <- stop;
  colon + 1

(* Frames inside a section payload: any framing fault is one of two
   named refusals. *)
let inner_frame what c =
  try frame c with
  | Frame (Missing _) -> corrupt "%s frame: truncated" what
  | Frame (Unterminated | Prefix_too_long | Bad_prefix) ->
    corrupt "%s frame: bad length prefix" what

let check_magic bytes =
  let m = String.length magic in
  if String.length bytes >= m && String.sub bytes 0 m = magic then ()
  else if String.length bytes >= 6 && String.sub bytes 0 6 = "prtba/" then
    let version =
      match String.index_opt bytes '\n' with
      | Some i when i <= 32 -> String.sub bytes 0 i
      | Some _ | None ->
        String.sub bytes 0 (Stdlib.min 32 (String.length bytes))
    in
    corrupt "unsupported snapshot version %S (this reader understands %S)"
      version (String.trim magic)
  else corrupt "not a prtba snapshot (bad magic)"

type span = { src : string; ofs : int; len : int }

let span_to_string sp = String.sub sp.src sp.ofs sp.len

let cursor sp = { s = sp.src; pos = sp.ofs; stop = sp.ofs + sp.len }

let whole s = { src = s; ofs = 0; len = String.length s }

let decode_spans bytes =
  try
    check_magic bytes;
    let len = String.length bytes in
    let c = { s = bytes; pos = String.length magic; stop = len } in
    let read_framed what =
      match frame c with
      | start -> { src = bytes; ofs = start; len = c.pos - start }
      | exception Frame Unterminated ->
        corrupt "truncated snapshot (%s: unterminated length prefix)" what
      | exception Frame Prefix_too_long ->
        corrupt "corrupt snapshot (%s: length prefix too long)" what
      | exception Frame Bad_prefix ->
        corrupt "corrupt snapshot (%s: bad length prefix)" what
      | exception Frame (Missing k) ->
        corrupt "truncated snapshot (%s: %d payload bytes missing)" what k
    in
    let sections = ref [] in
    let sealed = ref false in
    while not !sealed do
      if c.pos >= len then corrupt "truncated snapshot (no trailing digest)";
      let before = c.pos in
      let name = span_to_string (read_framed "section name") in
      let payload = read_framed (Printf.sprintf "section %S" name) in
      if name = "digest" then begin
        let payload = span_to_string payload in
        if c.pos <> len then
          corrupt "corrupt snapshot (%d trailing bytes after the digest)"
            (len - c.pos);
        let computed = Digest.to_hex (Digest.substring bytes 0 before) in
        if not (String.equal computed payload) then
          corrupt
            "snapshot digest mismatch (stored %s, computed %s): truncated \
             or tampered"
            payload computed;
        sealed := true
      end
      else sections := (name, payload) :: !sections
    done;
    Ok (List.rev !sections)
  with Corrupt msg -> Error msg

let decode bytes =
  Result.map
    (List.map (fun (name, sp) -> (name, span_to_string sp)))
    (decode_spans bytes)

(* ------------------------------------------------------------------ *)
(* Scalar-array payloads. *)

let ints_to_string arr =
  let buf = Buffer.create (8 * Array.length arr) in
  Array.iteri
    (fun i x ->
       if i > 0 then Buffer.add_char buf ',';
       Proba.Decimal.add buf x)
    arr;
  Buffer.contents buf

let rec next_comma s i last =
  if i < last && String.unsafe_get s i <> ',' then next_comma s (i + 1) last
  else i

let commas s ofs last =
  let k = ref 0 in
  for i = ofs to last - 1 do
    if String.unsafe_get s i = ',' then incr k
  done;
  !k

let ints_of_span { src = s; ofs; len } =
  let last = ofs + len in
  if len = 0 then Ok [||]
  else begin
    let arr = Array.make (commas s ofs last + 1) 0 in
    let rec go k pos =
      let stop = next_comma s pos last in
      match Proba.Decimal.parse s pos (stop - pos) with
      | None ->
        Error (Printf.sprintf "bad integer %S" (String.sub s pos (stop - pos)))
      | Some x ->
        arr.(k) <- x;
        if stop = last then Ok arr else go (k + 1) (stop + 1)
    in
    go 0 ofs
  end

let ints_of_string s = ints_of_span (whole s)

let bools_to_string arr =
  String.init (Array.length arr) (fun i -> if arr.(i) then '1' else '0')

let bools_of_span { src = s; ofs; len = n } =
  let arr = Array.make n false in
  let rec go i =
    if i >= n then Ok arr
    else
      match s.[ofs + i] with
      | '1' ->
        arr.(i) <- true;
        go (i + 1)
      | '0' -> go (i + 1)
      | c -> Error (Printf.sprintf "bad boolean character %C" c)
  in
  go 0

let bools_of_string s = bools_of_span (whole s)

let strs_to_string lst =
  let buf = Buffer.create 256 in
  List.iter (fun s -> enc buf s) lst;
  Buffer.contents buf

let strs_of_string s =
  try
    let c = cursor (whole s) in
    let acc = ref [] in
    while c.pos < c.stop do
      let start = inner_frame "string" c in
      acc := String.sub s start (c.pos - start) :: !acc
    done;
    Ok (List.rev !acc)
  with Corrupt msg -> Error msg

(* Each weight is rendered once into [wire], so its length prefix is
   known before its bytes are copied. *)
let rats_to_string arr =
  let buf = Buffer.create (8 * Array.length arr) in
  let wire = Buffer.create 32 in
  Array.iter
    (fun q ->
       Buffer.clear wire;
       Proba.Rational.add_wire wire q;
       Proba.Decimal.add buf (Buffer.length wire);
       Buffer.add_char buf ':';
       Buffer.add_buffer buf wire)
    arr;
  Buffer.contents buf

(* Two walks over the frames: the first counts them and refuses bad
   framing, so a framing fault is named before any bad weight; the
   second parses each weight where it lies. *)
let rats_of_span sp =
  let s = sp.src in
  try
    let c = cursor sp in
    let count = ref 0 in
    while c.pos < c.stop do
      ignore (inner_frame "rational" c);
      incr count
    done;
    c.pos <- sp.ofs;
    let arr = Array.make !count Proba.Rational.zero in
    for k = 0 to !count - 1 do
      let start = frame c in
      let len = c.pos - start in
      match Proba.Rational.of_wire_sub s start len with
      | Ok q -> arr.(k) <- q
      | Error e -> corrupt "bad rational %S: %s" (String.sub s start len) e
    done;
    Ok arr
  with Corrupt msg -> Error msg

let rats_of_string s = rats_of_span (whole s)
