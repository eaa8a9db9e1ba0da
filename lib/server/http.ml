type meth = GET | POST | Other of string

type version = [ `Http_1_0 | `Http_1_1 ]

type request = {
  meth : meth;
  target : string;
  path : string;
  query : (string * string) list;
  version : version;
  headers : (string * string) list;
  body : string;
}

type limits = { max_line : int; max_headers : int; max_body : int }

let default_limits =
  { max_line = 8192; max_headers = 64; max_body = 1024 * 1024 }

type error = { status : int; reason : string }

exception Fail of error

let fail status fmt =
  Printf.ksprintf (fun reason -> raise (Fail { status; reason })) fmt

(* ------------------------------------------------------------------ *)
(* Reader: a refillable buffer over an abstract byte source. *)

type reader = {
  read : bytes -> int -> int -> int;
  buf : Buffer.t;  (* bytes received but not yet consumed *)
  chunk : bytes;
  limits : limits;
  mutable eof : bool;
}

let reader ?(limits = default_limits) read =
  { read; buf = Buffer.create 1024; chunk = Bytes.create 4096; limits;
    eof = false }

let of_string ?limits s =
  let pos = ref 0 in
  reader ?limits (fun b off len ->
      let n = Stdlib.min len (String.length s - !pos) in
      Bytes.blit_string s !pos b off n;
      pos := !pos + n;
      n)

(* Pull one chunk from the source into the buffer; false on EOF. *)
let refill r =
  if r.eof then false
  else begin
    let n = try r.read r.chunk 0 (Bytes.length r.chunk) with _ -> 0 in
    if n <= 0 then begin
      r.eof <- true;
      false
    end
    else begin
      Buffer.add_subbytes r.buf r.chunk 0 n;
      true
    end
  end

(* Take [n] buffered bytes off the front. *)
let consume r n =
  let s = Buffer.sub r.buf 0 n in
  let rest = Buffer.sub r.buf n (Buffer.length r.buf - n) in
  Buffer.clear r.buf;
  Buffer.add_string r.buf rest;
  s

let find_newline r from =
  let contents = Buffer.contents r.buf in
  String.index_from_opt contents from '\n'

(* One line, terminated by LF (CRLF stripped).  [None] on EOF with an
   empty buffer; EOF mid-line or an overlong line raise. *)
let read_line r =
  let rec go from =
    match find_newline r from with
    | Some i ->
      if i + 1 > r.limits.max_line then
        fail 431 "header line exceeds %d bytes" r.limits.max_line;
      let line = consume r (i + 1) in
      let len = String.length line in
      let len = if len >= 2 && line.[len - 2] = '\r' then len - 2 else len - 1 in
      Some (String.sub line 0 len)
    | None ->
      if Buffer.length r.buf > r.limits.max_line then
        fail 431 "header line exceeds %d bytes" r.limits.max_line;
      let from = Buffer.length r.buf in
      if refill r then go from
      else if Buffer.length r.buf = 0 then None
      else fail 400 "connection closed mid-line"
  in
  go 0

let read_exact r n =
  while Buffer.length r.buf < n && refill r do () done;
  if Buffer.length r.buf < n then fail 400 "connection closed mid-body";
  consume r n

(* ------------------------------------------------------------------ *)
(* Tokens. *)

let lowercase = String.lowercase_ascii

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let percent_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
     | '%' when !i + 2 < n && hex_val s.[!i + 1] >= 0 && hex_val s.[!i + 2] >= 0
       ->
       Buffer.add_char b
         (Char.chr ((hex_val s.[!i + 1] * 16) + hex_val s.[!i + 2]));
       i := !i + 2
     | '+' -> Buffer.add_char b ' '
     | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_query qs =
  if qs = "" then []
  else
    String.split_on_char '&' qs
    |> List.filter_map (fun pair ->
        if pair = "" then None
        else
          match String.index_opt pair '=' with
          | None -> Some (percent_decode pair, "")
          | Some i ->
            Some
              ( percent_decode (String.sub pair 0 i),
                percent_decode
                  (String.sub pair (i + 1) (String.length pair - i - 1)) ))

let split_target target =
  match String.index_opt target '?' with
  | None -> (percent_decode target, [])
  | Some i ->
    ( percent_decode (String.sub target 0 i),
      parse_query (String.sub target (i + 1) (String.length target - i - 1)) )

let parse_version = function
  | "HTTP/1.1" -> `Http_1_1
  | "HTTP/1.0" -> `Http_1_0
  | v -> fail 505 "unsupported protocol version %S" v

let parse_method = function
  | "GET" -> GET
  | "POST" -> POST
  | m ->
    if m = "" || String.exists (fun c -> c <= ' ' || c > '~') m then
      fail 400 "malformed method"
    else Other m

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ m; target; version ] when target <> "" ->
    (parse_method m, target, parse_version version)
  | _ -> fail 400 "malformed request line %S" (String.escaped line)

let parse_header_line line =
  match String.index_opt line ':' with
  | None | Some 0 -> fail 400 "malformed header line %S" (String.escaped line)
  | Some i ->
    let name = String.sub line 0 i in
    if String.exists (fun c -> c <= ' ' || c > '~') name then
      fail 400 "malformed header name %S" (String.escaped name);
    (lowercase name, String.trim (String.sub line (i + 1) (String.length line - i - 1)))

let read_headers r =
  let rec go acc count =
    match read_line r with
    | None -> fail 400 "connection closed inside headers"
    | Some "" -> List.rev acc
    | Some line ->
      if count >= r.limits.max_headers then
        fail 431 "more than %d headers" r.limits.max_headers;
      go (parse_header_line line :: acc) (count + 1)
  in
  go [] 0

let assoc_header name headers = List.assoc_opt (lowercase name) headers

let read_body r headers =
  (match assoc_header "transfer-encoding" headers with
   | Some _ -> fail 501 "transfer encodings are not supported"
   | None -> ());
  match assoc_header "content-length" headers with
  | None -> ""
  | Some v ->
    (match int_of_string_opt (String.trim v) with
     | Some n when n >= 0 ->
       if n > r.limits.max_body then
         fail 413 "body of %d bytes exceeds the %d-byte limit" n
           r.limits.max_body;
       read_exact r n
     | Some _ | None -> fail 400 "malformed content-length %S" v)

(* ------------------------------------------------------------------ *)
(* Requests. *)

let read_request r =
  match read_line r with
  | None -> `Eof
  | Some line ->
    (try
       let meth, target, version = parse_request_line line in
       let headers = read_headers r in
       let body = read_body r headers in
       let path, query = split_target target in
       `Request { meth; target; path; query; version; headers; body }
     with Fail e -> `Error e)
  | exception Fail e -> `Error e

let header req name = assoc_header name req.headers

let keep_alive req =
  match Option.map lowercase (header req "connection") with
  | Some "close" -> false
  | Some "keep-alive" -> true
  | Some _ | None -> req.version = `Http_1_1

(* ------------------------------------------------------------------ *)
(* Responses. *)

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | 505 -> "HTTP Version Not Supported"
  | _ -> "Response"

let response ?(headers = []) ?(content_type = "application/json")
    ?(keep_alive = true) ~status ~body () =
  let b = Buffer.create (256 + String.length body) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_reason status));
  Buffer.add_string b (Printf.sprintf "Content-Type: %s\r\n" content_type);
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  Buffer.add_string b
    (if keep_alive then "Connection: keep-alive\r\n"
     else "Connection: close\r\n");
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Client side. *)

type response_msg = {
  status : int;
  reason_phrase : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let resp_header resp name = assoc_header name resp.resp_headers

let parse_status_line line =
  match String.split_on_char ' ' line with
  | version :: status :: rest ->
    ignore (parse_version version);
    (match int_of_string_opt status with
     | Some s when s >= 100 && s <= 599 -> (s, String.concat " " rest)
     | Some _ | None -> fail 400 "malformed status %S" status)
  | _ -> fail 400 "malformed status line %S" (String.escaped line)

let read_response r =
  match read_line r with
  | None -> `Eof
  | Some line ->
    (try
       let status, reason_phrase = parse_status_line line in
       let headers = read_headers r in
       let body = read_body r headers in
       `Response { status; reason_phrase; resp_headers = headers;
                   resp_body = body }
     with Fail e -> `Error e)
  | exception Fail e -> `Error e

type url = { host : string; port : int; target : string }

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && lowercase (String.sub s 0 (String.length prefix)) = prefix

(* A run of decimal digits naming a port in 1-65535.  [int_of_string]
   alone would also take a sign, [0x]/[0o]/[0b] prefixes and [_]
   separators, and a port past 65535 would wrap at the socket. *)
let parse_port p =
  let digits =
    p <> "" && String.for_all (fun c -> c >= '0' && c <= '9') p
  in
  match if digits then int_of_string_opt p else None with
  | Some n when n >= 1 && n <= 65535 -> Some n
  | Some _ | None -> None

let parse_url s =
  let s = String.trim s in
  if starts_with ~prefix:"https://" s then
    Error "https URLs are not supported"
  else
    let rest =
      if starts_with ~prefix:"http://" s then
        String.sub s 7 (String.length s - 7)
      else s
    in
    let hostport, target =
      match String.index_opt rest '/' with
      | None -> (rest, "/")
      | Some i ->
        (String.sub rest 0 i, String.sub rest i (String.length rest - i))
    in
    let host, port =
      match String.index_opt hostport ':' with
      | None -> (hostport, Ok 80)
      | Some i ->
        let p =
          String.sub hostport (i + 1) (String.length hostport - i - 1)
        in
        ( String.sub hostport 0 i,
          match parse_port p with
          | Some n -> Ok n
          | None ->
            Error
              (Printf.sprintf
                 "bad port %S in URL %S: expected a decimal number in \
                  1-65535" p s) )
    in
    match port with
    | _ when host = "" -> Error (Printf.sprintf "no host in URL %S" s)
    | Error e -> Error e
    | Ok port -> Ok { host; port; target }

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  (try
     while !off < len do
       let n = Unix.write_substring fd s !off (len - !off) in
       if n = 0 then off := len else off := !off + n
     done
   with Unix.Unix_error _ -> ())

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect ?recv_timeout url =
  let addr =
    try Unix.inet_addr_of_string url.host
    with Failure _ -> (Unix.gethostbyname url.host).Unix.h_addr_list.(0)
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (addr, url.port))
   with e ->
     close_quietly fd;
     raise e);
  Option.iter
    (fun s ->
       try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
       with Unix.Unix_error _ -> ())
    recv_timeout;
  let read buf off len =
    try Unix.read fd buf off len with Unix.Unix_error _ -> 0
  in
  (fd, reader read)

let render_request url ?(meth = "GET") ?(body = "")
    ?(content_length = String.length body) target =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
  Buffer.add_string buf (Printf.sprintf "Host: %s:%d\r\n" url.host url.port);
  if body <> "" || meth <> "GET" then begin
    Buffer.add_string buf "Content-Type: application/json\r\n";
    Buffer.add_string buf
      (Printf.sprintf "Content-Length: %d\r\n" content_length)
  end;
  Buffer.add_string buf "Connection: keep-alive\r\n\r\n";
  Buffer.add_string buf body;
  Buffer.contents buf

module Conn = struct
  type t = { url : url; mutable conn : (Unix.file_descr * reader) option }

  let create url = { url; conn = None }

  let close t =
    Option.iter (fun (fd, _) -> close_quietly fd) t.conn;
    t.conn <- None

  let ensure t =
    match t.conn with
    | Some c -> c
    | None ->
      let c = connect t.url in
      t.conn <- Some c;
      c

  let once t ~meth ~body target =
    match ensure t with
    | exception e -> Error (Printexc.to_string e)
    | fd, rd ->
      write_all fd (render_request t.url ~meth ~body target);
      (match read_response rd with
       | `Response r ->
         if resp_header r "connection" = Some "close" then close t;
         Ok r
       | `Eof ->
         close t;
         Error "server closed the connection"
       | `Error e ->
         close t;
         Error (Printf.sprintf "bad response: %s" e.reason))

  let request t ?(meth = "GET") ?(body = "") target =
    let reused = t.conn <> None in
    match once t ~meth ~body target with
    | Ok _ as ok -> ok
    | Error _ when reused ->
      (* The server recycled the kept-alive connection under us (its
         per-connection request bound); one fresh retry is the
         keep-alive contract, not error hiding. *)
      close t;
      once t ~meth ~body target
    | Error _ as e -> e
end
