(* A minimal HTTP/1.1 keep-alive client on Unix sockets.  prtb_bench
   carries its own so that the instrument is not the Server.Http and
   Server.Load code it measures.  It speaks exactly what prtb serve
   answers: Content-Length framing, `Connection: close` honoured by
   reconnecting before the next request. *)

type conn = {
  port : int;
  mutable fd : Unix.file_descr option;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

type response = { status : int; body : string }

let create port =
  { port; fd = None; buf = Bytes.create 65536; pos = 0; len = 0 }

let close c =
  (match c.fd with
   | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  c.fd <- None;
  c.pos <- 0;
  c.len <- 0

let connected c =
  match c.fd with
  | Some fd -> fd
  | None ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.TCP_NODELAY true;
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, c.port))
     with e ->
       Unix.close fd;
       raise e);
    c.fd <- Some fd;
    fd

(* The bytes of one request; the in-process replay feeds the daemon's
   parser exactly these. *)
let render ~meth ~target ~body =
  if meth = "GET" then
    Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" target
  else
    Printf.sprintf
      "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
       Content-Length: %d\r\n\r\n%s"
      meth target (String.length body) body

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let fill c fd =
  if c.pos >= c.len then begin
    c.pos <- 0;
    c.len <- Unix.read fd c.buf 0 (Bytes.length c.buf);
    if c.len = 0 then failwith "connection closed by the server"
  end

let read_line c fd =
  let line = Buffer.create 64 in
  let rec loop () =
    fill c fd;
    match Bytes.index_from_opt c.buf c.pos '\n' with
    | Some i when i < c.len ->
      Buffer.add_subbytes line c.buf c.pos (i - c.pos);
      c.pos <- i + 1
    | _ ->
      Buffer.add_subbytes line c.buf c.pos (c.len - c.pos);
      c.pos <- c.len;
      loop ()
  in
  loop ();
  let s = Buffer.contents line in
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let read_body c fd n =
  let body = Bytes.create n in
  let rec loop off =
    if off < n then begin
      fill c fd;
      let k = Int.min (n - off) (c.len - c.pos) in
      Bytes.blit c.buf c.pos body off k;
      c.pos <- c.pos + k;
      loop (off + k)
    end
  in
  loop 0;
  Bytes.unsafe_to_string body

let exchange c ~request =
  let fd = connected c in
  write_all fd request 0;
  let status =
    match String.split_on_char ' ' (read_line c fd) with
    | _ :: code :: _ -> (
        match int_of_string_opt code with
        | Some s -> s
        | None -> failwith "malformed status line")
    | _ -> failwith "malformed status line"
  in
  let rec headers length close =
    match read_line c fd with
    | "" -> (length, close)
    | line -> (
        match String.index_opt line ':' with
        | None -> failwith "malformed header line"
        | Some i ->
          let name = String.lowercase_ascii (String.sub line 0 i) in
          let value =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          if name = "content-length" then
            headers (int_of_string_opt value) close
          else if name = "connection" then
            headers length (String.lowercase_ascii value = "close")
          else headers length close)
  in
  let length, close_after = headers None false in
  let body =
    match length with
    | Some n -> read_body c fd n
    | None -> failwith "response without Content-Length"
  in
  if close_after then close c;
  { status; body }

(* One request; any transport failure closes the connection and comes
   back as [Error]. *)
let request c ~request =
  match exchange c ~request with
  | r -> Ok r
  | exception (Failure msg) ->
    close c;
    Error msg
  | exception Unix.Unix_error (e, fn, _) ->
    close c;
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let get c target = request c ~request:(render ~meth:"GET" ~target ~body:"")
