type url = { host : string; port : int; target : string }

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.lowercase_ascii (String.sub s 0 (String.length prefix)) = prefix

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

(* ------------------------------------------------------------------ *)
(* A single keep-alive connection. *)

module Conn = struct
  type t = {
    url : url;
    mutable fd : Unix.file_descr option;
    mutable rd : Http.reader option;
  }

  let create url = { url; fd = None; rd = None }

  let resolve host =
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)

  let close t =
    (match t.fd with
     | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
     | None -> ());
    t.fd <- None;
    t.rd <- None

  let ensure t =
    match (t.fd, t.rd) with
    | Some fd, Some rd -> (fd, rd)
    | _ ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (resolve t.url.host, t.url.port))
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      let read buf off len =
        try Unix.read fd buf off len with Unix.Unix_error _ -> 0
      in
      let rd = Http.reader read in
      t.fd <- Some fd;
      t.rd <- Some rd;
      (fd, rd)

  let render t ~meth ~body target =
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
    Buffer.add_string buf
      (Printf.sprintf "Host: %s:%d\r\n" t.url.host t.url.port);
    if body <> "" || meth <> "GET" then begin
      Buffer.add_string buf "Content-Type: application/json\r\n";
      Buffer.add_string buf
        (Printf.sprintf "Content-Length: %d\r\n" (String.length body))
    end;
    Buffer.add_string buf "Connection: keep-alive\r\n\r\n";
    Buffer.add_string buf body;
    Buffer.contents buf

  let once t ~meth ~body target =
    match ensure t with
    | exception e -> Error (Printexc.to_string e)
    | fd, rd ->
      write_all fd (render t ~meth ~body target);
      (match Http.read_response rd with
       | `Response r ->
         (match Http.resp_header r "connection" with
          | Some "close" -> close t
          | Some _ | None -> ());
         Ok r
       | `Eof ->
         close t;
         Error "server closed the connection"
       | `Error e ->
         close t;
         Error (Printf.sprintf "bad response: %s" e.Http.reason))

  let request t ?(meth = "GET") ?(body = "") target =
    let reused = t.fd <> None in
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

(* ------------------------------------------------------------------ *)
(* The generator. *)

type result = {
  clients : int;
  requests : int;
  ok : int;
  rejected : int;
  retries : int;
  http_errors : int;
  protocol_errors : int;
  duration_s : float;
  throughput_rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) idx))

(* The advisory backoff from a 503: the server's Retry-After seconds
   when present and parseable, else an exponential base.  Jitter
   desynchronizes the retrying clients (each worker's deterministic
   generator), and a hard cap keeps a stuck server from stretching the
   run unboundedly. *)
let backoff_delay rng ~attempt retry_after =
  let base =
    match retry_after with
    | Some s -> s
    | None -> 0.05 *. Float.of_int (1 lsl Stdlib.min attempt 6)
  in
  let jitter = 0.5 +. (0.5 *. Proba.Rng.float rng) in
  Stdlib.min 5.0 (base *. jitter)

let retry_after_s (r : Http.response_msg) =
  match Http.resp_header r "retry-after" with
  | None -> None
  | Some v -> Option.map float_of_int (int_of_string_opt (String.trim v))

(* The /batch body for the mixed workload: [b] copies of the single
   query, each as an object carrying the target's path as its
   ["endpoint"] and its query-string pairs as fields.  Built once per
   run; the POST body is byte-identical across clients. *)
let batch_body url b =
  let module J = Analysis.Json in
  let path, qs =
    match String.index_opt url.target '?' with
    | None -> (url.target, "")
    | Some i ->
      ( String.sub url.target 0 i,
        String.sub url.target (i + 1) (String.length url.target - i - 1) )
  in
  let item =
    J.Obj
      (("endpoint", J.Str path)
       :: List.map (fun (k, v) -> (k, J.Str v)) (Http.parse_query qs))
  in
  J.to_string (J.Obj [ ("queries", J.Arr (List.init b (fun _ -> item))) ])

let run ?(max_retries = 0) ?batch url ~clients ~requests =
  if clients < 1 then invalid_arg "Load.run: clients must be positive";
  if requests < 1 then invalid_arg "Load.run: requests must be positive";
  if max_retries < 0 then
    invalid_arg "Load.run: max_retries must be nonnegative";
  (match batch with
   | Some b when b < 1 -> invalid_arg "Load.run: batch must be positive"
   | Some _ | None -> ());
  let batched = Option.map (batch_body url) batch in
  let share idx =
    (requests / clients) + if idx < requests mod clients then 1 else 0
  in
  let worker idx () =
    let conn = Conn.create url in
    let rng = Proba.Rng.create ~seed:(0x10ad + idx) in
    let ok = ref 0 and rejected = ref 0 and retries = ref 0 in
    let http = ref 0 and proto = ref 0 in
    let lats = ref [] in
    for r = 1 to share idx do
      (* One logical request: its latency is the whole retry chain, so
         backpressure shows up in the percentiles rather than
         disappearing into averaged-out quick 503s.  In batch mode
         every other logical request is a POST /batch of the same
         query, exercising both paths in one run. *)
      let meth, body, target =
        match batched with
        | Some body when r mod 2 = 0 -> ("POST", body, "/batch")
        | Some _ | None -> ("GET", "", url.target)
      in
      let t0 = Unix.gettimeofday () in
      let rec attempt k =
        match Conn.request conn ~meth ~body target with
        | Ok r when
            r.Http.status = 503 && k < max_retries ->
          incr retries;
          Unix.sleepf (backoff_delay rng ~attempt:k (retry_after_s r));
          attempt (k + 1)
        | Ok r ->
          lats := ((Unix.gettimeofday () -. t0) *. 1000.0) :: !lats;
          if r.Http.status >= 200 && r.Http.status < 300 then incr ok
          else if r.Http.status = 503 then incr rejected
          else incr http
        | Error _ -> incr proto
      in
      attempt 0
    done;
    Conn.close conn;
    (!ok, !rejected, !retries, !http, !proto, !lats)
  in
  let t0 = Unix.gettimeofday () in
  let spawned = List.init clients (fun i -> Domain.spawn (worker i)) in
  let parts = List.map Domain.join spawned in
  let duration_s = Unix.gettimeofday () -. t0 in
  let ok = List.fold_left (fun a (x, _, _, _, _, _) -> a + x) 0 parts in
  let rejected =
    List.fold_left (fun a (_, x, _, _, _, _) -> a + x) 0 parts
  in
  let retries =
    List.fold_left (fun a (_, _, x, _, _, _) -> a + x) 0 parts
  in
  let http_errors =
    List.fold_left (fun a (_, _, _, x, _, _) -> a + x) 0 parts
  in
  let protocol_errors =
    List.fold_left (fun a (_, _, _, _, x, _) -> a + x) 0 parts
  in
  let lats =
    Array.of_list (List.concat_map (fun (_, _, _, _, _, l) -> l) parts)
  in
  Array.sort compare lats;
  { clients;
    requests;
    ok;
    rejected;
    retries;
    http_errors;
    protocol_errors;
    duration_s;
    throughput_rps =
      (if duration_s > 0.0 then float_of_int requests /. duration_s else 0.0);
    p50_ms = percentile lats 0.50;
    p95_ms = percentile lats 0.95;
    p99_ms = percentile lats 0.99;
    max_ms = (if Array.length lats = 0 then 0.0 else lats.(Array.length lats - 1))
  }

let pp ppf r =
  Format.fprintf ppf
    "@[<v>clients          %8d@,requests         %8d@,ok (2xx)         %8d@,\
     rejected (503)   %8d@,retries (503)    %8d@,\
     http errors      %8d@,protocol errors  %8d@,\
     duration         %10.3f s@,throughput       %8.1f req/s@,\
     latency p50      %10.3f ms@,latency p95      %10.3f ms@,\
     latency p99      %10.3f ms@,latency max      %10.3f ms@]"
    r.clients r.requests r.ok r.rejected r.retries r.http_errors
    r.protocol_errors r.duration_s r.throughput_rps r.p50_ms r.p95_ms
    r.p99_ms r.max_ms
