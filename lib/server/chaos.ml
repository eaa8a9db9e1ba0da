module J = Analysis.Json

type scenario =
  | Trickle
  | Midbody_close
  | Garbage
  | Oversize
  | Idle_keepalive
  | Mixed

let all_scenarios =
  [ Trickle; Midbody_close; Garbage; Oversize; Idle_keepalive; Mixed ]

let scenario_name = function
  | Trickle -> "trickle"
  | Midbody_close -> "midbody-close"
  | Garbage -> "garbage"
  | Oversize -> "oversize"
  | Idle_keepalive -> "idle-keepalive"
  | Mixed -> "mixed"

let scenario_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "trickle" -> Ok Trickle
  | "midbody-close" | "midbody" -> Ok Midbody_close
  | "garbage" -> Ok Garbage
  | "oversize" -> Ok Oversize
  | "idle-keepalive" | "idle" -> Ok Idle_keepalive
  | "mixed" -> Ok Mixed
  | other ->
    Error
      (Printf.sprintf "unknown scenario %S (expected one of: %s)" other
         (String.concat ", " (List.map scenario_name all_scenarios)))

type outcome = {
  scenario : string;
  attempts : int;
  answered : int;
  rejected : int;
  dropped : int;
  failures : string list;
}

type report = {
  outcomes : outcome list;
  health_ok : bool;
  server_errors_delta : int;
  ok : bool;
}

(* ------------------------------------------------------------------ *)
(* Raw-socket plumbing.

   The adversarial scenarios need byte-level control (partial writes,
   abrupt closes), so they hold the socket themselves instead of an
   [Http.Conn]; connecting, writing and request rendering are
   [Http]'s. *)

(* A connection with a client-side receive timeout, so a daemon that
   (incorrectly) goes mute registers as a drop instead of hanging the
   harness. *)
type conn = { fd : Unix.file_descr; rd : Http.reader }

let connect url =
  match Http.connect ~recv_timeout:5.0 url with
  | fd, rd -> Some { fd; rd }
  | exception Unix.Unix_error _ -> None

(* ------------------------------------------------------------------ *)
(* The per-scenario ledger: every attempt ends in exactly one of
   answered / rejected (503) / dropped, so the books balance by
   construction and [reconcile] is a belt-and-braces assertion. *)

type tally = {
  mutable attempts : int;
  mutable answered : int;
  mutable rejected : int;
  mutable dropped : int;
  mutable failures : string list;
}

let tally () =
  { attempts = 0; answered = 0; rejected = 0; dropped = 0; failures = [] }

let fail t fmt =
  Printf.ksprintf (fun m -> t.failures <- m :: t.failures) fmt

(* Read one response and settle the attempt.  [expect] grades the
   status of an answered attempt; a drop (EOF, timeout, unparsable
   response) is legitimate for the abusive scenarios, so it is only a
   failure when [drop_ok] is false. *)
let settle t ?(drop_ok = true) ~expect conn =
  t.attempts <- t.attempts + 1;
  match Http.read_response conn.rd with
  | `Response r ->
    if r.Http.status = 503 then t.rejected <- t.rejected + 1
    else begin
      t.answered <- t.answered + 1;
      match expect r with
      | None -> ()
      | Some msg -> fail t "%s (status %d)" msg r.Http.status
    end;
    Some r
  | `Eof | `Error _ ->
    t.dropped <- t.dropped + 1;
    if not drop_ok then fail t "connection dropped without a response";
    None

let expect_2xx (r : Http.response_msg) =
  if r.Http.status >= 200 && r.Http.status < 300 then None
  else Some "expected a 2xx answer"

let expect_4xx (r : Http.response_msg) =
  if r.Http.status >= 400 && r.Http.status < 500 then None
  else Some "expected a 4xx rejection"

let expect_status want (r : Http.response_msg) =
  if r.Http.status = want then None
  else Some (Printf.sprintf "expected status %d" want)

let not_5xx (r : Http.response_msg) =
  if r.Http.status >= 500 then Some "server errored (5xx) under abuse"
  else None

(* ------------------------------------------------------------------ *)
(* Scenarios.  Each is deterministic given (seed, rounds): all
   randomness flows from one [Proba.Rng] stream per scenario. *)

let garbage_line rng =
  let alphabet =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789#%&'()*+,-./:;<=>?@[]^_`{|}~"
  in
  let len = 10 + Proba.Rng.int rng 190 in
  String.init len (fun _ ->
      alphabet.[Proba.Rng.int rng (String.length alphabet)])

let run_trickle url rng ~rounds t =
  for _ = 1 to rounds do
    match connect url with
    | None -> fail t "connect refused"
    | Some c ->
      let req = Http.render_request url "/health" in
      String.iter
        (fun ch ->
           Http.write_all c.fd (String.make 1 ch);
           (* 0-2 ms between bytes: slow enough to shred the request
              across many reads, fast enough to stay inside any sane
              read timeout. *)
           Unix.sleepf (0.0005 *. float_of_int (Proba.Rng.int rng 4)))
        req;
      ignore (settle t ~drop_ok:false ~expect:expect_2xx c);
      Http.close_quietly c.fd
  done

let run_midbody_close url rng ~rounds t =
  for _ = 1 to rounds do
    match connect url with
    | None -> fail t "connect refused"
    | Some c ->
      let declared = 1024 + Proba.Rng.int rng 4096 in
      let sent = Proba.Rng.int rng 256 in
      Http.write_all c.fd
        (Http.render_request url ~meth:"POST" ~content_length:declared
           "/check");
      Http.write_all c.fd (String.make sent 'x');
      (* Abandon the body mid-flight.  The server reads EOF inside the
         body and must answer 4xx or just drop the connection -- never
         crash, never 2xx, never 5xx. *)
      Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
      ignore (settle t ~expect:expect_4xx c);
      Http.close_quietly c.fd
  done

let run_garbage url rng ~rounds t =
  for _ = 1 to rounds do
    match connect url with
    | None -> fail t "connect refused"
    | Some c ->
      Http.write_all c.fd (garbage_line rng ^ "\r\n\r\n");
      ignore (settle t ~drop_ok:false ~expect:expect_4xx c);
      Http.close_quietly c.fd
  done

let run_oversize url _rng ~rounds t =
  for _ = 1 to rounds do
    match connect url with
    | None -> fail t "connect refused"
    | Some c ->
      (* A request line beyond the 8 KiB limit: must be answered with
         431, not buffered unboundedly. *)
      Http.write_all c.fd
        (Printf.sprintf "GET /%s HTTP/1.1\r\n\r\n" (String.make 9000 'a'));
      ignore (settle t ~drop_ok:false ~expect:(expect_status 431) c);
      Http.close_quietly c.fd
  done

let run_idle_keepalive url ~idle_s ~rounds t =
  for _ = 1 to rounds do
    match connect url with
    | None -> fail t "connect refused"
    | Some c ->
      Http.write_all c.fd (Http.render_request url "/health");
      ignore (settle t ~drop_ok:false ~expect:expect_2xx c);
      (* Park the kept-alive connection.  Depending on how idle_s
         compares to the server's read timeout / connection deadline,
         the follow-up is either answered or cleanly dropped -- both
         fine; a 5xx or a wedged server is not. *)
      Unix.sleepf idle_s;
      Http.write_all c.fd (Http.render_request url "/health");
      ignore (settle t ~expect:not_5xx c);
      Http.close_quietly c.fd
  done

(* Valid and garbage traffic interleaved from concurrent domains; all
   valid answers must be bit-identical (the target computes a
   deterministic body), no matter how much junk arrives next door. *)
let run_mixed url rng ~clients ~rounds t =
  let seeds =
    Array.init clients (fun _ ->
        Int64.to_int (Proba.Rng.bits64 rng) land 0x3FFFFFFF)
  in
  let worker idx () =
    let rng = Proba.Rng.create ~seed:seeds.(idx) in
    let wt = tally () in
    let bodies = ref [] in
    for _ = 1 to rounds do
      match connect url with
      | None -> fail wt "connect refused"
      | Some c ->
        if idx mod 2 = 0 then begin
          Http.write_all c.fd (Http.render_request url url.Http.target);
          match settle wt ~drop_ok:false ~expect:expect_2xx c with
          | Some r when r.Http.status >= 200 && r.Http.status < 300 ->
            bodies := r.Http.resp_body :: !bodies
          | Some _ | None -> ()
        end
        else begin
          Http.write_all c.fd (garbage_line rng ^ "\r\n\r\n");
          ignore (settle wt ~expect:expect_4xx c)
        end;
        Http.close_quietly c.fd
    done;
    (wt, !bodies)
  in
  let parts =
    List.map Domain.join
      (List.init clients (fun i -> Domain.spawn (worker i)))
  in
  let bodies = List.concat_map snd parts in
  List.iter
    (fun (wt, _) ->
       t.attempts <- t.attempts + wt.attempts;
       t.answered <- t.answered + wt.answered;
       t.rejected <- t.rejected + wt.rejected;
       t.dropped <- t.dropped + wt.dropped;
       t.failures <- wt.failures @ t.failures)
    parts;
  match bodies with
  | [] -> fail t "no valid response completed alongside the garbage"
  | first :: rest ->
    if not (List.for_all (String.equal first) rest) then
      fail t "valid responses diverged under concurrent garbage traffic"

(* Refused before any domain or socket exists: a client count past the
   runtime's domain limit would fail after some clients had started. *)
let validate ~clients ~idle_s =
  if clients < 2 || clients > 64 then
    invalid_arg
      (Printf.sprintf "Chaos: --clients must be in 2-64 (got %d)" clients);
  if not (Float.is_finite idle_s && idle_s >= 0.0) then
    invalid_arg
      (Printf.sprintf "Chaos: --idle-s must be a finite number >= 0 (got %g)"
         idle_s)

let run_scenario ?(rounds = 5) ?(clients = 4) ?(idle_s = 1.5) ~seed url
    scenario =
  validate ~clients ~idle_s;
  let rng =
    Proba.Rng.create
      ~seed:(seed + (1 + List.length all_scenarios)
             * (match scenario with
                | Trickle -> 1
                | Midbody_close -> 2
                | Garbage -> 3
                | Oversize -> 4
                | Idle_keepalive -> 5
                | Mixed -> 6))
  in
  let t = tally () in
  (match scenario with
   | Trickle -> run_trickle url rng ~rounds t
   | Midbody_close -> run_midbody_close url rng ~rounds t
   | Garbage -> run_garbage url rng ~rounds t
   | Oversize -> run_oversize url rng ~rounds t
   | Idle_keepalive -> run_idle_keepalive url ~idle_s ~rounds t
   | Mixed -> run_mixed url rng ~clients ~rounds t);
  if t.attempts <> t.answered + t.rejected + t.dropped then
    fail t "ledger out of balance: %d attempts vs %d answered + %d \
            rejected + %d dropped"
      t.attempts t.answered t.rejected t.dropped;
  { scenario = scenario_name scenario;
    attempts = t.attempts;
    answered = t.answered;
    rejected = t.rejected;
    dropped = t.dropped;
    failures = List.rev t.failures }

(* ------------------------------------------------------------------ *)
(* Probing the daemon's own ledger. *)

let get url target =
  match connect url with
  | None -> None
  | Some c ->
    Http.write_all c.fd (Http.render_request url target);
    let r =
      match Http.read_response c.rd with
      | `Response r -> Some r
      | `Eof | `Error _ -> None
    in
    Http.close_quietly c.fd;
    r

let json_of (r : Http.response_msg) =
  match J.of_string r.Http.resp_body with Ok j -> Some j | Error _ -> None

let int_at json path =
  let rec go j = function
    | [] -> (match j with J.Int i -> Some i | _ -> None)
    | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
  in
  go json path

let server_errors url =
  Option.bind (get url "/stats") (fun r ->
      Option.bind (json_of r) (fun j ->
          int_at j [ "server"; "server_errors" ]))

let health_status url =
  Option.bind (get url "/health") (fun r ->
      Option.bind (json_of r) (fun j ->
          match J.member "status" j with
          | Some (J.Str s) -> Some s
          | _ -> None))

let rec await_health_ok url tries =
  match health_status url with
  | Some "ok" -> true
  | _ when tries <= 0 -> false
  | _ ->
    Unix.sleepf 0.2;
    await_health_ok url (tries - 1)

(* ------------------------------------------------------------------ *)
(* The harness. *)

let run ?(scenarios = all_scenarios) ?rounds ?(clients = 4) ?(idle_s = 1.5)
    ~seed url =
  validate ~clients ~idle_s;
  let errors_before = server_errors url in
  let outcomes =
    List.map (run_scenario ?rounds ~clients ~idle_s ~seed url) scenarios
  in
  let errors_after = server_errors url in
  let server_errors_delta =
    match errors_before, errors_after with
    | Some b, Some a -> a - b
    | _ -> -1 (* /stats unreachable: graded as a failure below *)
  in
  let health_ok = await_health_ok url 25 in
  let ok =
    health_ok && server_errors_delta = 0
    && List.for_all (fun (o : outcome) -> o.failures = []) outcomes
  in
  { outcomes; health_ok; server_errors_delta; ok }

let pp_outcome ppf o =
  Format.fprintf ppf "%-15s attempts %4d  answered %4d  rejected %4d  \
                      dropped %4d  %s"
    o.scenario o.attempts o.answered o.rejected o.dropped
    (if o.failures = [] then "ok"
     else Printf.sprintf "FAIL (%d)" (List.length o.failures));
  List.iter (fun f -> Format.fprintf ppf "@,    - %s" f) o.failures

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter (fun o -> Format.fprintf ppf "%a@," pp_outcome o) r.outcomes;
  Format.fprintf ppf "server errors    %s@,"
    (if r.server_errors_delta = 0 then "unchanged"
     else if r.server_errors_delta < 0 then "UNKNOWN (/stats unreachable)"
     else Printf.sprintf "GREW by %d" r.server_errors_delta);
  Format.fprintf ppf "health           %s@,"
    (if r.health_ok then "ok" else "NOT ok");
  Format.fprintf ppf "verdict          %s@]"
    (if r.ok then "chaos survived" else "CHAOS FAILED")
