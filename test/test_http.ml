(* Tests for the server's HTTP layer: request parsing over an
   in-memory reader -- truncated input, oversized lines/headers/bodies,
   pipelined keep-alive, malformed request lines -- all mapping to
   clean 4xx/5xx parse errors, never an exception; plus the
   response-side round trip and the client's strict URL parser. *)

module H = Server.Http

let request r =
  match H.read_request r with
  | `Request req -> req
  | `Eof -> Alcotest.fail "unexpected EOF"
  | `Error e -> Alcotest.failf "unexpected parse error %d %s" e.H.status e.H.reason

let error r =
  match H.read_request r with
  | `Error e -> e
  | `Request req -> Alcotest.failf "unexpected request %s" req.H.target
  | `Eof -> Alcotest.fail "unexpected EOF"

let eof r =
  match H.read_request r with
  | `Eof -> ()
  | `Request req -> Alcotest.failf "unexpected request %s" req.H.target
  | `Error e -> Alcotest.failf "unexpected error %d %s" e.H.status e.H.reason

(* ------------------------------------------------------------------ *)

let test_simple_get () =
  let r =
    H.of_string
      "GET /check?model=lr&n=3 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n"
  in
  let req = request r in
  Alcotest.(check bool) "GET" true (req.H.meth = H.GET);
  Alcotest.(check string) "path" "/check" req.H.path;
  Alcotest.(check (list (pair string string)))
    "query" [ ("model", "lr"); ("n", "3") ] req.H.query;
  Alcotest.(check (option string)) "host header" (Some "x")
    (H.header req "host");
  Alcotest.(check string) "empty body" "" req.H.body;
  eof r

let test_post_body () =
  let r =
    H.of_string
      "POST /check HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"model\":\"lr\"}"
  in
  (* 13 bytes of a 14-byte payload: framing follows Content-Length *)
  let req = request r in
  Alcotest.(check bool) "POST" true (req.H.meth = H.POST);
  Alcotest.(check string) "body" "{\"model\":\"lr\"" req.H.body

let test_percent_decoding () =
  let r = H.of_string "GET /lint?target=example%3Arace&x=a%20b HTTP/1.1\r\n\r\n" in
  let req = request r in
  Alcotest.(check (list (pair string string)))
    "decoded" [ ("target", "example:race"); ("x", "a b") ] req.H.query

let test_pipelined_keep_alive () =
  let r =
    H.of_string
      ("GET /health HTTP/1.1\r\n\r\n"
       ^ "POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
       ^ "GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
  in
  let a = request r in
  Alcotest.(check string) "first" "/health" a.H.path;
  Alcotest.(check bool) "keep-alive default (1.1)" true (H.keep_alive a);
  let b = request r in
  Alcotest.(check string) "second" "/x" b.H.path;
  Alcotest.(check string) "second body" "hi" b.H.body;
  let c = request r in
  Alcotest.(check string) "third" "/stats" c.H.path;
  Alcotest.(check bool) "connection: close" false (H.keep_alive c);
  eof r

let test_http10_keep_alive () =
  let r = H.of_string "GET / HTTP/1.0\r\n\r\n" in
  Alcotest.(check bool) "1.0 defaults to close" false
    (H.keep_alive (request r));
  let r =
    H.of_string "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
  in
  Alcotest.(check bool) "1.0 + keep-alive header" true
    (H.keep_alive (request r))

(* ------------------------------------------------------------------ *)
(* Errors. *)

let test_truncated_mid_request () =
  (* EOF inside the header block is a 400, not a clean EOF. *)
  List.iter
    (fun doc ->
       let e = error (H.of_string doc) in
       Alcotest.(check int) (Printf.sprintf "%S -> 400" doc) 400 e.H.status)
    [ "GET /x HTT"; "GET /x HTTP/1.1\r\n"; "GET /x HTTP/1.1\r\nHost: y";
      "GET /x HTTP/1.1\r\nHost: y\r\n" ];
  (* EOF inside a declared body is a 400 too. *)
  let e =
    error (H.of_string "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
  in
  Alcotest.(check int) "short body -> 400" 400 e.H.status

let test_malformed_request_lines () =
  List.iter
    (fun doc ->
       let e = error (H.of_string (doc ^ "\r\n\r\n")) in
       Alcotest.(check int) (Printf.sprintf "%S -> 400" doc) 400 e.H.status)
    [ "GET"; "GET /x"; "/x HTTP/1.1"; "GET  HTTP/1.1"; "" ];
  let e = error (H.of_string "GET /x HTTP/2.0\r\n\r\n") in
  Alcotest.(check int) "unsupported version -> 505" 505 e.H.status

let test_header_without_colon () =
  let e = error (H.of_string "GET /x HTTP/1.1\r\nnocolon\r\n\r\n") in
  Alcotest.(check int) "400" 400 e.H.status

let test_oversized_request_line () =
  let doc = "GET /" ^ String.make 9000 'a' ^ " HTTP/1.1\r\n\r\n" in
  let e = error (H.of_string doc) in
  Alcotest.(check int) "431" 431 e.H.status

let test_oversized_header_line () =
  let doc =
    "GET /x HTTP/1.1\r\nX-Big: " ^ String.make 9000 'b' ^ "\r\n\r\n"
  in
  let e = error (H.of_string doc) in
  Alcotest.(check int) "431" 431 e.H.status

let test_too_many_headers () =
  let headers =
    String.concat ""
      (List.init 100 (fun i -> Printf.sprintf "X-H%d: v\r\n" i))
  in
  let e = error (H.of_string ("GET /x HTTP/1.1\r\n" ^ headers ^ "\r\n")) in
  Alcotest.(check int) "431" 431 e.H.status

let test_oversized_body () =
  (* Limits fire on the declared length, before any body bytes. *)
  let e =
    error
      (H.of_string "POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
  in
  Alcotest.(check int) "413" 413 e.H.status;
  let e =
    error (H.of_string "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
  in
  Alcotest.(check int) "bad length -> 400" 400 e.H.status

let test_transfer_encoding_rejected () =
  let e =
    error
      (H.of_string
         "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
  in
  Alcotest.(check int) "501" 501 e.H.status

(* Whatever bytes arrive, [read_request] returns a value -- the daemon
   maps errors to a response and closes; an exception here would be a
   worker-killing bug. *)
let fuzz_no_exceptions =
  QCheck.Test.make ~count:1000 ~name:"read_request never raises"
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 200)
              (QCheck.Gen.map Char.chr (QCheck.Gen.int_range 0 255)))
    (fun doc ->
       let r = H.of_string doc in
       match H.read_request r with
       | `Request _ | `Eof | `Error _ -> true
       | exception e ->
         QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e)
           doc)

(* ------------------------------------------------------------------ *)
(* Responses. *)

let test_response_roundtrip () =
  let rendered =
    H.response ~headers:[ ("X-Prtb-Cache", "hit") ] ~keep_alive:true
      ~status:200 ~body:"{\"ok\":true}" ()
  in
  let r = H.of_string rendered in
  (match H.read_response r with
   | `Response m ->
     Alcotest.(check int) "status" 200 m.H.status;
     Alcotest.(check string) "body" "{\"ok\":true}" m.H.resp_body;
     Alcotest.(check (option string)) "extra header" (Some "hit")
       (H.resp_header m "x-prtb-cache");
     Alcotest.(check (option string)) "keep-alive" (Some "keep-alive")
       (H.resp_header m "connection")
   | `Eof -> Alcotest.fail "eof"
   | `Error e -> Alcotest.failf "error %d %s" e.H.status e.H.reason);
  (match H.read_response r with
   | `Eof -> ()
   | _ -> Alcotest.fail "expected clean EOF after one response")

let test_response_close_and_reasons () =
  let rendered = H.response ~keep_alive:false ~status:503 ~body:"x" () in
  let r = H.of_string rendered in
  (match H.read_response r with
   | `Response m ->
     Alcotest.(check int) "status" 503 m.H.status;
     Alcotest.(check (option string)) "close" (Some "close")
       (H.resp_header m "connection")
   | _ -> Alcotest.fail "expected response");
  Alcotest.(check string) "404 reason" "Not Found" (H.status_reason 404);
  Alcotest.(check string) "431 reason" "Request Header Fields Too Large"
    (H.status_reason 431)

(* ------------------------------------------------------------------ *)
(* The client's URL parser: a port is a run of decimal digits in
   1-65535, and every other spelling is refused by name. *)

let test_parse_url_ports () =
  let url port = Printf.sprintf "http://127.0.0.1:%s/health" port in
  List.iter
    (fun (port, expected) ->
       match H.parse_url (url port), expected with
       | Ok u, Some p ->
         Alcotest.(check int) (port ^ " port") p u.H.port;
         Alcotest.(check string) (port ^ " target") "/health"
           u.H.target
       | Error e, None ->
         if not (Astring.String.is_infix ~affix:(Printf.sprintf "%S" port) e)
         then Alcotest.failf "%s: error does not name the port: %s" port e
       | Ok u, None ->
         Alcotest.failf "%s: accepted as port %d" port u.H.port
       | Error e, Some _ -> Alcotest.failf "%s: refused: %s" port e)
    [ ("99999", None); ("-1", None); ("0", None); ("0x1F90", None);
      ("80_80", None); ("+8080", None); ("", None); ("65536", None);
      ("8080", Some 8080); ("1", Some 1); ("65535", Some 65535) ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "http"
    [ ( "parsing",
        [ Alcotest.test_case "simple GET" `Quick test_simple_get;
          Alcotest.test_case "POST body framing" `Quick test_post_body;
          Alcotest.test_case "percent decoding" `Quick
            test_percent_decoding;
          Alcotest.test_case "pipelined keep-alive" `Quick
            test_pipelined_keep_alive;
          Alcotest.test_case "HTTP/1.0 keep-alive" `Quick
            test_http10_keep_alive ] );
      ( "errors",
        [ Alcotest.test_case "truncated mid-request" `Quick
            test_truncated_mid_request;
          Alcotest.test_case "malformed request lines" `Quick
            test_malformed_request_lines;
          Alcotest.test_case "header without colon" `Quick
            test_header_without_colon;
          Alcotest.test_case "oversized request line" `Quick
            test_oversized_request_line;
          Alcotest.test_case "oversized header line" `Quick
            test_oversized_header_line;
          Alcotest.test_case "too many headers" `Quick
            test_too_many_headers;
          Alcotest.test_case "oversized body" `Quick test_oversized_body;
          Alcotest.test_case "transfer-encoding rejected" `Quick
            test_transfer_encoding_rejected;
          QCheck_alcotest.to_alcotest fuzz_no_exceptions ] );
      ( "responses",
        [ Alcotest.test_case "round trip" `Quick test_response_roundtrip;
          Alcotest.test_case "close and reasons" `Quick
            test_response_close_and_reasons ] );
      ( "load-url",
        [ Alcotest.test_case "ports" `Quick test_parse_url_ports ] ) ]
