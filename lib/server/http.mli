(** A minimal HTTP/1.1 message layer for the verification service.

    Implements exactly the fragment [prtb serve] and its clients need
    -- request/response framing with [Content-Length] bodies,
    keep-alive, percent-decoded query strings -- over an abstract
    byte-source, so the parser is testable without sockets and the
    same reader drives both the server and the client side below
    ({!Conn}, [prtb chaos], the tests and the serve benchmarks).

    Deliberately out of scope (requests using them are answered with a
    clean 4xx/501 and the connection is closed, no exception escapes):
    chunked transfer encoding, multiline headers, upgrade, TLS.

    Every input dimension is limited ({!limits}): request-line and
    header-line length, header count, body size.  Exceeding a limit is
    a parse {e error} with the appropriate status (431/413), not a
    crash -- the daemon turns it into a response and closes. *)

type meth = GET | POST | Other of string

type version = [ `Http_1_0 | `Http_1_1 ]

type request = {
  meth : meth;
  target : string;  (** raw request target, e.g. ["/check?model=lr"] *)
  path : string;  (** percent-decoded path without the query string *)
  query : (string * string) list;  (** percent-decoded query pairs *)
  version : version;
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

type limits = {
  max_line : int;  (** request line and each header line, bytes *)
  max_headers : int;  (** header count *)
  max_body : int;  (** body bytes (via [Content-Length]) *)
}

(** 8 KiB lines, 64 headers, 1 MiB bodies. *)
val default_limits : limits

(** What to answer before closing: an HTTP status plus a short
    reason. *)
type error = { status : int; reason : string }

(** {1 Readers} *)

(** A buffered byte source. *)
type reader

(** [reader ?limits read] pulls bytes with [read buf off len] (returning
    [0] for end-of-input, like [Unix.read]). *)
val reader : ?limits:limits -> (bytes -> int -> int -> int) -> reader

(** A reader over a fixed string (tests). *)
val of_string : ?limits:limits -> string -> reader

(** [read_request r] parses the next request off the reader.  [`Eof]
    only when the input ends cleanly {e between} requests; end of input
    mid-request is an [`Error] (400).  Limit violations map to 431
    (line/header limits) and 413 (body); [Transfer-Encoding] to 501;
    unsupported versions to 505. *)
val read_request : reader -> [ `Request of request | `Eof | `Error of error ]

(** {1 Requests} *)

(** First value of a (lowercase) header name. *)
val header : request -> string -> string option

(** HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; the
    [Connection] header overrides either way. *)
val keep_alive : request -> bool

(** Percent-decoded [k=v&k2=v2] pairs. *)
val parse_query : string -> (string * string) list

(** {1 Responses} *)

val status_reason : int -> string

(** [response ~status ~body ()] renders a complete HTTP/1.1 response
    with [Content-Length], [Connection: keep-alive|close] and any extra
    [?headers].  [Content-Type] defaults to [application/json]. *)
val response :
  ?headers:(string * string) list ->
  ?content_type:string ->
  ?keep_alive:bool ->
  status:int ->
  body:string ->
  unit ->
  string

(** Client side: a parsed response. *)
type response_msg = {
  status : int;
  reason_phrase : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val resp_header : response_msg -> string -> string option

(** Parse the next response off a reader ([`Eof] only cleanly between
    responses).  Only [Content-Length] framing is supported; a response
    with neither [Content-Length] nor an empty body is an error. *)
val read_response :
  reader -> [ `Response of response_msg | `Eof | `Error of error ]

(** {2 Connecting} *)

type url = {
  host : string;
  port : int;
  target : string;  (** path plus query string, e.g. ["/health"] *)
}

(** Parse [http://host:port/path?query].  The scheme is optional;
    [https] is rejected.  The port defaults to 80; when given it must
    be a run of decimal digits in 1-65535, and anything else is
    refused with an error naming it. *)
val parse_url : string -> (url, string) result

(** Write the whole string; a write error just ends the write (the
    read that follows reports the broken connection). *)
val write_all : Unix.file_descr -> string -> unit

(** Close, ignoring the error of an already-broken descriptor. *)
val close_quietly : Unix.file_descr -> unit

(** Open a TCP connection to [url]'s host and port, with a reader over
    it.  [recv_timeout] (seconds) bounds each read, so a mute server
    reads as end of input.  Raises [Unix.Unix_error] when the
    connection is refused. *)
val connect : ?recv_timeout:float -> url -> Unix.file_descr * reader

(** The bytes of one keep-alive request for [target] on [url]'s host.
    A body, or any method but [GET], adds [Content-Type:
    application/json] and [Content-Length: content_length] (default
    the body's length; a larger value declares bytes never sent). *)
val render_request :
  url -> ?meth:string -> ?body:string -> ?content_length:int -> string ->
  string

(** A single keep-alive connection. *)
module Conn : sig
  type t

  (** No I/O happens until the first request. *)
  val create : url -> t

  (** One round trip; reconnects (once) when the server closed the
      kept-alive connection.  [Error] is a protocol error, not an HTTP
      error status. *)
  val request :
    t -> ?meth:string -> ?body:string -> string ->
    (response_msg, string) result

  val close : t -> unit
end
