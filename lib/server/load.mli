(** The load harness behind [prtb loadtest]: a keep-alive HTTP client
    and a multi-domain closed-loop load generator.

    Each client domain owns one connection and fires its share of the
    requests back to back, timing every round trip.  Replies are
    classified into [ok] (2xx), [rejected] (503 -- the daemon's
    backpressure answer, expected under deliberate overload), other
    HTTP errors, and {e protocol} errors (unparsable response,
    unexpected close); a healthy run has zero of the last kind, which
    is what the CI smoke asserts.  Connections closed by the server
    (keep-alive recycling) are transparently reopened. *)

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

(** {1 A single keep-alive connection} *)

module Conn : sig
  type t

  (** No I/O happens until the first request. *)
  val create : url -> t

  (** One round trip; reconnects (once) when the server closed the
      kept-alive connection.  [Error] is a protocol error, not an HTTP
      error status. *)
  val request :
    t -> ?meth:string -> ?body:string -> string ->
    (Http.response_msg, string) result

  val close : t -> unit
end

(** {1 The generator} *)

type result = {
  clients : int;
  requests : int;  (** attempted *)
  ok : int;  (** 2xx *)
  rejected : int;  (** 503, after any retries were spent *)
  retries : int;
      (** extra attempts consumed by 503 backoff; counted separately
          so they never inflate [ok] or deflate [rejected] *)
  http_errors : int;  (** non-2xx other than 503 *)
  protocol_errors : int;
  duration_s : float;
  throughput_rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

(** [run url ~clients ~requests] spreads [requests] round trips over
    [clients] concurrent domains.  With [max_retries > 0] (default 0),
    a 503 is retried up to that many times with jittered exponential
    backoff, honoring the server's [Retry-After] header when present;
    retry attempts are counted in [retries] and a request's latency
    covers its whole retry chain.  With [batch = Some b], every other
    logical request is instead a [POST /batch] carrying [b] copies of
    the URL's query (a mixed single/batch workload; the URL's path
    becomes each element's ["endpoint"]).  Raises [Invalid_argument]
    when either count is non-positive, [max_retries] is negative, or
    [batch] is non-positive. *)
val run :
  ?max_retries:int -> ?batch:int -> url -> clients:int -> requests:int ->
  result

val pp : Format.formatter -> result -> unit
