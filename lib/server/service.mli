(** The dispatcher: protocol queries in, JSON replies out.

    [handle] routes every query through the {!Models} registry into the
    arena-backed engines, under a per-request state ceiling (the
    server's [--max-states] clamp, tightened further by the client's
    own [max_states]), so a hostile query is answered with a structured
    ["verdict": "exhausted"] body instead of wedging a worker.
    Finished results of the cacheable endpoints ([/check], [/simulate],
    [/lint]) are kept in an LRU [Parallel.Cache] keyed by the canonical
    request; repeat queries are answered without touching the registry
    at all ([X-Prtb-Cache: hit], and the [/stats] compile counters stay
    put -- what CI asserts).

    {!check_json} is deliberately exposed: [prtb check --format json]
    prints exactly this value, which is what makes served bodies
    bit-identical to the direct CLI path (the end-to-end test in
    test/test_server.ml compares the two byte for byte). *)

type config = {
  max_states : int;  (** hard per-request exploration ceiling *)
  cache_bytes : int option;  (** result-cache capacity *)
  max_trials : int;  (** per-request Monte Carlo trial clamp *)
  deadline_ms : int option;
      (** server-wide default wall deadline per request; the effective
          deadline is the tighter of this and the client's
          [deadline_ms] *)
  degraded_after : float;
      (** /health reports ["degraded"] once some in-flight compute
          request is older than this many seconds *)
}

(** 2M states, 64 MiB results, 200k trials, no default deadline,
    degraded after 5 s. *)
val default_config : config

(** The ceiling {!check_json} applies when none is given: the
    [default_config] one. *)
val default_max_states : int

type t

val create : config -> t

(** The exact-check result for a query, as served and as printed by
    [prtb check --format json].  Catches budget exhaustion
    ([Mdp.Explore.Too_many_states]) and reports it as a
    ["verdict": "exhausted"] object.  When the query carries a
    [deadline_ms], the whole computation runs under an ambient
    {!Core.Budget} deadline; on expiry the body degrades to
    ["verdict": "deadline-exceeded"] / code [SRV122] with a one-trial
    Monte Carlo estimate -- a deterministic function of the query (no
    timing-dependent fields), so it can be asserted byte for byte. *)
val check_json : ?max_states:int -> Protocol.check_query -> Analysis.Json.t

(** The certificate body for a query, as served on [/cert] and as
    printed by [prtb check --emit-cert]: the composed claim's whole
    derivation reified as a {!Cert.Node.t} DAG whose leaves carry the
    {!Mdp.Arena.fingerprint} and full configuration.  Failure modes
    mirror {!check_json} (["exhausted"]/SRV120,
    ["not-certified"]/SRV121, ["deadline-exceeded"]/SRV122) plus
    ["uncertified"]/SRV123 when the model's composed proof itself
    fails; those bodies are headers, not certificates, and
    [verify-cert] rejects them. *)
val cert_json : ?max_states:int -> Protocol.check_query -> Analysis.Json.t

(** [under_deadline deadline_ms ~expired compute] runs [compute] under
    an ambient {!Core.Budget} wall deadline of [deadline_ms]
    milliseconds when there is one; if it fires, the answer is
    [expired ms reason] instead.  {!check_json}, {!cert_json}, the
    served [/simulate] and [/lint], and [prtb check]'s text report all
    degrade through it. *)
val under_deadline :
  int option -> expired:(int -> string -> 'a) -> (unit -> 'a) -> 'a

type reply = {
  status : int;
  headers : (string * string) list;
  body : string;
}

(** Dispatch one query.  Never raises: internal failures come back as a
    500 reply with code SRV300. *)
val handle : t -> Protocol.query -> reply

(** Parse ({!Protocol.of_request}) and {!handle} in one step; parse
    rejections are counted in the request/error counters too. *)
val respond : t -> Http.request -> reply

(** Count a connection rejected by the accept loop's backpressure (the
    daemon calls this; it shows up under ["server"]["overload_rejected"]
    in [/stats]). *)
val note_overload : t -> unit

(** Count an HTTP-layer protocol failure answered below the dispatcher
    (the daemon's SRV110 branch); ["server"]["protocol_errors"] in
    [/stats].  Keeps the chaos harness's ledger balanced: every accept
    is answered, rejected, or counted here. *)
val note_protocol_error : t -> unit

(** Flip the /health state to ["draining"] (the daemon sets it when a
    graceful shutdown begins). *)
val set_draining : t -> bool -> unit
