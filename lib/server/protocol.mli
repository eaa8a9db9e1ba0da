(** The verification service's wire protocol, on {!Analysis.Json}.

    Endpoints (all responses are JSON bodies):

    - [/check]    exact verification of a case study ({!check_query})
    - [/cert]     the same computation reified as a proof certificate
                  (same parameters as [/check]; body is bit-identical
                  to [prtb check --emit-cert])
    - [/simulate] Monte Carlo estimation ({!simulate_query})
    - [/lint]     a registry lint target ({!lint_query})
    - [/batch]    many compute queries in one round trip (POST only;
                  see the {!query} [Batch] constructor)
    - [/stats]    registry + cache + server counters
    - [/health]   liveness probe (accepts [?sleep_ms=N], a load-testing
                  aid that holds a worker for up to 5 s)

    [/check], [/simulate] and [/lint] accept their parameters either as
    a JSON object in a [POST] body or as [GET] query-string pairs; both
    forms normalize into the same query value, so either wire form hits
    the same cache entry.

    Errors are structured: [{ "error": { "code": "SRV1xx", "status": N,
    "message": ... } }] with stable diagnostic codes (catalogued in
    docs/SERVER.md):

    - SRV100 unknown endpoint          - SRV101 method not allowed
    - SRV102 malformed JSON body       - SRV103 malformed field
    - SRV104 unknown model/target      - SRV105 malformed budget
    - SRV110 HTTP protocol error       - SRV111 overloaded (503)
    - SRV120 budget exhausted          - SRV122 deadline exceeded
    - SRV300 internal error *)

type model = [ `Lr | `Election | `Coin | `Consensus ]

val model_name : model -> string

type check_query = {
  model : model;
  n : int;
  g : int;
  k : int;
  topology : string;  (** ["ring"], ["line"] or ["star"] (lr only) *)
  bound : int;  (** coin barrier *)
  cap : int;  (** consensus round cap *)
  max_states : int option;  (** client ceiling; the server clamps it *)
  sym : string;  (** ["auto"], ["on"] or ["off"] (default) *)
  plane : string;
      (** ["interval"] (default) or ["exact"]: which arithmetic plane
          the engines consult.  A canonical cache-key dimension like
          [sym] -- it never changes a verdict, but [/cert] bodies
          record it in every leaf's configuration, so entries must not
          be shared across planes. *)
  deadline_ms : int option;
      (** wall deadline for the whole request; on expiry the answer
          degrades (SRV122) instead of erroring.  Not a cache-key
          dimension: complete cached bodies trivially meet any
          deadline, and degraded bodies are never cached. *)
}

type simulate_query = {
  sim_model : model;
  sim_n : int;
  scheduler : string;
  trials : int;
  seed : int;
  within : int option;
  sim_deadline_ms : int option;
}

type lint_query = {
  target : string;
  lint_max_states : int option;
  lint_sym : string;  (** ["auto"], ["on"] or ["off"] (default) *)
  lint_deadline_ms : int option;
}

type query =
  | Check of check_query
  | Cert of check_query  (** same parameters, certificate body *)
  | Simulate of simulate_query
  | Lint of lint_query
  | Stats
  | Health of { sleep_ms : int }
  | Batch of query list
      (** [/batch] (POST only): [{"queries": [{...}, ...]}], each
          element an object with an ["endpoint"] selector (default
          [/check]) plus that endpoint's usual fields.  Only the
          compute endpoints ([/check], [/cert], [/simulate], [/lint])
          are batchable; at most 64 elements.  Element bodies are
          bit-identical to the single-query endpoints'. *)

type error = { status : int; code : string; message : string }

val error : status:int -> code:string -> string -> error

(** The JSON error body. *)
val error_body : error -> string

(** Classify and parse an HTTP request into a query. *)
val of_request : Http.request -> (query, error) result

(** The canonical cache key of a query, with every default filled in
    -- equal keys answer from the result cache.  [max_states] and
    [max_trials] are the server's ceilings: the key stores the
    {e clamped} values, so a query spelling a ceiling explicitly, one
    omitting it and one exceeding the server's cap share one entry
    (they compute the same body).  [None] for [/stats] and [/health],
    which are never cached. *)
val canonical_key :
  ?max_states:int -> ?max_trials:int -> query -> string option
