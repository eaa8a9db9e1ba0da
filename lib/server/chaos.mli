(** A seeded adversarial client for torturing a live [prtb serve]
    daemon.

    Each scenario opens raw sockets against the daemon and misbehaves
    deliberately -- trickling a request byte by byte, closing mid-body,
    sending garbage or oversized frames, squatting on idle keep-alive
    connections, or interleaving junk with valid traffic from
    concurrent domains.  The harness keeps a ledger per scenario
    (every attempt must end answered, rejected with 503, or cleanly
    dropped) and checks after the storm that the daemon's
    [server_errors] counter did not grow and that [/health] reports
    ["ok"] again.

    All randomness flows from [Proba.Rng] streams derived from the
    caller's seed, so a given [(seed, rounds, clients)] triple replays
    the same byte stream every run; failures are reproducible.
    Surfaced on the command line as [prtb chaos]. *)

type scenario =
  | Trickle  (** valid request delivered one byte at a time *)
  | Midbody_close  (** POST with a declared body, closed mid-body *)
  | Garbage  (** random junk where a request line belongs *)
  | Oversize  (** request line beyond the 8 KiB header limit *)
  | Idle_keepalive  (** park a kept-alive connection, then reuse it *)
  | Mixed  (** concurrent garbage + valid traffic; valid answers must
               be bit-identical *)

val all_scenarios : scenario list

val scenario_name : scenario -> string

(** Inverse of {!scenario_name} (also accepts the short forms
    ["midbody"] and ["idle"]). *)
val scenario_of_string : string -> (scenario, string) result

(** The per-scenario ledger.  [attempts = answered + rejected +
    dropped] always holds; [failures] lists assertion violations
    (unexpected status, a drop where an answer was mandatory, valid
    responses diverging under the Mixed scenario, ...). *)
type outcome = {
  scenario : string;
  attempts : int;
  answered : int;  (** complete non-503 responses *)
  rejected : int;  (** 503 backpressure rejections *)
  dropped : int;  (** connection closed without a complete response *)
  failures : string list;
}

type report = {
  outcomes : outcome list;
  health_ok : bool;  (** [/health] returned to ["ok"] after the storm *)
  server_errors_delta : int;
      (** growth of the daemon's 5xx counter across the run; [-1] when
          [/stats] was unreachable *)
  ok : bool;  (** no failures, no new server errors, health recovered *)
}

(** Run one scenario.  [rounds] (default 5) iterations; [clients]
    (default 4) concurrent domains, Mixed only; [idle_s] (default 1.5)
    idle parking time, Idle_keepalive only.  Raises [Invalid_argument]
    naming the flag, before any domain or socket is created, when
    [clients] is outside 2-64 or [idle_s] is negative or not finite. *)
val run_scenario :
  ?rounds:int ->
  ?clients:int ->
  ?idle_s:float ->
  seed:int ->
  Http.url ->
  scenario ->
  outcome

(** Run a batch of scenarios (default {!all_scenarios}) and the
    end-to-end reconciliation: [/stats] snapshots before and after,
    then a bounded poll for [/health] to come back ["ok"].  Refuses
    [clients] and [idle_s] as {!run_scenario} does. *)
val run :
  ?scenarios:scenario list ->
  ?rounds:int ->
  ?clients:int ->
  ?idle_s:float ->
  seed:int ->
  Http.url ->
  report

val pp_report : Format.formatter -> report -> unit
