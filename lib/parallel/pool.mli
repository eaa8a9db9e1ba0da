(** A fixed pool of worker domains with deterministic parallel
    iteration.

    The pool runs two kinds of work: the seeded Monte Carlo batches of
    [Sim.Monte_carlo] (the session default installed by [--domains]),
    and the verification server's connection handlers ({!submit}).  The
    exact checks do not use it: they fork short-lived regions through
    {!Fork}, which run inline on a pool worker, since the server's
    workers already own the cores.

    Iteration keeps the certification story: work is split into a chunk
    grid that depends only on the problem size (never on the number of
    domains), chunks are claimed dynamically but their results are
    combined in chunk order, and callers that need bit-identical output
    across [~domains:1] and [~domains:n] get it for free as long as
    their combine function is associative.

    A pool of [n] domains spawns [n - 1] workers; the calling domain
    always participates, so [create ~domains:1] is a valid (purely
    sequential) pool and no deadlock is possible even if the workers
    are busy elsewhere.

    Cancellation is cooperative: a [?stop] probe is consulted between
    chunk claims (never mid-chunk).  Chunks already claimed when the
    probe fires run to completion, then {!Cancelled} is raised in the
    caller.  This is how [Core.Budget] clocks plug in. *)

type t

(** Raised in the calling domain when a [?stop] probe returns
    [Some reason]; the payload is that reason. *)
exception Cancelled of string

(** [create ~domains] spawns a pool of [domains - 1] worker domains.
    Raises [Invalid_argument] when [domains < 1]. *)
val create : domains:int -> t

(** Number of domains participating in the pool (workers + caller). *)
val domains : t -> int

(** Shut the workers down and join them.  The pool must not be used
    afterwards.  Idempotent. *)
val shutdown : t -> unit

(** [parallel_for pool ?stop ?chunks ~n f] runs [f i] for every
    [0 <= i < n], split into [chunks] contiguous ranges (default
    {!default_chunks}, clamped to [n]) executed across the pool.  The
    chunk grid depends only on [n] and [chunks], so side effects into
    per-index slots are identical for any pool size.  Exceptions raised
    by [f] are re-raised in the caller (first one wins); a firing
    [?stop] probe raises {!Cancelled} after in-flight chunks drain. *)
val parallel_for :
  t ->
  ?stop:(unit -> string option) ->
  ?chunks:int ->
  n:int ->
  (int -> unit) ->
  unit

(** [map_reduce pool ?stop ?chunks ~n ~combine ~init map] is
    [fold_left combine init (List.init n map)] computed in parallel.
    [combine] must be associative; under that assumption the result is
    exactly the sequential fold — independent of the number of domains —
    because chunk-local folds run left to right and chunk results are
    combined in chunk order. *)
val map_reduce :
  t ->
  ?stop:(unit -> string option) ->
  ?chunks:int ->
  n:int ->
  combine:('a -> 'a -> 'a) ->
  init:'a ->
  (int -> 'a) ->
  'a

(** Chunk count used when [?chunks] is omitted: fixed (independent of
    the pool size) so that chunk-grid-determinism holds by default. *)
val default_chunks : int

(** {1 Fire-and-forget jobs}

    The verification server reuses a pool as its worker fleet: the
    accept loop {!submit}s one job per accepted connection and the
    worker domains run them to completion.  Jobs share the queue the
    iteration regions use, and a job may itself issue {!parallel_for}
    calls on the same pool -- region callers always drain their own
    chunks, so progress never depends on a free worker. *)

(** [submit pool job] enqueues [job] for some worker domain and returns
    whether it was accepted.  [false] when the pool is closed or has no
    workers ([domains = 1]: the caller is the only domain, and submit
    must never run jobs inline).  {!shutdown} drains already-accepted
    jobs before joining the workers, which is what gives the server its
    graceful SIGTERM drain. *)
val submit : t -> (unit -> unit) -> bool

(** Jobs accepted but not yet claimed by a worker (the server's
    backpressure probe: when this exceeds the accept-queue bound, new
    connections are answered 503 instead of being queued). *)
val pending : t -> int

(** {1 Session default}

    The CLI installs a pool once per process ([--domains N]); the
    [Sim.Monte_carlo] estimators called with no explicit [?pool] pick
    it up here.  [set_default]
    shuts down any previously installed pool and registers an [at_exit]
    shutdown so worker domains never outlive the main domain. *)

val set_default : t option -> unit
val get_default : unit -> t option
