(** A fixed pool of worker domains running fire-and-forget jobs: the
    verification server's connection handlers.

    The accept loop {!submit}s one job per accepted connection and the
    worker domains run them to completion.  A worker already owns a
    core, so the fork regions its jobs open ({!Fork}) run inline on it
    instead of spawning more domains.

    A pool of [n] domains spawns [n - 1] workers; the remaining domain
    is the caller's own (the server's accept loop). *)

type t

(** [create ~domains] spawns a pool of [domains - 1] worker domains.
    Raises [Invalid_argument] when [domains < 1]. *)
val create : domains:int -> t

(** Number of domains the pool counts: its workers plus the caller. *)
val domains : t -> int

(** [submit pool job] enqueues [job] for some worker domain and returns
    whether it was accepted.  [false] when the pool is closed or has no
    workers ([domains = 1]: submit never runs jobs inline).  {!shutdown}
    drains already-accepted jobs before joining the workers, which is
    what gives the server its graceful SIGTERM drain. *)
val submit : t -> (unit -> unit) -> bool

(** Jobs accepted but not yet claimed by a worker (the server's
    backpressure probe: when this exceeds the accept-queue bound, new
    connections are answered 503 instead of being queued). *)
val pending : t -> int

(** Run every accepted job, then join the workers.  The pool must not
    be used afterwards.  Idempotent. *)
val shutdown : t -> unit
