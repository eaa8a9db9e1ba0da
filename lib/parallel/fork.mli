(** Short-lived fork-join regions for independent pieces of one check.

    [run tasks] runs every task once and returns their results by
    index.  Helper domains are spawned for this call only and joined
    before it returns, so no domain outlives a region and serial work
    between regions pays nothing for an idle domain.

    Results never depend on the schedule: tasks are claimed in index
    order, each result lands in its own slot, and a failing region
    re-raises the exception of its {e lowest-index} failing task -- the
    one a sequential left-to-right run would have raised -- only after
    every helper has joined.  Tasks must not share unsynchronized
    mutable state with each other.

    A domain that already owns a core runs regions inline, spawning
    nothing: {!Pool} worker domains (the verification server's workers)
    and the helpers of an enclosing region mark themselves with
    {!mark_inline}.

    The caller's ambient {!Core.Budget} deadline is installed in every
    helper, so [Core.Budget.poll] fires on helpers too; the resulting
    [Deadline_exceeded] reaches the caller like any task failure. *)

(** [run ?helpers tasks].  [helpers] (default
    [Domain.recommended_domain_count () - 1]) bounds the domains
    spawned besides the caller, which always drains tasks too; at most
    [Array.length tasks - 1] are spawned, and none on a domain marked
    {!mark_inline}.  Tests pass [helpers] to force spawning on a
    one-core host. *)
val run : ?helpers:int -> (unit -> 'a) array -> 'a array

(** [stream ?helpers ~chunk produce consume] runs one producer and
    consumes its output while it is being produced.

    [produce ~publish] runs on the calling domain.  It numbers its items
    [0, 1, 2, ...] and calls [publish k] once items [0 .. k-1] are
    ready; [k] never decreases.  Meanwhile helper domains claim the
    fixed chunks [[c * chunk, (c + 1) * chunk)] in order and run
    [consume lo hi] on each as soon as it is published (the last chunk
    ends at the final count).  A consumer that waits for its chunk
    polls {!Core.Budget}, so a deadline fires while it waits.  When
    [produce] returns, the caller consumes whatever is left.  The
    result is [produce]'s value and the consumers' results by chunk
    index.

    Shared state.  [produce] writes item [i] before it publishes any
    [k > i]; [publish] is an [Atomic] store, so a consumer sees every
    write made before the publish that covered its chunk.  A consumer
    may read those items and nothing the producer writes later; a
    store the producer grows must be swapped through an [Atomic], never
    overwritten in place.  Consumers must not share unsynchronized
    mutable state with each other.

    Failures.  Every helper is joined before [stream] returns or
    raises.  The producer's exception wins over any consumer's;
    otherwise the exception of the lowest failing chunk is re-raised.
    A claimed chunk is always consumed, so the failure is the one a
    sequential run in chunk order would have met first; no chunk is
    claimed after a failure.

    [helpers] is as for {!run}, but no cap applies (the item count is
    not known in advance).  On a domain marked {!mark_inline}, or with
    no helpers, the region runs inline: [produce] to completion, then
    every chunk in index order.  Raises [Invalid_argument] when
    [chunk < 1]. *)
val stream :
  ?helpers:int ->
  chunk:int ->
  (publish:(int -> unit) -> 'p) ->
  (int -> int -> 'c) ->
  'p * 'c array

(** Mark the calling domain as one that already owns a core: later
    {!run} calls on it execute their tasks inline, in index order. *)
val mark_inline : unit -> unit
