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

(** Mark the calling domain as one that already owns a core: later
    {!run} calls on it execute their tasks inline, in index order. *)
val mark_inline : unit -> unit
