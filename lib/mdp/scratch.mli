(** Per-domain work vectors that outlive a pass.

    An engine pass needs a few state-sized vectors (values, flags,
    worklist stacks, a predecessor index) only while it runs.  Each is
    borrowed from a small pool kept per domain ({!Domain.DLS}) and
    handed back when the borrowing function returns or raises (a
    deadline, an inexact product), so the passes of one check, run
    one after another on a domain, allocate their vectors once between
    them instead of once each.

    A borrowed vector has {e at least} the length asked for, and its
    contents are whatever the last borrower left: a pass initializes
    every entry it reads and must not let the vector escape the
    borrowing function.  Borrows nest, and are handed back in LIFO
    order by construction.  A pool is reached only from its own domain,
    so no lock is taken; it lives as long as the domain (a worker
    domain of [prtb serve] keeps its vectors between requests). *)

(** [ints n f] is [f v] for a borrowed [v] with [Array.length v >= n]. *)
val ints : int -> (int array -> 'r) -> 'r

(** The same for unboxed float vectors. *)
val floats : int -> (float array -> 'r) -> 'r

(** The same for byte vectors: one flag per state. *)
val bytes : int -> (Bytes.t -> 'r) -> 'r
