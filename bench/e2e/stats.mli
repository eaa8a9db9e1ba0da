(** prtb_bench's arithmetic: percentiles, spreads and host
    normalization.  Kept apart from the measuring code so the test in
    [test/] can pin every rule down. *)

(** [rank ~pct n] is the 1-based nearest rank of the [pct]-th
    percentile among [n] samples: the smallest [r] with
    [r >= pct * n / 100], computed in integers so [pct:90, n:100] is
    exactly 90. *)
val rank : pct:int -> int -> int

(** Nearest-rank percentile (an observed sample, never interpolated).
    Raises [Invalid_argument] on an empty sample. *)
val percentile : pct:int -> float list -> float

(** How many samples lie strictly above the nearest-rank position of
    the [pct]-th percentile.  A percentile is reported as meaningful
    only when at least ten samples lie beyond it, so p90 needs 100
    samples. *)
val beyond : pct:int -> int -> int

(** The Harrell-Davis estimate of the [pct]-th percentile: a weighted
    mean of every order statistic, with the Beta([q(n+1)], [(1-q)(n+1)])
    probability of each rank as its weight.  A sample percentile of a
    gapped sample (cheap and expensive queries, with the percentile's
    rank between them) jumps across the gap whenever one query moves;
    this estimate moves in proportion.  Raises [Invalid_argument] on
    an empty sample. *)
val harrell_davis : pct:int -> float list -> float

(** The conventional median: the middle sample, or the mean of the two
    middle samples. *)
val median : float list -> float

(** The three quartile cut points by the method of Python's
    [statistics.quantiles(data, n=4)] (the "exclusive" method), which
    is what the benchmark's acceptance check uses.  Needs two samples. *)
val quartiles : float list -> float * float * float

(** [(q3 - q1) / median]: the run-to-run spread compared against each
    end-to-end metric's bound. *)
val spread : float list -> float

(** The fast quartile: the Harrell-Davis estimate of the 25th
    percentile.  On a shared 2-core KVM guest interference only ever
    adds time -- a shared core runs normally or up to 1.6x slower for a
    second or more, never faster -- so the fast quartile of repeated
    timings estimates the undisturbed time, where their median or mean
    also measures how much of the run fell into slow phases.  The
    estimate weighs every sample, so with the four or five passes of a
    run it does not hang on the single fastest one as a nearest-rank
    quartile would.  Every timing of a run and its calibration use it. *)
val fast : float list -> float

(** [factor ~nominal calibs] turns a run's calibration-kernel times
    into the multiplier that rescales its timings to the quiet host
    [nominal] was measured on: [nominal / fast calibs]. *)
val factor : nominal:float -> float list -> float

(** [normalize ~factor raw] = [raw *. factor] for a duration; a rate
    is divided instead ({!normalize_rate}). *)
val normalize : factor:float -> float -> float

val normalize_rate : factor:float -> float -> float
