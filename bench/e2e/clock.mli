(** prtb_bench's only clock: CLOCK_MONOTONIC, so a wall-clock step
    can never shorten or stretch a measurement. *)

val now_ns : unit -> int

(** Seconds, on the same clock as {!now_ns}. *)
val now : unit -> float

(** Seconds elapsed since a {!now} reading. *)
val since : float -> float

(** [time f] is [f ()] and the seconds it took. *)
val time : (unit -> 'a) -> 'a * float
