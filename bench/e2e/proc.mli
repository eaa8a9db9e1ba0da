(** Child processes, reaped with wait4(2) so their peak memory is
    known. *)

type status = {
  exited : bool;  (** ended by exit, not by a signal *)
  code : int;  (** exit status, or the signal number *)
  maxrss_kb : int;  (** peak resident set size, KiB *)
}

(** Exited with status 0. *)
val ok : status -> bool

val describe : status -> string

(** A running child whose standard output is a pipe to us.  Its
    standard input is /dev/null and its standard error is ours. *)
type child = { pid : int; out : Unix.file_descr }

val spawn : string -> string list -> child

(** Everything the child writes until it closes its standard output. *)
val read_all : Unix.file_descr -> string

(** Reap the child (blocking, without holding the OCaml runtime) and
    close our end of its pipe. *)
val wait : child -> status

(** SIGKILL every child spawned here and not yet reaped, and wait for
    each to end. *)
val kill_all : unit -> unit

(** [run prog args] spawns, collects standard output, reaps, and
    reports the wall time from spawn to reap. *)
val run : string -> string list -> string * status * float
