(** Minimal fixed-width text tables for the experiment reports. *)

type t

(** [create headers] starts a table. *)
val create : string list -> t

(** [row t cells] appends a row (padded/truncated to the header count). *)
val row : t -> string list -> unit

(** Render with aligned columns. *)
val to_string : t -> string

val print : t -> unit
