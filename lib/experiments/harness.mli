(** The experiment harness: one entry point per row of the experiment
    index in DESIGN.md (E1-E9).  Each function prints the table it
    regenerates; {!run_all} prints the full report recorded in
    EXPERIMENTS.md.

    The same code backs [bin/prtb experiments] and [bench/main.exe]. *)

type config = {
  lr_ns : int list;  (** ring sizes checked exhaustively (LR) *)
  lr_g : int;  (** clock granularity *)
  lr_k : int;  (** per-slot step budget *)
  sweep_gk : bool;  (** also sweep (g, k) in E1 *)
  ir_ns : int list;  (** ring sizes for the election *)
  coin_cases : (int * int) list;  (** (processes, barrier) pairs for E11 *)
  sim_ns : int list;  (** ring sizes reached by simulation only *)
  sim_trials : int;
  seed : int;
}

(** Laptop-scale defaults: exhaustive at n = 3 (plus the (g,k) sweep),
    simulation out to n = 12. *)
val default : config

(** Smaller still, for smoke tests. *)
val quick : config

(** Adds n = 4 exhaustive checking and larger simulations (minutes). *)
val full : config

(** Shared instance cache so experiments do not re-explore. *)
type ctx

val make_ctx : config -> ctx

(** The experiments by id, ["e1"] to ["e13"] in report order.  Each
    downgrades a {!Mdp.Explore.Too_many_states} escape into a printed
    skip note carrying the partial interned-state count, so one
    oversized instance cannot abort the whole report. *)
val experiments : (string * (ctx -> unit)) list

(** Run every experiment in order. *)
val run_all : ctx -> unit
