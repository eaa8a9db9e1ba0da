(** The model linter: static well-formedness analysis for probabilistic
    automata and claim derivations.

    Every proof rule in the paper is sound only under side conditions
    the rest of this repository takes on faith: steps must lead into
    genuine probability spaces (Definition 2.1), {!Core.Claim.compose}
    requires an execution-closed schema (Theorem 3.4), and time-bound
    checking assumes time diverges under every adversary.  This
    subsystem verifies those premises {e statically}, over the explored
    reachable fragment of a model, and reports violations as
    structured {!Diagnostic.t}s with stable codes.

    Entry points: build a {!config} per model with {!val-config}, then
    {!run} it (or {!run_explored} to reuse an existing exploration).
    The catalogue of diagnostic codes with triggering examples lives in
    [docs/LINTS.md]; the CLI front end is [prtb lint]. *)

module Json = Json
module Diagnostic = Diagnostic
module Report = Report
module Symmetry = Symmetry
module Description = Description
module Pa_checks = Pa_checks
module Time_checks = Time_checks
module Claim_checks = Claim_checks

(** What to lint: a named automaton plus the optional model knowledge
    that unlocks the deeper checks. *)
type ('s, 'a) config

(** [config ~name pa] with:

    - [is_tick]: the time-passage action; enables PA020 (zero-time
      cycles) and PA021 (tick divergence).  Omitted, those checks are
      recorded as skipped;
    - [accept_terminal]: classifies reachable stuck states; with it,
      unaccepted terminals are PA010 errors, without it any terminal is
      a PA010 warning;
    - [claims]: labelled finished derivations to audit (CL001, CL002);
    - [plan]: labelled {e intended} compositions, checked against the
      premises of Theorem 3.4 before any proof script runs (CL001);
    - [fault_view]: for fault-wrapped automata, the pair
      [(faulted, effective_proc)] handed to
      {!Pa_checks.fault_isolation}; enables PA012 (a crashed or
      stalled process's original step still enabled);
    - [symmetry]: the model's declared symmetry {!Symmetry.spec};
      enables PA030/PA031/PA032 via {!Pa_checks.symmetry}.  Set
      [sym_reduced] when the exploration handed to {!run_explored}
      was orbit-reduced through {!Symmetry.canonicalizer}, so the
      verifier expands orbits for full coverage and does not advise
      reduction of an already-reduced fragment;
    - [max_states]: {!run}'s exploration bound for this model
      (default [2_000_000]); reaching it yields a PA000 warning
      carrying the bound instead of an exception;
    - [max_equal_pairs]: comparison budget for the PA003 sampling
      (default [1_000_000] pairs). *)
val config :
  ?is_tick:('a -> bool) ->
  ?accept_terminal:('s -> bool) ->
  ?claims:(string * 's Core.Claim.t) list ->
  ?plan:(string * 's Core.Claim.t * 's Core.Claim.t) list ->
  ?fault_view:(('s -> int list) * ('a -> int option)) ->
  ?symmetry:('s, 'a) Symmetry.spec ->
  ?sym_reduced:bool ->
  ?max_states:int ->
  ?max_equal_pairs:int ->
  name:string ->
  ('s, 'a) Core.Pa.t ->
  ('s, 'a) config

(** Explore the model and run the full battery. *)
val run : ('s, 'a) config -> Report.t

(** Run the battery against an exploration already at hand (e.g. a
    proof instance's); nothing is explored again.  Pass [?arena] to
    reuse an
    existing compilation of the same fragment (it must have been
    compiled with this config's [is_tick]); omitted, the fragment is
    compiled once here. *)
val run_explored :
  ?arena:('s, 'a) Mdp.Arena.t ->
  ('s, 'a) config -> ('s, 'a) Mdp.Explore.t -> Report.t
