(** Time-divergence checks for digital-clock models.

    The paper's time-bound statements [U -t->_p U'] presuppose that
    time actually advances: Definition 3.1 measures elapsed time along
    executions, and both proof rules and the exact engines degenerate
    when an execution can perform infinitely many steps in bounded
    time.  Two failure modes are checked:

    - {!zero_time_cycles} (PA020): a cycle of non-tick steps carrying
      probabilistic branching, which makes the finite-horizon layer
      fixpoint asymptotic (wraps {!Mdp.Zeno} as a diagnostic; the arena must carry the model's tick mask);
    - {!tick_divergence} (PA021): some adversary can, with positive
      probability, avoid scheduling a [tick] forever -- i.e. the
      minimum probability of ever ticking is below 1 at some reachable
      state, so time need not diverge under every adversary.  This is
      decided on the arena the other checks read, at every state it
      holds, by {!Mdp.Qualitative.can_avoid} over the non-tick steps:
      tick steps and terminal states count as ticking, so deadlocks
      are reported once (by PA010), not twice. *)

(** PA020 ([Error]): wraps {!Mdp.Zeno.check}; the witness lists the
    offending strongly connected component. *)
val zero_time_cycles :
  model:string ->
  ('s, 'a) Core.Pa.t -> ('s, 'a) Mdp.Arena.t -> Diagnostic.t list

(** PA021 ([Error]): one diagnostic per arena state (capped, in index
    order) from which some adversary avoids ticking forever with
    positive probability.  The arena must carry the model's tick
    mask. *)
val tick_divergence :
  model:string ->
  ('s, 'a) Core.Pa.t -> ('s, 'a) Mdp.Arena.t -> Diagnostic.t list
