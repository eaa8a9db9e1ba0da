module Json = Json
module Diagnostic = Diagnostic
module Report = Report
module Symmetry = Symmetry
module Description = Description
module Pa_checks = Pa_checks
module Time_checks = Time_checks
module Claim_checks = Claim_checks

type ('s, 'a) config = {
  name : string;
  pa : ('s, 'a) Core.Pa.t;
  is_tick : ('a -> bool) option;
  accept_terminal : ('s -> bool) option;
  claims : (string * 's Core.Claim.t) list;
  plan : (string * 's Core.Claim.t * 's Core.Claim.t) list;
  fault_view : (('s -> int list) * ('a -> int option)) option;
  symmetry : ('s, 'a) Symmetry.spec option;
  sym_reduced : bool;
  max_states : int;
  max_equal_pairs : int;
}

let config ?is_tick ?accept_terminal ?(claims = []) ?(plan = [])
    ?fault_view ?symmetry ?(sym_reduced = false)
    ?(max_states = 2_000_000) ?(max_equal_pairs = 1_000_000)
    ~name pa =
  { name; pa; is_tick; accept_terminal; claims; plan; fault_view;
    symmetry; sym_reduced; max_states; max_equal_pairs }

let run_explored ?arena cfg expl =
  let model = cfg.name in
  (* One compiled substrate feeds every state-space check; a caller
     holding an arena already (e.g. a proof instance) passes it in and
     nothing is recompiled.  A caller-provided arena must have been
     compiled from [expl] with this config's [is_tick]. *)
  let arena =
    match arena with
    | Some a -> a
    | None -> Mdp.Arena.compile ?is_tick:cfg.is_tick expl
  in
  let skipped = ref [] in
  let time_diags =
    match cfg.is_tick with
    | None ->
      skipped :=
        [ "PA020/PA021 (no is_tick classifier for this model)" ];
      []
    | Some _ ->
      Time_checks.zero_time_cycles ~model cfg.pa arena
      @ Time_checks.tick_divergence ~model cfg.pa arena
  in
  let diags =
    Pa_checks.stochasticity ~model cfg.pa arena
    @ Pa_checks.equality_coherence ~model ~max_pairs:cfg.max_equal_pairs
        cfg.pa arena
    @ Pa_checks.deadlocks ~model ~accept_terminal:cfg.accept_terminal cfg.pa
        arena
    @ Pa_checks.signature ~model cfg.pa arena
    @ (match cfg.fault_view with
       | None -> []
       | Some (faulted, effective_proc) ->
         Pa_checks.fault_isolation ~model ~faulted ~effective_proc cfg.pa
           arena)
    @ time_diags
    @ (match cfg.symmetry with
       | None -> []
       | Some spec ->
         fst (Pa_checks.symmetry ~model ~reduced:cfg.sym_reduced spec expl))
    @ Claim_checks.composition ~model ~claims:cfg.claims ~plan:cfg.plan
    @ Claim_checks.satisfiability ~model ~claims:cfg.claims arena
  in
  Report.make
    { Report.model;
      states = Mdp.Arena.num_states arena;
      choices = Mdp.Arena.num_choices arena;
      branches = Mdp.Arena.num_branches arena;
      skipped = !skipped }
    diags

let run cfg =
  match Mdp.Explore.run ~max_states:cfg.max_states cfg.pa with
  | expl -> run_explored cfg expl
  | exception Mdp.Explore.Too_many_states n ->
    (* The state-space checks need the whole reachable fragment; report
       the bound and audit only the claims. *)
    Report.make
      { Report.model = cfg.name; states = n; choices = 0; branches = 0;
        skipped = [ "all state-space checks (exploration bound hit)" ] }
      ([ Diagnostic.v PA000 Warning ~model:cfg.name
           (Printf.sprintf
              "exploration stopped after interning %d states (state budget \
               hit (%d states interned)); state-space checks skipped \
               (claims were still audited for composability)"
              n n) ]
       @ Claim_checks.composition ~model:cfg.name ~claims:cfg.claims
           ~plan:cfg.plan)
