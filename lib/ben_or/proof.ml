module Q = Proba.Rational
module J = Analysis.Json
module Desc = Analysis.Description

type instance = {
  params : Automaton.params;
  initial : Automaton.bit array;
  expl : (Automaton.state, Automaton.action) Mdp.Explore.t;
  arena : (Automaton.state, Automaton.action) Mdp.Arena.t;
  sym : Analysis.Symmetry.certificate option;
}

let monte_carlo ({ Automaton.cap; g; _ } as params) ~initial =
  { Desc.schedulers = (fun pa -> [ ("uniform", Sim.Scheduler.uniform pa) ]);
    start = Automaton.start params initial; target = Automaton.some_decided;
    reach = "some process decided"; horizon = 4 * cap * g;
    time_report =
      (fun ~scheduler:_ ~trials ~missed s ->
         Printf.sprintf
           "E[decision time] ~ %.3f  (%d trials, %d missed; mixed start, \
            uniform scheduler)\n"
           (Proba.Stat.Summary.mean s) trials missed) }

let describe params ~initial =
  { Desc.label = "ben_or"; pa = Automaton.make ~initial params;
    spec = Symmetry.spec params ~initial; is_tick = Automaton.is_tick;
    instance =
      (fun arena sym ->
         { params; initial; expl = Mdp.Arena.explored arena; arena; sym });
    monte_carlo = Some (monte_carlo params ~initial) }

let build ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off) ~n
    ~f ~cap ~initial () =
  Desc.build ?max_states ~sym (describe { Automaton.n; f; cap; g; k } ~initial)

let agreement = Core.Pred.make "Agreement" Automaton.agreement

let never_decides_false =
  Core.Pred.make "never decides 0" (Automaton.never_decides false)

let never_decides_true =
  Core.Pred.make "never decides 1" (Automaton.never_decides true)

let agreement_violation inst = Mdp.Explore.check_invariant inst.expl agreement

let validity_violation inst =
  let unanimous v = Array.for_all (Bool.equal v) inst.initial in
  if unanimous true then
    Mdp.Explore.check_invariant inst.expl never_decides_false
  else if unanimous false then
    Mdp.Explore.check_invariant inst.expl never_decides_true
  else None

type arrow = Automaton.state Mdp.Checker.arrow

(* The fragment's one [Init]. *)
let init_pred inst =
  Mdp.Explore.region inst.expl "Init" (fun () ->
      let start = Automaton.start inst.params inst.initial in
      Core.Pred.make "Init" (fun s -> s = start))

let decided_pred =
  Core.Pred.make "Decided" Automaton.some_decided

let decision_arrow inst ~rounds ~prob =
  Mdp.Checker.check_arrow inst.arena
    ~label:(Printf.sprintf "decide within %d round(s)" rounds)
    ~granularity:inst.params.Automaton.g ~schema:Core.Schema.unit_time
    ~pre:(init_pred inst) ~post:decided_pred ~time:(Q.of_int (3 * rounds))
    ~prob

(* The certified termination statement at the exact attained bound: a
   probe at prob 0 always yields a claim and reports the true minimum,
   a second check names that minimum as the bound so the minted leaf is
   as tight as the checker can certify.  Both ask the arena the same
   question, so the backward induction runs once. *)
let composed inst ~rounds =
  if rounds < 1 || rounds > inst.params.Automaton.cap then
    Error
      (Printf.sprintf "rounds=%d outside the modelled cap %d" rounds
         inst.params.Automaton.cap)
  else begin
    let probe = decision_arrow inst ~rounds ~prob:Q.zero in
    if Q.is_zero probe.attained then
      Error
        (Printf.sprintf
           "the adversary can block every decision within %d round(s) \
            (attained minimum 0)" rounds)
    else begin
      match (decision_arrow inst ~rounds ~prob:probe.attained).claim with
      | Some claim -> Ok claim
      | None -> Error "checker refused its own attained bound" (* unreachable *)
    end
  end

(* Each point is its round count's decision arrow, so the last one and
   [composed]'s are one solved pass. *)
let decision_curve inst ~rounds =
  List.map (fun r -> (decision_arrow inst ~rounds:r ~prob:Q.zero).attained)
    rounds

let capped_liveness inst =
  let target = Mdp.Arena.indicator inst.arena decided_pred in
  let always = Mdp.Qualitative.always_reaches inst.arena ~target in
  always.(List.hd (Mdp.Arena.start_indices inst.arena))

let view inst =
  let { Automaton.n; f; cap; _ } = inst.params in
  let curve () = decision_curve inst ~rounds:(List.init cap (fun r -> r + 1)) in
  let point i p =
    J.Obj [ ("rounds", J.Int (i + 1)); ("min_prob", Desc.rat p) ]
  in
  { Desc.arena = inst.arena; cert = inst.sym;
    target = Automaton.some_decided;
    fields =
      (fun ~helpers ->
         Desc.groups ~helpers
           [| (fun () ->
                 [ ("f", J.Int f);
                   ("agreement", Desc.holds (agreement_violation inst)) ]);
              (fun () ->
                 [ ("decision_curve", J.Arr (List.mapi point (curve ()))) ]) |]);
    body =
      (fun () ->
         Printf.printf "agreement: %s\n"
           (match agreement_violation inst with
            | None -> "holds"
            | Some _ -> "VIOLATED");
         List.iteri
           (fun idx q ->
              Printf.printf "min P[decided within %d round(s)] = %s\n"
                (idx + 1) (Q.to_string q))
           (curve ()));
    composed = (fun () -> composed inst ~rounds:cap);
    claims =
      (fun () ->
         Desc.claims
           [ decision_arrow inst ~rounds:cap ~prob:(Q.pow Q.half n) ]
           (Error "no composition"));
    symmetry = (fun () -> Symmetry.spec inst.params ~initial:inst.initial);
    is_tick = Automaton.is_tick }
