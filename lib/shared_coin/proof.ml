module Q = Proba.Rational
module J = Analysis.Json
module Desc = Analysis.Description

type instance = {
  params : Automaton.params;
  expl : (Automaton.state, Automaton.action) Mdp.Explore.t;
  arena : (Automaton.state, Automaton.action) Mdp.Arena.t;
  sym : Analysis.Symmetry.certificate option;
}

let theory (p : Automaton.params) =
  let b = float_of_int p.Automaton.bound in
  b *. b /. float_of_int p.Automaton.n

let monte_carlo ({ Automaton.bound; g; _ } as params) =
  { Desc.schedulers = (fun pa -> [ ("uniform", Sim.Scheduler.uniform pa) ]);
    start = Automaton.start params; target = Automaton.decided params;
    reach = "decided"; horizon = 4 * bound * bound * g;
    time_report =
      (fun ~scheduler:_ ~trials ~missed s ->
         Printf.sprintf
           "E[decision time] ~ %.3f  (%d trials, %d missed; B^2/n = %.3f)\n"
           (Proba.Stat.Summary.mean s) trials missed (theory params)) }

let describe params =
  { Desc.label = "shared_coin"; pa = Automaton.make params;
    spec = Symmetry.spec params; is_tick = Automaton.is_tick;
    instance =
      (fun arena sym -> { params; expl = Mdp.Arena.explored arena; arena; sym });
    monte_carlo = Some (monte_carlo params) }

let build ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off) ~n
    ~bound () =
  Desc.build ?max_states ~sym (describe { Automaton.n; bound; g; k })

type arrow = Automaton.state Mdp.Checker.arrow

let schema = Core.Schema.unit_time

(* The fragment's one [|counter| >= d]: each rung's post-set is the
   next one's pre-set, and the decided set the bounds aim at. *)
let at_least inst d =
  Mdp.Explore.region inst.expl (Printf.sprintf "|counter| >= %d" d)
    (fun () -> Automaton.at_least inst.params d)

let rung inst d =
  Mdp.Checker.check_arrow inst.arena ~label:(Printf.sprintf "D%d" d)
    ~granularity:inst.params.Automaton.g ~schema ~pre:(at_least inst d)
    ~post:(at_least inst (d + 1)) ~time:Q.one ~prob:Q.half

let rungs inst = List.init inst.params.Automaton.bound (fun d -> d)

let arrows inst = List.map (rung inst) (rungs inst)

(* Chain the rungs with Theorem 3.4; the first rung that does not hold
   is the error. *)
let compose_arrows arrows =
  match
    ( List.find_opt (fun a -> Option.is_none a.Mdp.Checker.claim) arrows,
      List.filter_map (fun a -> a.Mdp.Checker.claim) arrows )
  with
  | Some a, _ -> Error (Printf.sprintf "rung %s failed" a.label)
  | None, [] -> Error "bound too small"
  | None, claims ->
    (try Ok (Core.Claim.compose_all claims)
     with Core.Claim.Rule_violation msg -> Error msg)

let composed inst = compose_arrows (arrows inst)

let decided_pred inst = at_least inst inst.params.Automaton.bound

let direct_bound inst =
  let best, _, _ =
    Mdp.Checker.min_reach_over inst.arena ~target:(decided_pred inst)
      ~over:(at_least inst 0)
      ~ticks:
        (Core.Timed.within ~granularity:inst.params.Automaton.g
           ~time:(Q.of_int inst.params.Automaton.bound))
  in
  best

(* nan when the start state's representative was never interned. *)
let start_pred inst =
  Mdp.Explore.region inst.expl "Start" (fun () ->
      let start = Mdp.Arena.index inst.arena (Automaton.start inst.params) in
      Core.Pred.make "Start" (fun s -> Mdp.Arena.index inst.arena s = start))

let expected_exact inst =
  match
    Mdp.Checker.max_expected_over inst.arena ~target:(decided_pred inst)
      ~over:(start_pred inst)
  with
  | value, _, 1 -> value /. float_of_int inst.params.Automaton.g
  | _ -> nan

let expected_theory inst = theory inst.params

let liveness_holds inst =
  let target = Mdp.Arena.indicator inst.arena (decided_pred inst) in
  let always = Mdp.Qualitative.always_reaches inst.arena ~target in
  Array.for_all (fun b -> b) always

let view inst =
  { Desc.arena = inst.arena; cert = inst.sym;
    target = Automaton.decided inst.params;
    fields =
      (fun ~helpers ->
         Desc.share inst.arena [ at_least inst 0; decided_pred inst ];
         Desc.groups ~helpers
           [| (fun () ->
                 let arrows = arrows inst in
                 Desc.arrow_fields ~sets:false arrows (compose_arrows arrows));
              (fun () -> [ ("direct_bound", Desc.rat (direct_bound inst)) ]);
              (fun () ->
                 [ ("expected_exact", J.Num (expected_exact inst));
                   ("expected_theory", J.Num (expected_theory inst)) ]) |]);
    body =
      (fun () ->
         let arrows = arrows inst in
         Desc.print_ladder 4 arrows (compose_arrows arrows);
         Printf.printf
           "direct minimum within %d: %s\nexpected time: exact %.3f vs \
            B^2/n = %.3f\n"
           inst.params.Automaton.bound
           (Q.to_string (direct_bound inst))
           (expected_exact inst) (expected_theory inst));
    composed = (fun () -> composed inst);
    claims =
      (fun () ->
         let arrows = arrows inst in
         Desc.claims arrows (compose_arrows arrows));
    symmetry = (fun () -> Symmetry.spec inst.params);
    is_tick = Automaton.is_tick }
