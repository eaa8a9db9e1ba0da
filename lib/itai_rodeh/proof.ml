module Q = Proba.Rational
module J = Analysis.Json
module Desc = Analysis.Description

type instance = {
  params : Automaton.params;
  expl : (Automaton.state, Automaton.action) Mdp.Explore.t;
  arena : (Automaton.state, Automaton.action) Mdp.Arena.t;
  sym : Analysis.Symmetry.certificate option;
}

let monte_carlo ({ Automaton.n; g; _ } as params) =
  { Desc.schedulers = (fun pa -> [ ("uniform", Sim.Scheduler.uniform pa) ]);
    start = Automaton.start params; target = Automaton.leader_elected;
    reach = "leader elected"; horizon = 2 * n * g;
    time_report =
      (fun ~scheduler:_ ~trials ~missed s ->
         Printf.sprintf
           "E[election time] ~ %.3f  (%d trials, %d missed; derived bound \
            %d)\n"
           (Proba.Stat.Summary.mean s) trials missed
           (2 * (n - 1))) }

let describe params =
  { Desc.label = "itai_rodeh"; pa = Automaton.make params;
    spec = Symmetry.spec params; is_tick = Automaton.is_tick;
    instance =
      (fun arena sym -> { params; expl = Mdp.Arena.explored arena; arena; sym });
    monte_carlo = Some (monte_carlo params) }

let build ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off) ~n
    () =
  Desc.build ?max_states ~sym (describe { Automaton.n; g; k })

type arrow = Automaton.state Mdp.Checker.arrow

let schema = Core.Schema.unit_time

(* The fragment's one [at most k active]: each rung's post-set is the
   next one's pre-set, and the leader the bounds aim at. *)
let at_most inst k =
  Mdp.Explore.region inst.expl (Printf.sprintf "at most %d active" k)
    (fun () -> Automaton.at_most k)

let rung inst k =
  Mdp.Checker.check_arrow inst.arena ~label:(Printf.sprintf "L%d" k)
    ~granularity:inst.params.Automaton.g ~schema ~pre:(at_most inst k)
    ~post:(at_most inst (k - 1)) ~time:Q.one ~prob:Q.half

let rec downfrom k = if k < 2 then [] else k :: downfrom (k - 1)

let arrows inst = List.map (rung inst) (downfrom inst.params.Automaton.n)

(* Chain the rungs with Theorem 3.4; the first rung that does not hold
   is the error. *)
let compose_arrows arrows =
  match
    ( List.find_opt (fun a -> Option.is_none a.Mdp.Checker.claim) arrows,
      List.filter_map (fun a -> a.Mdp.Checker.claim) arrows )
  with
  | Some a, _ ->
    Error
      (Printf.sprintf "rung %s attained only %s" a.label
         (Q.to_string a.attained))
  | None, [] -> Error "ring too small: no rungs"
  | None, claims ->
    (try Ok (Core.Claim.compose_all claims)
     with Core.Claim.Rule_violation msg -> Error msg)

let composed inst = compose_arrows (arrows inst)

let direct_bound inst =
  let best, _, _ =
    Mdp.Checker.min_reach_over inst.arena ~target:(at_most inst 1)
      ~over:(at_most inst inst.params.Automaton.n)
      ~ticks:
        (Core.Timed.within ~granularity:inst.params.Automaton.g
           ~time:(Q.of_int (inst.params.Automaton.n - 1)))
  in
  best

let expected_bound ~n =
  let per_rung k =
    Core.Expected.constant
      ~label:(Printf.sprintf "E[at_most %d -> at_most %d] <= t/p = 2" k (k - 1))
      Q.two
  in
  Core.Expected.sum ~label:"E[election]" (List.map per_rung (downfrom n))

let any = Core.Pred.make "any" (fun _ -> true)

let max_expected_time inst =
  let worst, _, _ =
    Mdp.Checker.max_expected_over inst.arena ~target:(at_most inst 1)
      ~over:any
  in
  worst /. float_of_int inst.params.Automaton.g

let liveness_holds inst =
  let target = Mdp.Arena.indicator inst.arena (at_most inst 1) in
  let always = Mdp.Qualitative.always_reaches inst.arena ~target in
  Array.for_all (fun b -> b) always

let view inst =
  let expected () =
    Core.Expected.value (expected_bound ~n:inst.params.Automaton.n)
  in
  { Desc.arena = inst.arena; cert = inst.sym;
    target = Automaton.leader_elected;
    fields =
      (fun ~helpers ->
         Desc.share inst.arena [ at_most inst 1 ];
         Desc.groups ~helpers
           [| (fun () ->
                 let arrows = arrows inst in
                 Desc.arrow_fields ~sets:false arrows (compose_arrows arrows));
              (fun () ->
                 [ ("expected_bound", Desc.rat (expected ()));
                   ("max_expected_time", J.Num (max_expected_time inst)) ])
           |]);
    body =
      (fun () ->
         let arrows = arrows inst in
         Desc.print_ladder 4 arrows (compose_arrows arrows);
         Printf.printf "expected bound: %s; measured worst case: %.3f\n"
           (Q.to_string (expected ()))
           (max_expected_time inst));
    composed = (fun () -> composed inst);
    claims =
      (fun () ->
         let arrows = arrows inst in
         Desc.claims arrows (compose_arrows arrows));
    symmetry = (fun () -> Symmetry.spec inst.params);
    is_tick = Automaton.is_tick }
