module Q = Proba.Rational

type instance = {
  params : Automaton.params;
  expl : (Automaton.state, Automaton.action) Mdp.Explore.t;
  arena : (Automaton.state, Automaton.action) Mdp.Arena.t;
  sym : Analysis.Symmetry.certificate option;
}

let describe params =
  { Analysis.Description.label = "itai_rodeh"; pa = Automaton.make params;
    spec = Symmetry.spec params; is_tick = Automaton.is_tick;
    instance =
      (fun arena sym -> { params; expl = Mdp.Arena.explored arena; arena; sym })
  }

let build ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off) ~n
    () =
  Analysis.Description.build ?max_states ~sym (describe { Automaton.n; g; k })

type arrow = Automaton.state Mdp.Checker.arrow

let schema = Core.Schema.unit_time

let rung inst k =
  Mdp.Checker.check_arrow inst.arena ~label:(Printf.sprintf "L%d" k)
    ~granularity:inst.params.Automaton.g ~schema
    ~pre:(Automaton.at_most k)
    ~post:(Automaton.at_most (k - 1))
    ~time:Q.one ~prob:Q.half

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

let leader_pred = Automaton.at_most 1

let direct_bound inst =
  let best, _, _ =
    Mdp.Checker.min_reach_over inst.arena ~target:leader_pred
      ~over:(Automaton.at_most inst.params.Automaton.n)
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

let max_expected_time inst =
  let worst, _, _ =
    Mdp.Checker.max_expected_over inst.arena ~target:leader_pred
      ~over:(Core.Pred.make "any" (fun _ -> true))
  in
  worst /. float_of_int inst.params.Automaton.g

let liveness_holds inst =
  let target = Mdp.Arena.indicator inst.arena leader_pred in
  let always = Mdp.Qualitative.always_reaches inst.arena ~target in
  Array.for_all (fun b -> b) always
