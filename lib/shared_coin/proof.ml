module Q = Proba.Rational

type instance = {
  params : Automaton.params;
  expl : (Automaton.state, Automaton.action) Mdp.Explore.t;
  arena : (Automaton.state, Automaton.action) Mdp.Arena.t;
  sym : Analysis.Symmetry.certificate option;
}

let build ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off) ~n
    ~bound () =
  let params = { Automaton.n; bound; g; k } in
  let expl, cert =
    Analysis.Symmetry.explored ~model:"shared_coin" ~mode:sym ?max_states
      (Symmetry.spec params) (Automaton.make params)
  in
  { params; expl; sym = cert;
    arena = Mdp.Arena.compile ~is_tick:Automaton.is_tick expl }

type arrow = {
  label : string;
  time : Q.t;
  prob : Q.t;
  attained : Q.t;
  pre_states : int;
  claim : Automaton.state Core.Claim.t option;
}

let schema = Core.Schema.unit_time

let rung inst d =
  let result =
    Mdp.Checker.check_arrow inst.arena
      ~granularity:inst.params.Automaton.g ~schema
      ~pre:(Automaton.at_least inst.params d)
      ~post:(Automaton.at_least inst.params (d + 1))
      ~time:Q.one ~prob:Q.half
  in
  { label = Printf.sprintf "D%d" d;
    time = Q.one; prob = Q.half;
    attained = result.Mdp.Checker.attained;
    pre_states = result.Mdp.Checker.pre_states;
    claim = result.Mdp.Checker.claim }

let rungs inst = List.init inst.params.Automaton.bound (fun d -> d)

let arrows inst = List.map (rung inst) (rungs inst)

(* Chain the rungs with Theorem 3.4; the first rung that does not hold
   is the error. *)
let compose_arrows arrows =
  match
    ( List.find_opt (fun a -> Option.is_none a.claim) arrows,
      List.filter_map (fun a -> a.claim) arrows )
  with
  | Some a, _ -> Error (Printf.sprintf "rung %s failed" a.label)
  | None, [] -> Error "bound too small"
  | None, claims ->
    (try Ok (Core.Claim.compose_all claims)
     with Core.Claim.Rule_violation msg -> Error msg)

let composed inst = compose_arrows (arrows inst)

let decided_pred inst =
  Automaton.at_least inst.params inst.params.Automaton.bound

let direct_bound inst =
  let best, _, _ =
    Mdp.Checker.min_reach_over inst.arena ~target:(decided_pred inst)
      ~over:(Automaton.at_least inst.params 0)
      ~ticks:
        (Core.Timed.within ~granularity:inst.params.Automaton.g
           ~time:(Q.of_int inst.params.Automaton.bound))
  in
  best

(* nan when the start state's representative was never interned. *)
let expected_exact inst =
  let start = Mdp.Arena.index inst.arena (Automaton.start inst.params) in
  match
    Mdp.Checker.max_expected_over inst.arena ~target:(decided_pred inst)
      ~over:
        (Core.Pred.make "Start" (fun s ->
             Mdp.Arena.index inst.arena s = start))
  with
  | value, _, 1 -> value /. float_of_int inst.params.Automaton.g
  | _ -> nan

let theory (p : Automaton.params) =
  let b = float_of_int p.Automaton.bound in
  b *. b /. float_of_int p.Automaton.n

let expected_theory inst = theory inst.params

let liveness_holds inst =
  let target = Mdp.Arena.indicator inst.arena (decided_pred inst) in
  let always = Mdp.Qualitative.always_reaches inst.arena ~target in
  Array.for_all (fun b -> b) always
