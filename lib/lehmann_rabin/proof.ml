module Q = Proba.Rational

type instance = {
  params : Automaton.params;
  expl : (State.t, Automaton.action) Mdp.Explore.t;
  arena : (State.t, Automaton.action) Mdp.Arena.t;
  sym : Analysis.Symmetry.certificate option;
}

let build ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off) ~n
    () =
  let params = { Automaton.n; g; k } in
  let pa = Automaton.make params in
  let expl, cert =
    Analysis.Symmetry.explored ~model:"lr" ~mode:sym ?max_states
      (Symmetry.ring ~n ()) pa
  in
  { params; expl; sym = cert;
    arena = Mdp.Arena.compile ~is_tick:Automaton.is_tick expl }

type arrow = {
  label : string;
  pre : State.t Core.Pred.t;
  post : State.t Core.Pred.t;
  time : Q.t;
  prob : Q.t;
  attained : Q.t;
  pre_states : int;
  claim : State.t Core.Claim.t option;
}

let schema = Core.Schema.unit_time

(* ----------------------------------------------------------------- *)
(* The five arrows and their composition, over any compiled arena and
   any goodness predicate (the ring and the generalized topologies
   differ only in [G]). *)

let check_on arena ~granularity ~label ~pre ~post ~time ~prob =
  let result =
    Mdp.Checker.check_arrow arena ~granularity ~schema ~pre ~post ~time
      ~prob
  in
  { label; pre; post; time; prob;
    attained = result.Mdp.Checker.attained;
    pre_states = result.Mdp.Checker.pre_states;
    claim = result.Mdp.Checker.claim }

(* Each phase statement's label, sets, time and probability. *)
let statement ~g_pred = function
  | `P_to_C -> ("A.1", Regions.p, Regions.c, Q.one, Q.one)
  | `T_to_RTC -> ("A.3", Regions.t, Regions.rt_or_c, Q.of_int 2, Q.one)
  | `RT_to_FGP ->
    ( "A.15", Regions.rt,
      Core.Pred.union_all [ Regions.f; g_pred; Regions.p ],
      Q.of_int 3, Q.one )
  | `F_to_GP ->
    ("A.14", Regions.f, Core.Pred.union g_pred Regions.p, Q.of_int 2, Q.half)
  | `G_to_P -> ("A.11", g_pred, Regions.p, Q.of_int 5, Q.of_ints 1 4)

let spec_on arena ~granularity ~g_pred step =
  let label, pre, post, time, prob = statement ~g_pred step in
  check_on arena ~granularity ~label ~pre ~post ~time ~prob

type step = [ `P_to_C | `T_to_RTC | `RT_to_FGP | `F_to_GP | `G_to_P ]

let steps = [ `P_to_C; `T_to_RTC; `RT_to_FGP; `F_to_GP; `G_to_P ]

(* The ladder after A.3, rung by rung: the arrow, the already-reached
   set it is padded with (Proposition 3.2), and the set-equal pre- and
   post-sets it is renamed to so that the rungs chain by name. *)
let rungs ~g_pred =
  let fgp_or_c =
    Core.Pred.union (Core.Pred.union_all [ Regions.f; g_pred; Regions.p ])
      Regions.c
  in
  let gp_or_c = Core.Pred.union (Core.Pred.union g_pred Regions.p) Regions.c in
  [ (`RT_to_FGP, Regions.c, Regions.rt_or_c, fgp_or_c);
    (`F_to_GP, gp_or_c, fgp_or_c, gp_or_c);
    (`G_to_P, Regions.p_or_c, gp_or_c, Regions.p_or_c);
    (`P_to_C, Regions.c, Regions.p_or_c, Regions.c) ]

(* The renaming of each rung: both inclusions, verified over the
   reachable states, or [None] where one fails.  They depend on the
   statements' sets alone, not on what the checker found for the
   arrows. *)
type renaming = {
  to_pre : State.t Core.Inclusion.t option;
  to_post : State.t Core.Inclusion.t option;
}

let renamings_on arena ~g_pred =
  List.map
    (fun (step, pad, pre, post) ->
       let _, arrow_pre, arrow_post, _, _ = statement ~g_pred step in
       { to_pre =
           Mdp.Checker.verify_inclusion arena pre
             (Core.Pred.union arrow_pre pad);
         to_post =
           Mdp.Checker.verify_inclusion arena
             (Core.Pred.union arrow_post pad)
             post })
    (rungs ~g_pred)

(* The paper's ladder over the five checked arrows, in [steps]
   order: pad each arrow with the already-reached set via Proposition
   3.2, rename its sets with the verified inclusions, then chain with
   Theorem 3.4.  The first arrow that does not hold is the error, then
   the first inclusion that failed to verify. *)
let compose_on arena ~g_pred ?renamings arrows =
  match
    ( List.find_opt (fun a -> Option.is_none a.claim) arrows,
      List.filter_map (fun a -> a.claim) arrows )
  with
  | Some a, _ ->
    Error
      (Printf.sprintf "%s does not hold at the paper's bound: attained %s < %s"
         a.label (Q.to_string a.attained) (Q.to_string a.prob))
  | None, [ a1; a3; a15; a14; a11 ] -> (
      let renamings =
        match renamings with
        | Some r -> r
        | None -> renamings_on arena ~g_pred
      in
      let need set = function
        | Some incl -> incl
        | None ->
          failwith
            (Printf.sprintf "canonicalize: inclusion %s failed to verify"
               (Core.Pred.name set))
      in
      let rename claim (_, pad, pre, post) r =
        let to_pre = need pre r.to_pre in
        let to_post = need post r.to_post in
        Core.Claim.weaken_post
          (Core.Claim.strengthen_pre (Core.Claim.union claim pad) to_pre)
          to_post
      in
      try
        Ok
          (Core.Claim.compose_all
             (a3
              :: List.map2
                   (fun (claim, rung) r -> rename claim rung r)
                   (List.combine [ a15; a14; a11; a1 ] (rungs ~g_pred))
                   renamings))
      with Failure msg | Core.Claim.Rule_violation msg -> Error msg)
  | None, _ -> invalid_arg "Proof.compose_arrows: not the five ladder arrows"

let direct_bound_on arena ~granularity =
  let best, _, _ =
    Mdp.Checker.min_reach_over arena ~target:Regions.c ~over:Regions.t
      ~ticks:(Core.Timed.within ~granularity ~time:(Q.of_int 13))
  in
  best

let max_expected_time_on arena ~granularity =
  let worst, _, _ =
    Mdp.Checker.max_expected_over arena ~target:Regions.c ~over:Regions.t
  in
  worst /. float_of_int granularity

let liveness_on arena =
  let target = Mdp.Arena.indicator arena Regions.c in
  let always = Mdp.Qualitative.always_reaches arena ~target in
  let ok = ref true in
  for i = 0 to Mdp.Arena.num_states arena - 1 do
    if Core.Pred.mem Regions.t (Mdp.Arena.state arena i)
    && not always.(i) then ok := false
  done;
  !ok

(* ----------------------------------------------------------------- *)
(* Ring interface. *)

let arrow inst =
  spec_on inst.arena ~granularity:inst.params.Automaton.g ~g_pred:Regions.g

let arrows inst = List.map (arrow inst) steps

let renamings inst = renamings_on inst.arena ~g_pred:Regions.g

let compose_arrows ?renamings inst arrows =
  compose_on inst.arena ~g_pred:Regions.g ?renamings arrows
let composed inst = compose_arrows inst (arrows inst)

let direct_bound inst =
  direct_bound_on inst.arena ~granularity:inst.params.Automaton.g

let expected_bound () =
  let b prob time loops =
    Core.Expected.branch ~prob ~time:(Q.of_int time) ~loops
  in
  let v =
    Core.Expected.solve_loop ~label:"E[RT to P]"
      [ b (Q.of_ints 1 8) 10 false;
        b Q.half 5 true;
        b (Q.of_ints 3 8) 10 true ]
  in
  Core.Expected.sum ~label:"E[T to C]"
    [ Core.Expected.constant ~label:"T to RT (Prop A.3)" (Q.of_int 2);
      v;
      Core.Expected.constant ~label:"P to C (Prop A.1)" Q.one ]

let max_expected_time inst =
  max_expected_time_on inst.arena ~granularity:inst.params.Automaton.g

let worst_adversary inst =
  let arena = inst.arena in
  let target = Mdp.Arena.indicator arena Regions.c in
  let values, policy =
    Mdp.Expected_time.max_expected_ticks_with_policy arena ~target ()
  in
  let { Automaton.n; g; k } = inst.params in
  let start = State.all_trying ~n ~g ~k in
  let value =
    match Mdp.Arena.index arena start with
    | Some i -> values.(i) /. float_of_int g
    | None -> nan
  in
  let choose s =
    match Mdp.Arena.index arena s with
    | Some i -> Some policy.(i)
    | None -> None
  in
  (value, Sim.Scheduler.of_choice choose (Mdp.Arena.automaton arena))

let liveness_holds inst = liveness_on inst.arena

(* ----------------------------------------------------------------- *)
(* Generalized topologies (the paper's "more general than rings"). *)

type topo_instance = {
  topo : Topology.t;
  tg : int;
  tk : int;
  texpl : (State.t, Automaton.action) Mdp.Explore.t;
  tarena : (State.t, Automaton.action) Mdp.Arena.t;
  tsym : Analysis.Symmetry.certificate option;
}

let build_topo ?max_states ?(g = 1) ?(k = 1)
    ?(sym = Analysis.Symmetry.Off) ~topo () =
  let pa = Automaton.make_general ~topo ~g ~k in
  let texpl, cert =
    Analysis.Symmetry.explored
      ~model:(Printf.sprintf "lr:%s" (Topology.name topo))
      ~mode:sym ?max_states (Symmetry.spec topo) pa
  in
  { topo; tg = g; tk = k; texpl; tsym = cert;
    tarena = Mdp.Arena.compile ~is_tick:Automaton.is_tick texpl }

let arrow_topo inst =
  spec_on inst.tarena ~granularity:inst.tg ~g_pred:(Regions.g_of inst.topo)

let arrows_topo inst = List.map (arrow_topo inst) steps

let renamings_topo inst = renamings_on inst.tarena ~g_pred:(Regions.g_of inst.topo)

let compose_arrows_topo ?renamings inst arrows =
  compose_on inst.tarena ~g_pred:(Regions.g_of inst.topo) ?renamings arrows

let composed_topo inst = compose_arrows_topo inst (arrows_topo inst)

let direct_bound_topo inst = direct_bound_on inst.tarena ~granularity:inst.tg
let max_expected_time_topo inst =
  max_expected_time_on inst.tarena ~granularity:inst.tg
let invariant_topo inst = Invariant.check_general inst.topo inst.texpl
