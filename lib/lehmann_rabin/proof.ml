module Q = Proba.Rational
module J = Analysis.Json
module Desc = Analysis.Description

type instance = {
  params : Automaton.params;
  expl : (State.t, Automaton.action) Mdp.Explore.t;
  arena : (State.t, Automaton.action) Mdp.Arena.t;
  sym : Analysis.Symmetry.certificate option;
}

(* Some process is critical: what the checker and Monte Carlo reach. *)
let target = Core.Pred.mem Regions.c

let monte_carlo ({ Automaton.n; g; k } : Automaton.params) =
  { Desc.schedulers = Schedulers.all; start = State.all_trying ~n ~g ~k;
    target; reach = "some process critical"; horizon = 13 * g;
    time_report =
      (fun ~scheduler ~trials ~missed s ->
         let lo, hi = Proba.Stat.Summary.mean_ci s in
         Printf.sprintf
           "E[time to critical] ~ %.3f  (95%% CI [%.3f, %.3f], %d trials, \
            %d missed, scheduler %s; paper bound 63)\n"
           (Proba.Stat.Summary.mean s) lo hi trials missed scheduler) }

let describe params =
  { Desc.label = "lr"; pa = Automaton.make params;
    spec = Symmetry.ring ~n:params.Automaton.n (); is_tick = Automaton.is_tick;
    instance =
      (fun arena sym -> { params; expl = Mdp.Arena.explored arena; arena; sym });
    monte_carlo = Some (monte_carlo params) }

let build ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off) ~n
    () =
  Desc.build ?max_states ~sym (describe { Automaton.n; g; k })

type arrow = State.t Mdp.Checker.arrow

let schema = Core.Schema.unit_time

(* ----------------------------------------------------------------- *)
(* The five arrows and their composition, over any compiled arena and
   any goodness predicate (the ring and the generalized topologies
   differ only in [G]). *)

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
  Mdp.Checker.check_arrow arena ~label ~granularity ~schema ~pre ~post
    ~time ~prob

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
    ( List.find_opt (fun a -> Option.is_none a.Mdp.Checker.claim) arrows,
      List.filter_map (fun a -> a.Mdp.Checker.claim) arrows )
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
  let t = Mdp.Arena.set arena Regions.t in
  let ok = ref true in
  for i = 0 to Mdp.Arena.num_states arena - 1 do
    if Mdp.Bitset.mem t i && not always.(i) then ok := false
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

let describe_topo ~topo ~g ~k =
  { Desc.label = Printf.sprintf "lr:%s" (Topology.name topo);
    pa = Automaton.make_general ~topo ~g ~k; spec = Symmetry.spec topo;
    is_tick = Automaton.is_tick;
    instance =
      (fun tarena tsym ->
         { topo; tg = g; tk = k; texpl = Mdp.Arena.explored tarena; tarena;
           tsym });
    monte_carlo = None }

let build_topo ?max_states ?(g = 1) ?(k = 1)
    ?(sym = Analysis.Symmetry.Off) ~topo () =
  Desc.build ?max_states ~sym (describe_topo ~topo ~g ~k)

let arrows_topo inst =
  List.map
    (spec_on inst.tarena ~granularity:inst.tg ~g_pred:(Regions.g_of inst.topo))
    steps

let compose_arrows_topo ?renamings inst arrows =
  compose_on inst.tarena ~g_pred:(Regions.g_of inst.topo) ?renamings arrows

let composed_topo inst = compose_arrows_topo inst (arrows_topo inst)

let direct_bound_topo inst = direct_bound_on inst.tarena ~granularity:inst.tg
let max_expected_time_topo inst =
  max_expected_time_on inst.tarena ~granularity:inst.tg
let invariant_topo inst = Invariant.check_general inst.topo inst.texpl

(* ----------------------------------------------------------------- *)
(* What the surfaces read of a ring or topology instance. *)

(* What one pass of the check region yields. *)
type pass =
  | Fields of (string * J.t) list
  | Arrow of arrow
  | Renamings of renaming list

(* The ring's and a topology's view differ in [G], asked for once per
   set of arrows as the public functions ask (a fresh [G] is swept
   again), and in the ring's statements and derivation ([ring]). *)
let view_on ~ring ~arena ~cert ~granularity ~g_pred ~invariant ~symmetry =
  let arrow () = spec_on arena ~granularity ~g_pred:(g_pred ()) in
  let arrows () = List.map (arrow ()) steps in
  let compose ?renamings arrows =
    compose_on arena ~g_pred:(g_pred ()) ?renamings arrows
  in
  let worst () = max_expected_time_on arena ~granularity in
  let direct () = direct_bound_on arena ~granularity in
  { Desc.arena; cert; target; is_tick = Automaton.is_tick; symmetry;
    (* One task per engine call, longest first -- value iteration, the
       14-layer direct bound, the arrows by their tick layers (A.11: 6,
       A.15: 4, A.3, A.14, A.1) with the composition's inclusions (about
       as long as A.11) among them, then the invariant -- so that
       claiming tasks in index order keeps the domains evenly loaded.
       The fields and the composition are assembled after the region,
       in field order. *)
    fields =
      (fun ~helpers ->
         let arrow = arrow () in
         match
           Parallel.Fork.run ?helpers
             [| (fun () ->
                  Fields
                    ((if ring then
                        [ ( "expected_bound",
                            Desc.rat (Core.Expected.value (expected_bound ()))
                          ) ]
                      else [])
                     @ [ ("max_expected_time", J.Num (worst ())) ]));
                (fun () -> Fields [ ("direct_bound", Desc.rat (direct ())) ]);
                (fun () -> Arrow (arrow `G_to_P));
                (fun () -> Renamings (renamings_on arena ~g_pred:(g_pred ())));
                (fun () -> Arrow (arrow `RT_to_FGP));
                (fun () -> Arrow (arrow `T_to_RTC));
                (fun () -> Arrow (arrow `F_to_GP));
                (fun () -> Arrow (arrow `P_to_C));
                (fun () -> Fields [ ("invariant", Desc.holds (invariant ())) ])
             |]
         with
         | [| Fields vi; Fields direct; Arrow a11; Renamings renamings;
              Arrow a15; Arrow a3; Arrow a14; Arrow a1; Fields invariant |] ->
           let arrows = [ a1; a3; a15; a14; a11 ] in
           invariant
           @ Desc.arrow_fields ~sets:true arrows (compose ~renamings arrows)
           @ direct @ vi
         | _ -> assert false);
    body =
      (fun () ->
         (match invariant () with
          | None ->
            Printf.printf "Lemma 6.1%s: holds on every reachable state\n%!"
              (if ring then "" else " (generalized)")
          | Some s -> Format.printf "Lemma 6.1 VIOLATED at %a@." State.pp s);
         let arrows = arrows () in
         Desc.print_ladder ~statements:ring 5 arrows (compose arrows);
         if ring then begin
           Format.printf "@.expected-time derivation:@.%a@." Core.Expected.pp
             (expected_bound ());
           Printf.printf "measured worst-case expected time: %.3f\n"
             (worst ())
         end
         else
           Printf.printf
             "direct 13-unit minimum: %s; worst expected time: %.3f\n"
             (Q.to_string (direct ())) (worst ()));
    composed = (fun () -> compose (arrows ()));
    claims =
      (fun () ->
         let arrows = arrows () in
         Desc.claims arrows (compose arrows)) }

let view inst =
  view_on ~ring:true ~arena:inst.arena ~cert:inst.sym
    ~granularity:inst.params.Automaton.g ~g_pred:(fun () -> Regions.g)
    ~invariant:(fun () -> Invariant.check inst.expl)
    ~symmetry:(fun () -> Symmetry.ring ~n:inst.params.Automaton.n ())

let view_topo inst =
  view_on ~ring:false ~arena:inst.tarena ~cert:inst.tsym
    ~granularity:inst.tg ~g_pred:(fun () -> Regions.g_of inst.topo)
    ~invariant:(fun () -> invariant_topo inst)
    ~symmetry:(fun () -> Symmetry.spec inst.topo)
