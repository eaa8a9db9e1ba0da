module Q = Proba.Rational
module J = Analysis.Json
module Desc = Analysis.Description

type instance = {
  params : Automaton.params;
  expl : (State.t, Automaton.action) Mdp.Explore.t;
  arena : (State.t, Automaton.action) Mdp.Arena.t;
  sym : Analysis.Symmetry.certificate option;
}

type topo_instance = {
  topo : Topology.t;
  tg : int;
  tk : int;
  texpl : (State.t, Automaton.action) Mdp.Explore.t;
  tarena : (State.t, Automaton.action) Mdp.Arena.t;
  tsym : Analysis.Symmetry.certificate option;
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

(* The ring and a topology differ in their label, automaton, symmetry
   spec, Monte Carlo setup and instance record, nothing else. *)
let describe_with ~label ~pa ~spec ?monte_carlo instance =
  { Desc.label; pa; spec; is_tick = Automaton.is_tick; instance; monte_carlo }

let describe params =
  describe_with ~label:"lr" ~pa:(Automaton.make params)
    ~spec:(Symmetry.ring ~n:params.Automaton.n ())
    ~monte_carlo:(monte_carlo params)
    (fun arena sym -> { params; expl = Mdp.Arena.explored arena; arena; sym })

let build ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off) ~n
    () =
  Desc.build ?max_states ~sym (describe { Automaton.n; g; k })

let describe_topo ~topo ~g ~k =
  describe_with
    ~label:(Printf.sprintf "lr:%s" (Topology.name topo))
    ~pa:(Automaton.make_general ~topo ~g ~k) ~spec:(Symmetry.spec topo)
    (fun tarena tsym ->
       { topo; tg = g; tk = k; texpl = Mdp.Arena.explored tarena; tarena;
         tsym })

let build_topo ?max_states ?(g = 1) ?(k = 1)
    ?(sym = Analysis.Symmetry.Off) ~topo () =
  Desc.build ?max_states ~sym (describe_topo ~topo ~g ~k)

type arrow = State.t Mdp.Checker.arrow

let schema = Core.Schema.unit_time

(* The ring is [Topology.ring n]: every pass below reads a ring
   instance as this topology instance. *)
let on_ring inst =
  let { Automaton.n; g; k } = inst.params in
  { topo = Topology.ring n; tg = g; tk = k; texpl = inst.expl;
    tarena = inst.arena; tsym = inst.sym }

(* The fragment's one [G] on its own topology [t.topo]: built on the
   first request, the same value after, so swept once per fragment. *)
let good t = Mdp.Explore.region t.texpl "G" (fun () -> Regions.g_of t.topo)

(* ----------------------------------------------------------------- *)
(* The five arrows and their composition, over a topology instance and
   its goodness predicate. *)

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

let spec_on t ~g_pred step =
  let label, pre, post, time, prob = statement ~g_pred step in
  Mdp.Checker.check_arrow t.tarena ~label ~granularity:t.tg ~schema ~pre
    ~post ~time ~prob

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

let renamings_on t ~g_pred =
  List.map
    (fun (step, pad, pre, post) ->
       let _, arrow_pre, arrow_post, _, _ = statement ~g_pred step in
       { to_pre =
           Mdp.Checker.verify_inclusion t.tarena pre
             (Core.Pred.union arrow_pre pad);
         to_post =
           Mdp.Checker.verify_inclusion t.tarena
             (Core.Pred.union arrow_post pad)
             post })
    (rungs ~g_pred)

(* The paper's ladder over the five checked arrows, in [steps]
   order: pad each arrow with the already-reached set via Proposition
   3.2, rename its sets with the verified inclusions, then chain with
   Theorem 3.4.  The first arrow that does not hold is the error, then
   the first inclusion that failed to verify. *)
let compose_on t ~g_pred ?renamings arrows =
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
        | None -> renamings_on t ~g_pred
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

let direct_bound_topo t =
  let best, _, _ =
    Mdp.Checker.min_reach_over t.tarena ~target:Regions.c ~over:Regions.t
      ~ticks:(Core.Timed.within ~granularity:t.tg ~time:(Q.of_int 13))
  in
  best

let max_expected_time_topo t =
  let worst, _, _ =
    Mdp.Checker.max_expected_over t.tarena ~target:Regions.c ~over:Regions.t
  in
  worst /. float_of_int t.tg

let arrows_topo t = List.map (spec_on t ~g_pred:(good t)) steps
let compose_arrows_topo t arrows = compose_on t ~g_pred:(good t) arrows
let composed_topo t = compose_arrows_topo t (arrows_topo t)
let invariant_topo t = Invariant.check_general t.topo t.texpl

(* ----------------------------------------------------------------- *)
(* Ring interface. *)

let arrow inst =
  let t = on_ring inst in
  spec_on t ~g_pred:(good t)

let arrows inst = arrows_topo (on_ring inst)
let compose_arrows inst arrows = compose_arrows_topo (on_ring inst) arrows
let composed inst = composed_topo (on_ring inst)
let direct_bound inst = direct_bound_topo (on_ring inst)
let max_expected_time inst = max_expected_time_topo (on_ring inst)

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

let liveness_holds inst =
  let target = Mdp.Arena.indicator inst.arena Regions.c in
  let always = Mdp.Qualitative.always_reaches inst.arena ~target in
  let t = Mdp.Arena.set inst.arena Regions.t in
  let ok = ref true in
  for i = 0 to Mdp.Arena.num_states inst.arena - 1 do
    if Mdp.Bitset.mem t i && not always.(i) then ok := false
  done;
  !ok

(* ----------------------------------------------------------------- *)
(* What the surfaces read of a ring or topology instance. *)

(* What one pass of the check region yields. *)
type pass =
  | Fields of (string * J.t) list
  | Arrow of arrow
  | Renamings of renaming list

(* The ring's and a topology's view differ in the ring's statements and
   derivation ([ring]) and in their symmetry spec.  The fragment's [G]
   is a value: asked for once, as the view opens. *)
let view_on ~ring ~symmetry t ~g_pred =
  let arrow = spec_on t ~g_pred in
  let arrows () = List.map arrow steps in
  let compose ?renamings arrows = compose_on t ~g_pred ?renamings arrows in
  let worst () = max_expected_time_topo t in
  { Desc.arena = t.tarena; cert = t.tsym; target; is_tick = Automaton.is_tick;
    symmetry;
    (* One task per engine call, longest first -- value iteration, the
       14-layer direct bound, the arrows by their tick layers (A.11: 6,
       A.15: 4, A.3, A.14, A.1) with the composition's inclusions (about
       as long as A.11) among them, then the invariant -- so that
       claiming tasks in index order keeps the domains evenly loaded.
       The fields and the composition are assembled after the region,
       in field order.  The six regions are asked for before it: every
       one is read by more than one task. *)
    fields =
      (fun ~helpers ->
         Desc.share t.tarena
           [ Regions.c; Regions.t; g_pred; Regions.p; Regions.f; Regions.rt ];
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
                (fun () ->
                  Fields [ ("direct_bound", Desc.rat (direct_bound_topo t)) ]);
                (fun () -> Arrow (arrow `G_to_P));
                (fun () -> Renamings (renamings_on t ~g_pred));
                (fun () -> Arrow (arrow `RT_to_FGP));
                (fun () -> Arrow (arrow `T_to_RTC));
                (fun () -> Arrow (arrow `F_to_GP));
                (fun () -> Arrow (arrow `P_to_C));
                (fun () ->
                  Fields [ ("invariant", Desc.holds (invariant_topo t)) ])
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
         (match invariant_topo t with
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
             (Q.to_string (direct_bound_topo t)) (worst ()));
    composed = (fun () -> compose (arrows ()));
    claims =
      (fun () ->
         let arrows = arrows () in
         Desc.claims arrows (compose arrows)) }

let view inst =
  let t = on_ring inst in
  view_on ~ring:true t ~g_pred:(good t)
    ~symmetry:(fun () -> Symmetry.ring ~n:inst.params.Automaton.n ())

let view_topo t =
  view_on ~ring:false t ~g_pred:(good t)
    ~symmetry:(fun () -> Symmetry.spec t.topo)
