(* Symmetry analysis (PA03x): the orbit quotient must be invisible in
   every verdict -- rational results bit-identical between --sym on and
   --sym off -- and the broken declarations must fire their diagnostics
   (PA030 for a non-automorphism, PA031 for a non-invariant predicate,
   PA032 as the unreduced-but-symmetric advisory). *)

module Q = Proba.Rational
module Sym = Analysis.Symmetry
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or

let q = Alcotest.testable (fun fmt r -> Format.pp_print_string fmt (Q.to_string r)) Q.equal

let claim_str = function
  | Ok c -> Format.asprintf "%a" Core.Claim.pp c
  | Error e -> "error: " ^ e

let has_code code diags =
  List.exists (fun d -> d.Analysis.Diagnostic.code = code) diags

let cert_exn = function
  | Some (c : Sym.certificate) -> c
  | None -> Alcotest.fail "expected a symmetry certificate"

(* Minimum over the states satisfying [pred] of the [ticks]-horizon
   exact minimum reachability of [target], compared across the
   reduced/unreduced arenas ([Q.one] when no state satisfies [pred]). *)
let min_over arena ~pred ~target ~ticks =
  let values =
    Mdp.Finite_horizon.min_reach arena
      ~target:(Mdp.Arena.indicator arena target) ~ticks
  in
  let best = ref Q.one in
  for i = 0 to Mdp.Arena.num_states arena - 1 do
    if Core.Pred.mem pred (Mdp.Arena.state arena i) then
      best := Q.min !best values.(i)
  done;
  !best

(* ------------------------------------------------------------------ *)
(* The verifier as it stood before orbits were certified in one pass:
   every (member, generator) pair ran [enabled] at both ends, and the
   verdicts lived in tables keyed by name.  Copied verbatim (with the
   orbit closure and canonicalizer it used), as the reference the
   current [Sym.verify] must agree with bit for bit. *)

module Legacy = struct
  open Analysis
  open Symmetry

  let orbit ?(max_orbit = 40_320) ~equal gens s =
    let members = ref [ s ] in
    let frontier = ref [ s ] in
    let overflow = ref false in
    while !frontier <> [] && not !overflow do
      let work = !frontier in
      frontier := [];
      List.iter
        (fun x ->
           List.iter
             (fun g ->
                let y = g.on_state x in
                if not (List.exists (equal y) !members) then begin
                  if List.length !members >= max_orbit then overflow := true
                  else begin
                    members := y :: !members;
                    frontier := y :: !frontier
                  end
                end)
             gens)
        work
    done;
    if !overflow then
      invalid_arg
        (Printf.sprintf
           "Symmetry.orbit: orbit exceeded %d states (is a declared \
            permutation really a bijection?)"
           max_orbit);
    !members

  let canonicalizer ?(compare = Stdlib.compare) ?max_orbit ~equal spec =
    match spec.generators with
    | [] -> fun s -> s
    | gens ->
      fun s ->
        List.fold_left
          (fun best x -> if compare x best < 0 then x else best)
          s
          (orbit ?max_orbit ~equal gens s)

  (* ------------------------------------------------------------------ *)
  (* Equivariance verification. *)

  (* Distribution support with outcomes merged up to [equal] -- the image
     of a distribution under a permutation may identify targets the
     original kept apart only when the permutation is NOT injective,
     which is exactly what the comparison below would then expose. *)
  let merged_support ~equal outs =
    List.fold_left
      (fun acc (t, w) ->
         let rec go = function
           | [] -> [ (t, w) ]
           | (t', w') :: rest when equal t t' -> (t', Q.add w w') :: rest
           | x :: rest -> x :: go rest
         in
         go acc)
      [] outs

  let rec remove_outcome ~equal t w = function
    | [] -> None
    | (t', w') :: rest when equal t t' && Q.equal w w' -> Some rest
    | x :: rest ->
      Option.map (fun r -> x :: r) (remove_outcome ~equal t w rest)

  let dist_equal ~equal a b =
    List.length a = List.length b
    && (let remaining = ref b in
        List.for_all
          (fun (t, w) ->
             match remove_outcome ~equal t w !remaining with
             | Some rest ->
               remaining := rest;
               true
             | None -> false)
          a)

  let rec remove_step ~equal ~equal_action (a, outs) = function
    | [] -> None
    | (a', outs') :: rest when equal_action a a' && dist_equal ~equal outs outs'
      ->
      Some rest
    | x :: rest ->
      Option.map (fun r -> x :: r) (remove_step ~equal ~equal_action (a, outs) rest)

  (* Does [enabled (g s)] equal the g-image of [enabled s] as a multiset
     of (action, distribution) pairs? *)
  let equivariant_at ~equal ~equal_action pa g s =
    let image_steps =
      List.map
        (fun st ->
           ( g.on_action st.Core.Pa.action,
             merged_support ~equal
               (List.map
                  (fun (t, w) -> (g.on_state t, w))
                  (Proba.Dist.support st.Core.Pa.dist)) ))
        (Core.Pa.enabled pa s)
    in
    let target_steps =
      List.map
        (fun st ->
           ( st.Core.Pa.action,
             merged_support ~equal (Proba.Dist.support st.Core.Pa.dist) ))
        (Core.Pa.enabled pa (g.on_state s))
    in
    List.length image_steps = List.length target_steps
    && (let remaining = ref target_steps in
        List.for_all
          (fun step ->
             match remove_step ~equal ~equal_action step !remaining with
             | Some rest ->
               remaining := rest;
               true
             | None -> false)
          image_steps)

  (* Deterministic 30-bit fingerprint accumulator: position-dependent
     mixing of the state hashes a generator was spot-checked at, printed
     as hex in the certificate so two runs over the same fragment can be
     compared at a glance. *)
  let mix fp h = ((fp * 131) + h + 1) land 0x3FFFFFFF

  let verify ~model ?(reduced = false) ?max_orbit ?(max_checks = 1_000_000)
      spec expl =
    let pa = Mdp.Explore.automaton expl in
    let equal = Core.Pa.equal_state pa in
    let equal_action = Core.Pa.equal_action pa in
    let hash = Core.Pa.hash_state pa in
    let pp_state s = Format.asprintf "%a" (Core.Pa.pp_state pa) s in
    let gens = spec.generators in
    let n = Mdp.Explore.num_states expl in
    let ngens = List.length gens in
    (* Check every state of every orbit when that fits [max_checks]
       (state, generator) evaluations; otherwise stride-sample the
       representatives.  The certificate records actual coverage. *)
    let full_states = ref 0 in
    let states_checked = ref 0 in
    let budget_per_gen = if ngens = 0 then max_checks else max_checks / ngens in
    let stride =
      if reduced then 1 (* orbit expansion below handles the volume *)
      else max 1 ((n + budget_per_gen - 1) / max 1 budget_per_gen)
    in
    let pa030 : (string, string) Hashtbl.t = Hashtbl.create 4 in
    let pa031 : (string, string) Hashtbl.t = Hashtbl.create 4 in
    let fps : (string, int) Hashtbl.t = Hashtbl.create 4 in
    List.iter (fun g -> Hashtbl.replace fps g.gen_name 0) gens;
    (* Start-set invariance: the image of a start state must be a start
       state, else the permutation moves the automaton, not just its
       state space. *)
    let starts = Core.Pa.start pa in
    List.iter
      (fun g ->
         List.iter
           (fun s0 ->
              let img = g.on_state s0 in
              if not (List.exists (equal img) starts)
              && not (Hashtbl.mem pa030 g.gen_name) then
                Hashtbl.replace pa030 g.gen_name
                  (Printf.sprintf
                     "start state %s maps to %s, which is not a start state"
                     (pp_state s0) (pp_state img)))
           starts)
      gens;
    let check_state s =
      incr states_checked;
      List.iter
        (fun g ->
           if not (Hashtbl.mem pa030 g.gen_name) then begin
             Hashtbl.replace fps g.gen_name
               (mix (Hashtbl.find fps g.gen_name)
                  (hash s + hash (g.on_state s)));
             if not (equivariant_at ~equal ~equal_action pa g s) then
               Hashtbl.replace pa030 g.gen_name
                 (Printf.sprintf
                    "steps(%s) is not the %s-image of steps(%s)"
                    (pp_state (g.on_state s)) g.gen_name (pp_state s))
           end)
        gens;
      List.iter
        (fun p ->
           let pname = Core.Pred.name p and pred = Core.Pred.mem p in
           if not (Hashtbl.mem pa031 pname) then
             let here = pred s in
             List.iter
               (fun g ->
                  if not (Hashtbl.mem pa031 pname)
                  && pred (g.on_state s) <> here then
                    Hashtbl.replace pa031 pname
                      (Printf.sprintf
                         "%s holds of %s but not of its %s-image %s"
                         pname
                         (pp_state (if here then s else g.on_state s))
                         g.gen_name
                         (pp_state (if here then g.on_state s else s))))
               gens)
        spec.invariant_preds
    in
    if gens <> [] then
      for i = 0 to n - 1 do
        let rep = Mdp.Explore.state expl i in
        if reduced then begin
          (* A reduced fragment stores one representative per orbit;
             checking equivariance at EVERY orbit member is what makes
             the certificate cover the unreduced reachable set: the
             orbits of the representatives are exactly the reachable
             states of the full automaton. *)
          let members = orbit ?max_orbit ~equal gens rep in
          full_states := !full_states + List.length members;
          List.iter check_state members
        end
        else begin
          incr full_states;
          if i mod stride = 0 then check_state rep
        end
      done;
    let diags =
      List.filter_map
        (fun g ->
           Option.map
             (fun w ->
                Diagnostic.v ~witness:w Diagnostic.PA030 Diagnostic.Error
                  ~model
                  (Printf.sprintf
                     "declared permutation %s is not an automorphism of the \
                      explored fragment"
                     g.gen_name))
             (Hashtbl.find_opt pa030 g.gen_name))
        gens
      @ List.filter_map
          (fun p ->
             let pname = Core.Pred.name p in
             Option.map
               (fun w ->
                  Diagnostic.v ~witness:w Diagnostic.PA031 Diagnostic.Error
                    ~model
                    (Printf.sprintf
                       "predicate %s is not invariant under the declared \
                        symmetry group; orbit reduction would be unsound"
                       pname))
               (Hashtbl.find_opt pa031 pname))
          spec.invariant_preds
    in
    if diags <> [] || gens = [] then (diags, None)
    else begin
      let cert =
        { cert_generators =
            List.map
              (fun g ->
                 (g.gen_name, Printf.sprintf "%08x" (Hashtbl.find fps g.gen_name)))
              gens;
          states_checked = !states_checked;
          full_states = !full_states;
          reduced;
          preds_checked = List.map Core.Pred.name spec.invariant_preds }
      in
      (* PA032: the group is certified but the fragment was explored
         unreduced -- measure what reduction would save. *)
      let advisory =
        if reduced then []
        else begin
          let canon = canonicalizer ~equal spec in
          let reps = Mdp.Funtbl.create ~equal ~hash 1024 in
          let distinct = ref 0 in
          for i = 0 to n - 1 do
            ignore
              (Mdp.Funtbl.find_or_add reps (canon (Mdp.Explore.state expl i))
                 (fun _ -> incr distinct))
          done;
          if !distinct < n then
            [ Diagnostic.v Diagnostic.PA032 Diagnostic.Info ~model
                (Printf.sprintf
                   "model is symmetric under the certified group but was \
                    explored unreduced: %d states collapse to %d orbit \
                    representatives (%.2fx); explore with symmetry reduction \
                    (--sym on) to check the quotient"
                   n !distinct
                   (float_of_int n /. float_of_int !distinct)) ]
          else []
        end
      in
      (advisory, Some cert)
    end
end

(* ------------------------------------------------------------------ *)
(* The exploration as it stood before interning looked a successor up
   before canonicalizing it: every state, start states included, went
   through [canon] and then [find_or_add].  Copied verbatim, as the
   reference the current [Mdp.Explore] must agree with state for state
   and step for step. *)

module Reference_bfs = struct
  module Funtbl = Mdp.Funtbl

  type 'a step = 'a Test_support.Rows.step = {
    action : 'a;
    outcomes : (int * Proba.Rational.t) array;
  }

  exception Too_many_states of int

  let bfs ?hard_max ?(stop = fun ~interned:_ -> None) ?(canon = fun s -> s) m =
    let table =
      Funtbl.create ~equal:(Core.Pa.equal_state m) ~hash:(Core.Pa.hash_state m)
        1024
    in
    let states = ref [] in
    let count = ref 0 in
    let queue = Queue.create () in
    let intern s =
      let s = canon s in
      Funtbl.find_or_add table s (fun _ ->
          (match hard_max with
           | Some bound when !count >= bound -> raise (Too_many_states bound)
           | Some _ | None -> ());
          incr count;
          states := s :: !states;
          Queue.add s queue)
    in
    let start_indices = List.map intern (Core.Pa.start m) in
    let steps_acc = ref [] in
    let expanded = ref 0 in
    let stopped = ref None in
    while !stopped = None && not (Queue.is_empty queue) do
      Core.Budget.poll ();
      match stop ~interned:!count with
      | Some _ as reason -> stopped := reason
      | None ->
        let s = Queue.take queue in
        let steps =
          List.map
            (fun step ->
               let outcomes =
                 List.map
                   (fun (target, w) -> (intern target, w))
                   (Proba.Dist.support step.Core.Pa.dist)
               in
               let rec coalesce acc = function
                 | [] -> List.rev acc
                 | (i, w) :: rest ->
                   let same, rest =
                     List.partition (fun (j, _) -> j = i) rest
                   in
                   let w =
                     List.fold_left
                       (fun w (_, w') -> Proba.Rational.add w w')
                       w same
                   in
                   coalesce ((i, w) :: acc) rest
               in
               let outcomes = coalesce [] outcomes in
               { action = step.Core.Pa.action;
                 outcomes = Array.of_list outcomes })
            (Core.Pa.enabled m s)
        in
        steps_acc := Array.of_list steps :: !steps_acc;
        incr expanded
    done;
    let n = !count in
    let states_arr =
      match !states with
      | [] -> [||]
      | witness :: _ ->
        let arr = Array.make n witness in
        List.iteri (fun k s -> arr.(n - 1 - k) <- s) !states;
        arr
    in
    let steps_arr = Array.make n [||] in
    List.iteri
      (fun k st -> steps_arr.(!expanded - 1 - k) <- st)
      !steps_acc;
    (states_arr, steps_arr, start_indices, !expanded, !stopped)
end

(* ------------------------------------------------------------------ *)
(* Differential: reduced vs unreduced, all four case studies. *)

let test_lr_differential () =
  let off = LR.Proof.build ~n:3 () in
  let on = LR.Proof.build ~sym:Sym.On ~n:3 () in
  let cert = cert_exn on.LR.Proof.sym in
  Alcotest.(check bool) "quotient is smaller" true
    (Mdp.Arena.num_states on.LR.Proof.arena
     < Mdp.Arena.num_states off.LR.Proof.arena);
  Alcotest.(check int) "certificate counts the unreduced space"
    (Mdp.Arena.num_states off.LR.Proof.arena)
    cert.Sym.full_states;
  List.iter2
    (fun (a : LR.Proof.arrow) (b : LR.Proof.arrow) ->
       Alcotest.check q ("attained " ^ a.Mdp.Checker.label)
         a.Mdp.Checker.attained b.Mdp.Checker.attained)
    (LR.Proof.arrows off) (LR.Proof.arrows on);
  Alcotest.(check string) "composed claim"
    (claim_str (LR.Proof.composed off))
    (claim_str (LR.Proof.composed on));
  Alcotest.check q "direct bound"
    (LR.Proof.direct_bound off) (LR.Proof.direct_bound on)

let test_lr_float_plane () =
  let off = LR.Proof.build ~n:3 () in
  let on = LR.Proof.build ~sym:Sym.On ~n:3 () in
  let run (inst : LR.Proof.instance) =
    min_over inst.LR.Proof.arena ~pred:LR.Regions.t ~target:LR.Regions.c
      ~ticks:(Core.Timed.within ~granularity:1 ~time:(Q.of_int 13))
  in
  Alcotest.check q "13-unit exact minimum" (run off) (run on)

let test_election_differential () =
  let off = IR.Proof.build ~n:3 () in
  let on = IR.Proof.build ~sym:Sym.On ~n:3 () in
  let cert = cert_exn on.IR.Proof.sym in
  Alcotest.(check int) "certificate counts the unreduced space"
    (Mdp.Arena.num_states off.IR.Proof.arena)
    cert.Sym.full_states;
  List.iter2
    (fun (a : IR.Proof.arrow) (b : IR.Proof.arrow) ->
       Alcotest.check q ("attained " ^ a.Mdp.Checker.label)
         a.Mdp.Checker.attained b.Mdp.Checker.attained)
    (IR.Proof.arrows off) (IR.Proof.arrows on);
  Alcotest.(check string) "composed claim"
    (claim_str (IR.Proof.composed off))
    (claim_str (IR.Proof.composed on));
  Alcotest.check q "direct bound"
    (IR.Proof.direct_bound off) (IR.Proof.direct_bound on)

let test_coin_differential () =
  let off = SC.Proof.build ~n:2 ~bound:3 () in
  let on = SC.Proof.build ~sym:Sym.On ~n:2 ~bound:3 () in
  let cert = cert_exn on.SC.Proof.sym in
  Alcotest.(check int) "certificate counts the unreduced space"
    (Mdp.Arena.num_states off.SC.Proof.arena)
    cert.Sym.full_states;
  List.iter2
    (fun (a : SC.Proof.arrow) (b : SC.Proof.arrow) ->
       Alcotest.check q ("attained " ^ a.Mdp.Checker.label)
         a.Mdp.Checker.attained b.Mdp.Checker.attained)
    (SC.Proof.arrows off) (SC.Proof.arrows on);
  Alcotest.(check string) "composed claim"
    (claim_str (SC.Proof.composed off))
    (claim_str (SC.Proof.composed on));
  Alcotest.check q "direct bound"
    (SC.Proof.direct_bound off) (SC.Proof.direct_bound on)

let test_consensus_differential () =
  let n = 3 and f = 1 and cap = 2 in
  let initial = Array.init n (fun i -> i = n - 1) in
  let off = BO.Proof.build ~n ~f ~cap ~initial () in
  let on = BO.Proof.build ~sym:Sym.On ~n ~f ~cap ~initial () in
  let cert = cert_exn on.BO.Proof.sym in
  Alcotest.(check int) "certificate counts the unreduced space"
    (Mdp.Arena.num_states off.BO.Proof.arena)
    cert.Sym.full_states;
  Alcotest.(check bool) "agreement holds on both" true
    (BO.Proof.agreement_violation off = None
     && BO.Proof.agreement_violation on = None);
  let rounds = List.init cap (fun r -> r + 1) in
  List.iter2
    (fun a b -> Alcotest.check q "decision curve point" a b)
    (BO.Proof.decision_curve off ~rounds)
    (BO.Proof.decision_curve on ~rounds)

(* ------------------------------------------------------------------ *)
(* Fixtures that must fire. *)

(* A line topology has no nontrivial side-preserving automorphism, so a
   hand-declared "rotation" must be refuted by the verifier. *)
let broken_line_spec topo =
  let n = LR.Topology.num_procs topo in
  let r = LR.Topology.num_resources topo in
  let pi = Array.init n (fun i -> (i + 1) mod n) in
  let rho = Array.init r (fun j -> (j + 1) mod r) in
  Sym.spec
    [ Sym.generator ~name:"bogus-rotation"
        ~on_state:(LR.Symmetry.apply_state (pi, rho))
        ~on_action:(LR.Symmetry.apply_action pi) ]

let test_pa030_fires () =
  let topo = LR.Topology.line 3 in
  let pa = LR.Automaton.make_general ~topo ~g:1 ~k:1 in
  let expl = Mdp.Explore.run pa in
  let diags, cert =
    Sym.verify ~model:"lr-line-broken" (broken_line_spec topo) expl
  in
  Alcotest.(check bool) "PA030 fired" true
    (has_code Analysis.Diagnostic.PA030 diags);
  Alcotest.(check bool) "no certificate" true (cert = None)

let test_pa030_not_certified () =
  let topo = LR.Topology.line 3 in
  let pa = LR.Automaton.make_general ~topo ~g:1 ~k:1 in
  Alcotest.check_raises "sym=on refuses the broken declaration"
    (Match_failure ("", 0, 0)) (fun () ->
        try
          ignore
            (Sym.explored ~model:"lr-line-broken" ~mode:Sym.On
               (broken_line_spec topo) pa)
        with Sym.Not_certified _ -> raise (Match_failure ("", 0, 0)))

(* A predicate naming a specific process index is not invariant under
   the (verified) ring rotations. *)
let test_pa031_fires () =
  let pred0 s = s.LR.State.procs.(0).LR.State.region = LR.State.Crit in
  let spec = LR.Symmetry.ring ~extra:[ ("proc0-crit", pred0) ] ~n:3 () in
  let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  let expl = Mdp.Explore.run pa in
  let diags, cert = Sym.verify ~model:"lr-proc0" spec expl in
  Alcotest.(check bool) "PA031 fired" true
    (has_code Analysis.Diagnostic.PA031 diags);
  Alcotest.(check bool) "PA030 clean" false
    (has_code Analysis.Diagnostic.PA030 diags);
  Alcotest.(check bool) "no certificate" true (cert = None)

(* Unreduced exploration of a certifiably symmetric model gets the
   advisory (with a certificate: the group itself verified fine). *)
let test_pa032_advisory () =
  let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  let expl = Mdp.Explore.run pa in
  let diags, cert =
    Sym.verify ~model:"lr-unreduced" (LR.Symmetry.ring ~n:3 ()) expl
  in
  Alcotest.(check bool) "PA032 fired" true
    (has_code Analysis.Diagnostic.PA032 diags);
  (match
     List.find_opt
       (fun d -> d.Analysis.Diagnostic.code = Analysis.Diagnostic.PA032)
       diags
   with
   | Some d ->
     Alcotest.(check bool) "advisory severity is Info" true
       (d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Info)
   | None -> ());
  let cert = cert_exn cert in
  Alcotest.(check bool) "not a quotient" false cert.Sym.reduced;
  Alcotest.(check int) "full space = fragment" (Mdp.Explore.num_states expl)
    cert.Sym.full_states

(* ------------------------------------------------------------------ *)
(* The verifier against its pre-rewrite copy: the same diagnostics,
   witness text included, and the same certificate, fingerprints
   included, on reduced, unreduced and stride-sampled fragments of every
   case study and on the broken fixtures. *)

let verdict_text (diags, cert) =
  String.concat "\n"
    (List.map
       (fun d ->
          Format.asprintf "%a | witness: %s" Analysis.Diagnostic.pp d
            (Option.value d.Analysis.Diagnostic.witness ~default:"-"))
       diags
     @ [ (match cert with
         | None -> "no certificate"
         | Some c -> Analysis.Json.to_string (Sym.certificate_to_json c)) ])

let same_as_legacy name ?reduced ?max_checks spec expl =
  let before = Legacy.verify ~model:name ?reduced ?max_checks spec expl in
  let now = Sym.verify ~model:name ?reduced ?max_checks spec expl in
  Alcotest.(check string) (name ^ ": diagnostics and certificate")
    (verdict_text before) (verdict_text now);
  Alcotest.(check bool) (name ^ ": structurally equal") true (before = now);
  now

let reduced_expl spec pa =
  Mdp.Explore.run
    ~canon:(Sym.canonicalizer ~equal:(Core.Pa.equal_state pa) spec) pa

let legacy_modes name spec pa =
  let certified (_, cert) = ignore (cert_exn cert) in
  certified (same_as_legacy (name ^ " reduced") ~reduced:true spec
               (reduced_expl spec pa));
  let expl = Mdp.Explore.run pa in
  certified (same_as_legacy (name ^ " unreduced") spec expl);
  let _, cert =
    same_as_legacy (name ^ " sampled")
      ~max_checks:(Mdp.Explore.num_states expl / 4)
      spec expl
  in
  Alcotest.(check bool) (name ^ " sampled: a strict subset") true
    ((cert_exn cert).Sym.states_checked < Mdp.Explore.num_states expl)

let test_legacy_lr () =
  legacy_modes "lr" (LR.Symmetry.ring ~n:3 ())
    (LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 })

let test_legacy_star () =
  let topo = LR.Topology.star 3 in
  legacy_modes "lr:star" (LR.Symmetry.spec topo)
    (LR.Automaton.make_general ~topo ~g:1 ~k:1)

let test_legacy_election () =
  let params = { IR.Automaton.n = 3; g = 1; k = 1 } in
  legacy_modes "itai_rodeh" (IR.Symmetry.spec params) (IR.Automaton.make params)

let test_legacy_coin () =
  let params = { SC.Automaton.n = 2; bound = 3; g = 1; k = 1 } in
  legacy_modes "shared_coin" (SC.Symmetry.spec params)
    (SC.Automaton.make params)

let test_legacy_consensus () =
  let initial = [| false; false; true |] in
  let params = { BO.Automaton.n = 3; f = 1; cap = 2; g = 1; k = 1 } in
  legacy_modes "ben_or"
    (BO.Symmetry.spec params ~initial)
    (BO.Automaton.make ~initial params)

let test_legacy_fixtures () =
  let fires code name ?reduced spec expl =
    let diags, _ = same_as_legacy name ?reduced spec expl in
    Alcotest.(check bool) (name ^ " fires") true (has_code code diags)
  in
  let topo = LR.Topology.line 3 in
  let line = LR.Automaton.make_general ~topo ~g:1 ~k:1 in
  let broken = broken_line_spec topo in
  fires Analysis.Diagnostic.PA030 "lr-line-broken" broken
    (Mdp.Explore.run line);
  fires Analysis.Diagnostic.PA030 "lr-line-broken reduced" ~reduced:true
    broken (reduced_expl broken line);
  let pred0 s = s.LR.State.procs.(0).LR.State.region = LR.State.Crit in
  let pinned = LR.Symmetry.ring ~extra:[ ("proc0-crit", pred0) ] ~n:3 () in
  let ring = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  fires Analysis.Diagnostic.PA031 "lr-proc0" pinned (Mdp.Explore.run ring);
  fires Analysis.Diagnostic.PA031 "lr-proc0 reduced" ~reduced:true pinned
    (reduced_expl pinned ring);
  (* Two predicates under one name share one verdict and one witness. *)
  let pred1 s = s.LR.State.procs.(1).LR.State.region = LR.State.Crit in
  let twice =
    LR.Symmetry.ring ~extra:[ ("proc-crit", pred1); ("proc-crit", pred0) ]
      ~n:3 ()
  in
  fires Analysis.Diagnostic.PA031 "lr-proc-crit twice" twice
    (Mdp.Explore.run ring)

(* ------------------------------------------------------------------ *)
(* Streamed certification against the legacy verifier: [explored]
   certifies chunks of representatives while the quotient is being
   explored, with helpers forced so that it runs concurrently even on a
   one-core host.  It must return the certificate the legacy verifier
   gives the finished quotient, fall back under [Auto] where that
   refuses, and refuse under [On] with the message [require] builds
   from the legacy diagnostics. *)

let refusal f =
  match f () with
  | _ -> "certified"
  | exception Sym.Not_certified msg -> msg

let streamed_as_legacy name spec pa =
  let quotient = reduced_expl spec pa in
  let legacy = Legacy.verify ~model:name ~reduced:true spec quotient in
  let explored mode = Sym.explored ~helpers:2 ~model:name ~mode spec pa in
  let expl, cert = explored Sym.Auto in
  (match legacy with
   | diags, Some expected ->
     Alcotest.(check int) (name ^ ": no diagnostics") 0 (List.length diags);
     Alcotest.(check bool) (name ^ ": same certificate") true
       (cert = Some expected);
     Alcotest.(check int) (name ^ ": the quotient")
       (Mdp.Explore.num_states quotient) (Mdp.Explore.num_states expl)
   | _, None ->
     Alcotest.(check bool) (name ^ ": no certificate") true (cert = None);
     Alcotest.(check int) (name ^ ": fell back unreduced")
       (Mdp.Explore.num_states (Mdp.Explore.run pa))
       (Mdp.Explore.num_states expl);
     Alcotest.(check string) (name ^ ": same refusal under On")
       (refusal (fun () -> Sym.require ~model:name legacy))
       (refusal (fun () -> explored Sym.On)))

let test_streamed_lr () =
  let ring g = LR.Automaton.make { LR.Automaton.n = 3; g; k = 1 } in
  streamed_as_legacy "lr" (LR.Symmetry.ring ~n:3 ()) (ring 1);
  streamed_as_legacy "lr g=2" (LR.Symmetry.ring ~n:3 ()) (ring 2);
  List.iter
    (fun topo ->
       streamed_as_legacy
         ("lr:" ^ LR.Topology.name topo)
         (LR.Symmetry.spec topo)
         (LR.Automaton.make_general ~topo ~g:1 ~k:1))
    [ LR.Topology.star 3; LR.Topology.line 3 ]

let test_streamed_others () =
  List.iter
    (fun n ->
       let ir = { IR.Automaton.n; g = 1; k = 1 } in
       streamed_as_legacy
         (Printf.sprintf "election n=%d" n)
         (IR.Symmetry.spec ir) (IR.Automaton.make ir))
    [ 5; 6 ];
  let sc = { SC.Automaton.n = 2; bound = 4; g = 1; k = 1 } in
  streamed_as_legacy "coin" (SC.Symmetry.spec sc) (SC.Automaton.make sc);
  let initial = [| false; false; true |] in
  let bo = { BO.Automaton.n = 3; f = 1; cap = 2; g = 1; k = 1 } in
  streamed_as_legacy "consensus"
    (BO.Symmetry.spec bo ~initial)
    (BO.Automaton.make ~initial bo)

let test_streamed_broken () =
  let topo = LR.Topology.line 3 in
  streamed_as_legacy "lr-line-broken" (broken_line_spec topo)
    (LR.Automaton.make_general ~topo ~g:1 ~k:1);
  let pred0 s = s.LR.State.procs.(0).LR.State.region = LR.State.Crit in
  streamed_as_legacy "lr-proc0"
    (LR.Symmetry.ring ~extra:[ ("proc0-crit", pred0) ] ~n:3 ())
    (LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 })

(* ------------------------------------------------------------------ *)
(* Exploration against the reference BFS: the same states in the same
   order, the same steps, start indices and expansion count, reduced
   and unreduced, unbounded and bounded.  The reduced runs count the
   canonicalizer's calls on both sides. *)

let same_steps (a : _ Test_support.Rows.step array)
    (b : _ Test_support.Rows.step array) =
  let same_step (x : _ Test_support.Rows.step) (y : _ Test_support.Rows.step) =
    x.Test_support.Rows.action = y.Test_support.Rows.action
    && Array.length x.Test_support.Rows.outcomes
       = Array.length y.Test_support.Rows.outcomes
    && Array.for_all2
         (fun (j, w) (j', w') -> j = j' && Q.equal w w')
         x.Test_support.Rows.outcomes y.Test_support.Rows.outcomes
  in
  Array.length a = Array.length b && Array.for_all2 same_step a b

let same_exploration name ?max_states pa spec ~reduced =
  let canon_calls = ref 0 in
  let counted () =
    let canon = Sym.canonicalizer ~equal:(Core.Pa.equal_state pa) spec in
    canon_calls := 0;
    fun s ->
      incr canon_calls;
      canon s
  in
  let canon () = if reduced then Some (counted ()) else None in
  let states, steps, starts, expanded, _ =
    Reference_bfs.bfs ?hard_max:max_states ?canon:(canon ()) pa
  in
  let reference_calls = !canon_calls in
  let interned = ref [] in
  let expl =
    Mdp.Explore.run ?max_states ?canon:(canon ())
      ~on_intern:(fun i s -> interned := (i, s) :: !interned)
      pa
  in
  Alcotest.(check int) (name ^ ": states") (Array.length states)
    (Mdp.Explore.num_states expl);
  (* [on_intern] saw every index once, in order, with its state. *)
  Alcotest.(check bool) (name ^ ": on_intern in index order") true
    (List.rev !interned = List.mapi (fun i s -> (i, s)) (Array.to_list states));
  Alcotest.(check int) (name ^ ": expanded") expanded
    (Mdp.Explore.num_expanded expl);
  Alcotest.(check (list int)) (name ^ ": start indices") starts
    (Mdp.Explore.start_indices expl);
  Array.iteri
    (fun i s ->
       if not (s = Mdp.Explore.state expl i) then
         Alcotest.failf "%s: state %d differs" name i;
       if not (same_steps steps.(i) (Test_support.Rows.steps expl i)) then
         Alcotest.failf "%s: steps of state %d differ" name i;
       match Mdp.Explore.index expl s with
       | Some j when j = i -> ()
       | _ -> Alcotest.failf "%s: index of state %d" name i)
    states;
  (expl, reference_calls, !canon_calls)

let both_ways name pa spec =
  ignore (same_exploration (name ^ " unreduced") pa spec ~reduced:false);
  ignore (same_exploration (name ^ " reduced") pa spec ~reduced:true)

let test_explore_lr () =
  let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  let spec = LR.Symmetry.ring ~n:3 () in
  ignore (same_exploration "lr unreduced" pa spec ~reduced:false);
  let expl, reference_calls, calls =
    same_exploration "lr reduced" pa spec ~reduced:true
  in
  let successors =
    reference_calls - List.length (Core.Pa.start (Mdp.Explore.automaton expl))
  in
  Alcotest.(check bool)
    (Printf.sprintf "fewer canonicalizations (%d) than successors (%d)" calls
       successors)
    true (calls < successors);
  (* Any orbit member resolves to its representative. *)
  List.iter
    (fun g ->
       for i = 0 to Mdp.Explore.num_states expl - 1 do
         let image = g.Sym.on_state (Mdp.Explore.state expl i) in
         if Mdp.Explore.index expl image <> Some i then
           Alcotest.failf "image of representative %d not resolved" i
       done)
    spec.Sym.generators

let test_explore_topologies () =
  List.iter
    (fun topo ->
       both_ways
         (LR.Topology.name topo)
         (LR.Automaton.make_general ~topo ~g:1 ~k:1)
         (LR.Symmetry.spec topo))
    [ LR.Topology.star 3; LR.Topology.line 3 ]

let test_explore_others () =
  let ir = { IR.Automaton.n = 5; g = 1; k = 1 } in
  both_ways "election n=5" (IR.Automaton.make ir) (IR.Symmetry.spec ir);
  let sc = { SC.Automaton.n = 2; bound = 4; g = 1; k = 1 } in
  both_ways "coin (2,4)" (SC.Automaton.make sc) (SC.Symmetry.spec sc);
  let initial = [| false; false; true |] in
  let bo = { BO.Automaton.n = 3; f = 1; cap = 2; g = 1; k = 1 } in
  both_ways "consensus n=3"
    (BO.Automaton.make ~initial bo)
    (BO.Symmetry.spec bo ~initial)

(* A bound the reachable set fits in changes nothing; a tighter one
   stops both BFSs at exactly the bound. *)
let test_explore_budgeted () =
  let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  let spec = LR.Symmetry.ring ~n:3 () in
  List.iter
    (fun reduced ->
       let full, _, _ = same_exploration "lr" pa spec ~reduced in
       let fits = Mdp.Explore.num_states full in
       ignore (same_exploration "lr bounded" ~max_states:fits pa spec ~reduced);
       let refused f =
         match f () with
         | _ -> None
         | exception Reference_bfs.Too_many_states b -> Some b
         | exception Mdp.Explore.Too_many_states b -> Some b
       in
       let canon () =
         if reduced then
           Some (Sym.canonicalizer ~equal:(Core.Pa.equal_state pa) spec)
         else None
       in
       Alcotest.(check (option int)) "reference stops at the bound"
         (Some 200)
         (refused (fun () ->
              ignore (Reference_bfs.bfs ~hard_max:200 ?canon:(canon ()) pa)));
       Alcotest.(check (option int)) "explore stops at the bound" (Some 200)
         (refused (fun () ->
              ignore (Mdp.Explore.run ~max_states:200 ?canon:(canon ()) pa))))
    [ false; true ]

(* Every case-study fragment spreads its states over distinct hashes;
   a hash that reads only part of the state turns each intern into a
   long chain scan. *)
let test_hash_spread () =
  let spread name pa =
    let expl = Mdp.Explore.run pa in
    let n = Mdp.Explore.num_states expl in
    let seen = Hashtbl.create n in
    for i = 0 to n - 1 do
      Hashtbl.replace seen (Core.Pa.hash_state pa (Mdp.Explore.state expl i)) ()
    done;
    let distinct = Hashtbl.length seen in
    if 100 * distinct < 95 * n then
      Alcotest.failf "%s: %d distinct hashes over %d states" name distinct n
  in
  spread "lr ring n=3" (LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 });
  List.iter
    (fun topo ->
       spread (LR.Topology.name topo)
         (LR.Automaton.make_general ~topo ~g:1 ~k:1))
    [ LR.Topology.star 3; LR.Topology.line 3 ];
  spread "election n=7"
    (IR.Automaton.make { IR.Automaton.n = 7; g = 1; k = 1 });
  spread "coin (2,4)"
    (SC.Automaton.make { SC.Automaton.n = 2; bound = 4; g = 1; k = 1 });
  spread "consensus n=3"
    (BO.Automaton.make ~initial:[| false; false; true |]
       { BO.Automaton.n = 3; f = 1; cap = 2; g = 1; k = 1 })

(* ------------------------------------------------------------------ *)
(* [LR.State.equal] is structural equality, with equal hashes on equal
   states: checked on every state of the unreduced ring and star
   fragments, their generator images, single-field mutations of them,
   and ring states against star states (whose resource arrays are
   longer). *)

let agrees a b =
  if LR.State.equal a b <> (a = b) then
    Alcotest.failf "State.equal %a %a disagrees with (=)" LR.State.pp a
      LR.State.pp b;
  if a = b && LR.State.hash a <> LR.State.hash b then
    Alcotest.failf "equal states %a hash apart" LR.State.pp a

let mutations (s : LR.State.t) =
  let with_proc i f =
    let procs = Array.copy s.LR.State.procs in
    procs.(i) <- f procs.(i);
    { s with LR.State.procs }
  in
  let other_region (r : LR.State.region) : LR.State.region =
    match r with Rem -> Flip | _ -> Rem
  in
  let flip_side (r : LR.State.region) : LR.State.region option =
    match r with
    | Wait u -> Some (Wait (LR.State.opp u))
    | Second u -> Some (Second (LR.State.opp u))
    | Drop u -> Some (Drop (LR.State.opp u))
    | Exit_s u -> Some (Exit_s (LR.State.opp u))
    | _ -> None
  in
  List.concat
    (List.init (Array.length s.LR.State.procs) (fun i ->
         [ with_proc i (fun p -> { p with region = other_region p.region });
           with_proc i (fun p -> { p with c = p.c + 1 });
           with_proc i (fun p -> { p with b = p.b + 1 }) ]
         @
         match flip_side s.LR.State.procs.(i).LR.State.region with
         | Some region -> [ with_proc i (fun p -> { p with region }) ]
         | None -> []))
  @ List.init (Array.length s.LR.State.res) (fun j ->
      let res = Array.copy s.LR.State.res in
      res.(j) <- not res.(j);
      { s with LR.State.res })

let test_state_equal () =
  let fragment topo =
    let pa = LR.Automaton.make_general ~topo ~g:1 ~k:1 in
    let expl = Mdp.Explore.run pa in
    let states =
      Array.init (Mdp.Explore.num_states expl) (Mdp.Explore.state expl)
    in
    Array.iter
      (fun s ->
         agrees s s;
         (* A deep copy shares nothing with [s]. *)
         agrees s
           { LR.State.procs =
               Array.map
                 (fun (p : LR.State.proc) -> { p with c = p.c })
                 s.LR.State.procs;
             res = Array.copy s.LR.State.res };
         List.iter
           (fun g ->
              let image = g.Sym.on_state s in
              agrees s image;
              agrees image s;
              (* The image is itself reachable: it equals the state the
                 exploration stored for it, a separately built value. *)
              match Mdp.Explore.index expl image with
              | Some j ->
                agrees image states.(j);
                Alcotest.(check bool) "image equals its stored state" true
                  (LR.State.equal image states.(j))
              | None -> Alcotest.fail "image not reachable")
           (LR.Symmetry.spec topo).Sym.generators;
         List.iter
           (fun m ->
              agrees s m;
              agrees m s)
           (mutations s))
      states;
    states
  in
  let ring = fragment (LR.Topology.ring 3) in
  let star = fragment (LR.Topology.star 3) in
  Array.iteri
    (fun i s ->
       let t = star.(i mod Array.length star) in
       agrees s t;
       agrees t s)
    ring;
  Alcotest.(check bool) "ring and star start states differ" false
    (LR.State.equal ring.(0) star.(0))

(* ------------------------------------------------------------------ *)
(* Generating sets: the declared generators are a subsequence of the
   automorphisms that generates the same group, so declaring them
   instead of every automorphism leaves the quotient and the
   certificate's coverage unchanged. *)

(* The group [gens] generate, identity included, as a sorted list of
   (pi, rho) pairs. *)
let group_of topo gens =
  let seen = Hashtbl.create 64 in
  let rec visit ((pi, rho) as x) =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.replace seen x ();
      List.iter
        (fun (gpi, grho) ->
           visit
             (Array.map (fun i -> gpi.(i)) pi, Array.map (fun r -> grho.(r)) rho))
        gens
    end
  in
  visit
    ( Array.init (LR.Topology.num_procs topo) Fun.id,
      Array.init (LR.Topology.num_resources topo) Fun.id );
  List.sort compare (Hashtbl.fold (fun x () acc -> x :: acc) seen [])

let rec is_subsequence xs ys =
  match xs, ys with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
    if x = y then is_subsequence xs' ys' else is_subsequence xs ys'

let test_generating_sets () =
  let check topo expected =
    let name = LR.Topology.name topo in
    let autos = LR.Topology.automorphisms topo in
    let gens = LR.Topology.generators topo in
    Alcotest.(check bool) (name ^ ": a subsequence") true
      (is_subsequence gens autos);
    Alcotest.(check int) (name ^ ": generators") expected (List.length gens);
    let group = group_of topo autos in
    Alcotest.(check int) (name ^ ": the listed automorphisms are a group")
      (List.length autos + 1) (List.length group);
    Alcotest.(check bool) (name ^ ": the same group") true
      (group_of topo gens = group)
  in
  List.iter (fun n -> check (LR.Topology.ring n) 1) [ 2; 3; 4; 5; 6 ];
  List.iter (fun n -> check (LR.Topology.line n) 0) [ 2; 3; 4; 5 ];
  List.iter (fun n -> check (LR.Topology.star n) (n - 1)) [ 2; 3; 4; 5 ]

(* Explore [pa]'s orbit quotient under both specs and certify it: the
   same states, steps and start indices, and the same coverage. *)
let same_quotient name pa ~declared ~generating =
  let explored spec = Sym.explored ~model:name ~mode:Sym.On spec pa in
  let e0, c0 = explored declared in
  let e1, c1 = explored generating in
  let c0 = cert_exn c0 and c1 = cert_exn c1 in
  let n = Mdp.Explore.num_states e0 in
  Alcotest.(check int) (name ^ ": states") n (Mdp.Explore.num_states e1);
  Alcotest.(check (list int)) (name ^ ": start indices")
    (Mdp.Explore.start_indices e0) (Mdp.Explore.start_indices e1);
  for i = 0 to n - 1 do
    if not (Mdp.Explore.state e0 i = Mdp.Explore.state e1 i) then
      Alcotest.failf "%s: state %d differs" name i;
    if
      not
        (same_steps (Test_support.Rows.steps e0 i)
           (Test_support.Rows.steps e1 i))
    then
      Alcotest.failf "%s: steps of state %d differ" name i
  done;
  Alcotest.(check int) (name ^ ": states checked") c0.Sym.states_checked
    c1.Sym.states_checked;
  Alcotest.(check int) (name ^ ": full states") c0.Sym.full_states
    c1.Sym.full_states;
  Alcotest.(check int) (name ^ ": generators certified")
    (List.length generating.Sym.generators)
    (List.length c1.Sym.cert_generators)

(* [spec] declaring every automorphism of [topo], as LR did before it
   declared a generating set. *)
let every_automorphism spec topo =
  { spec with
    Sym.generators =
      List.map
        (fun (pi, rho) ->
           Sym.generator
             ~name:
               (String.concat " " (Array.to_list (Array.map string_of_int pi)))
             ~on_state:(LR.Symmetry.apply_state (pi, rho))
             ~on_action:(LR.Symmetry.apply_action pi))
        (LR.Topology.automorphisms topo) }

let test_generating_quotients () =
  List.iter
    (fun (name, topo, spec) ->
       same_quotient name
         (LR.Automaton.make_general ~topo ~g:1 ~k:1)
         ~declared:(every_automorphism spec topo) ~generating:spec)
    [ ("lr ring n=3", LR.Topology.ring 3, LR.Symmetry.ring ~n:3 ());
      ("lr ring n=4", LR.Topology.ring 4, LR.Symmetry.ring ~n:4 ());
      ( "lr star n=3",
        LR.Topology.star 3,
        LR.Symmetry.spec (LR.Topology.star 3) ) ]

(* Ben-Or declares the adjacent transpositions within each class of
   equal initial values; every transposition in a class generates the
   same group. *)
let test_ben_or_adjacent () =
  let params n = { BO.Automaton.n; f = 1; cap = 2; g = 1; k = 1 } in
  let names n initial =
    List.map
      (fun g -> g.Sym.gen_name)
      (BO.Symmetry.generators (params n) ~initial)
  in
  Alcotest.(check (list string)) "n=3, [F;F;T]" [ "swap(0,1)" ]
    (names 3 [| false; false; true |]);
  Alcotest.(check (list string)) "n=4, [F;F;F;T]" [ "swap(0,1)"; "swap(1,2)" ]
    (names 4 [| false; false; false; true |]);
  Alcotest.(check (list string)) "n=4, [F;T;F;T]" [ "swap(0,2)"; "swap(1,3)" ]
    (names 4 [| false; true; false; true |]);
  let initial = [| false; false; false |] in
  let every_transposition =
    List.map
      (fun (a, b) ->
         let pi =
           Array.init 3 (fun i -> if i = a then b else if i = b then a else i)
         in
         Sym.generator
           ~name:(Printf.sprintf "swap(%d,%d)" a b)
           ~on_state:(BO.Symmetry.apply_state pi)
           ~on_action:(BO.Symmetry.apply_action pi))
      [ (0, 1); (0, 2); (1, 2) ]
  in
  let spec = BO.Symmetry.spec (params 3) ~initial in
  same_quotient "consensus n=3, all equal"
    (BO.Automaton.make ~initial (params 3))
    ~declared:{ spec with Sym.generators = every_transposition }
    ~generating:spec

(* ------------------------------------------------------------------ *)
(* Mechanics: orbits and canonicalizers. *)

let rot3 =
  Sym.generator ~name:"rot" ~on_state:(fun i -> (i + 1) mod 3)
    ~on_action:(fun () -> ())

let test_orbit () =
  let orbit = Sym.orbit ~equal:Int.equal [ rot3 ] 1 in
  Alcotest.(check (list int)) "orbit of 1 under +1 mod 3" [ 0; 1; 2 ]
    (List.sort compare orbit)

(* A generator that is not a bijection has an unbounded orbit; the
   closure refuses it by name at the cap, with one membership scan per
   new member and no recount of the members. *)
let test_orbit_refuses_non_bijection () =
  let succ =
    Sym.generator ~name:"succ" ~on_state:(fun i -> i + 1) ~on_action:Fun.id
  in
  Alcotest.check_raises "named refusal at the default cap"
    (Invalid_argument
       "Symmetry.orbit: orbit exceeded 40320 states (is a declared \
        permutation really a bijection?)")
    (fun () ->
       ignore (Sym.orbit ~equal:Int.equal [ succ ] 0))

(* A full symmetric group's orbit, S_7 on seven distinct labels (5 040
   members), against the reference closure: the hashed membership past
   the scan limit must close the same orbit, numbered exactly as the
   scan numbers it, and canonicalize every member alike.  The reference
   canonical form of every member is the one orbit's minimum (what
   [Legacy.canonicalizer] folds for each), taken once from the
   reference closure. *)
let test_large_orbit () =
  let n = 7 in
  let swap =
    Sym.generator ~name:"swap01" ~on_action:Fun.id ~on_state:(fun a ->
        let b = Array.copy a in
        b.(0) <- a.(1);
        b.(1) <- a.(0);
        b)
  and cycle =
    Sym.generator ~name:"cycle" ~on_action:Fun.id ~on_state:(fun a ->
        Array.init n (fun i -> a.((i + 1) mod n)))
  in
  let pa =
    Core.Pa.make ~start:[ Array.init n Fun.id ] ~enabled:(fun _ -> []) ()
  in
  let equal = Core.Pa.equal_state pa and hash = Core.Pa.hash_state pa in
  let s = [| 3; 0; 6; 1; 5; 2; 4 |] in
  let gens = [ swap; cycle ] in
  let hashed = Sym.orbit ~hash ~equal gens s in
  Alcotest.(check int) "7! members" 5040 (List.length hashed);
  Alcotest.(check bool) "numbered as the scan numbers it" true
    (hashed = Sym.orbit ~equal gens s);
  let reference = Legacy.orbit ~equal gens s in
  Alcotest.(check bool) "the reference closure's members" true
    (List.sort compare hashed = List.sort compare reference);
  let canon = Sym.canonicalizer ~hash ~equal (Sym.spec gens) in
  let minimum =
    List.fold_left (fun best x -> if compare x best < 0 then x else best)
      s reference
  in
  List.iteri
    (fun i m ->
       if i mod 97 = 0 && canon m <> minimum then
         Alcotest.failf "member %d canonicalizes differently" i)
    hashed

let test_canonicalizer () =
  let canon = Sym.canonicalizer ~equal:Int.equal (Sym.spec [ rot3 ]) in
  Alcotest.(check (list int)) "every state maps to the orbit minimum"
    [ 0; 0; 0 ] (List.map canon [ 0; 1; 2 ]);
  let id = Sym.canonicalizer ~equal:Int.equal (Sym.spec []) in
  Alcotest.(check int) "no generators: identity" 7 (id 7)

(* ------------------------------------------------------------------ *)
(* LR's in-place canonicalizer ([LR.Symmetry.spec]'s [canon]) against
   the generic closure it replaces: the same representative for every
   reachable state, built from the same [proc] records in the same
   positions -- snapshots marshal that sharing -- and [s] itself
   exactly when the closure returns [s]. *)

let reference_canon pa spec =
  Sym.canonicalizer ~equal:(Core.Pa.equal_state pa) { spec with Sym.canon = None }

let same_form name (s : LR.State.t) (got : LR.State.t) (want : LR.State.t) =
  if not (got = want) then
    Alcotest.failf "%s: %a canonicalizes to %a, not %a" name LR.State.pp s
      LR.State.pp got LR.State.pp want;
  if (got == s) <> (want == s) then
    Alcotest.failf "%s: %a: returned itself on one side only" name LR.State.pp
      s;
  Array.iteri
    (fun q p ->
       if p != want.LR.State.procs.(q) then
         Alcotest.failf "%s: %a: another record at position %d" name
           LR.State.pp s q)
    got.LR.State.procs

let reachable topo =
  let expl = Mdp.Explore.run (LR.Automaton.make_general ~topo ~g:1 ~k:1) in
  Array.init (Mdp.Explore.num_states expl) (Mdp.Explore.state expl)

let test_inplace_canon () =
  List.iter
    (fun (topo, declared) ->
       let name = LR.Topology.name topo in
       let pa = LR.Automaton.make_general ~topo ~g:1 ~k:1 in
       let spec = LR.Symmetry.spec topo in
       Alcotest.(check bool) (name ^ ": declares its own canonicalizer")
         declared (spec.Sym.canon <> None);
       let canon = Sym.canonicalizer ~equal:(Core.Pa.equal_state pa) spec in
       let reference = reference_canon pa spec in
       Array.iter (fun s -> same_form name s (canon s) (reference s))
         (reachable topo))
    [ (LR.Topology.ring 3, true); (LR.Topology.ring 4, true);
      (LR.Topology.star 3, true); (LR.Topology.star 4, true);
      (LR.Topology.line 3, false) ]

(* LR's generators carry an in-place image test, which the certifier
   trusts instead of building images: it must say what [on_state]
   followed by [State.equal] says, on images, on fixed points and on
   unrelated states. *)
let test_maps_to () =
  List.iter
    (fun topo ->
       let states = reachable topo in
       List.iter
         (fun g ->
            match g.Sym.maps_to with
            | None -> Alcotest.failf "%s: no in-place image test" g.Sym.gen_name
            | Some maps_to ->
              Array.iteri
                (fun i u ->
                   let image = g.Sym.on_state u in
                   List.iter
                     (fun v ->
                        if maps_to u v <> LR.State.equal image v then
                          Alcotest.failf "%s: maps_to %a %a disagrees"
                            g.Sym.gen_name LR.State.pp u LR.State.pp v)
                     [ image; u; states.((i + 1) mod Array.length states) ])
                states)
         (LR.Symmetry.spec topo).Sym.generators)
    [ LR.Topology.ring 3; LR.Topology.star 3 ]

(* The canonicalizer runs on Monte Carlo pool domains, served workers
   and proof-region tasks at once, so it must keep no shared scratch:
   two domains canonicalizing every reachable state at the same time
   get what one domain gets. *)
let test_canon_two_domains () =
  List.iter
    (fun topo ->
       let name = LR.Topology.name topo ^ " on two domains" in
       let pa = LR.Automaton.make_general ~topo ~g:1 ~k:1 in
       let canon =
         Sym.canonicalizer ~equal:(Core.Pa.equal_state pa)
           (LR.Symmetry.spec topo)
       in
       let states = reachable topo in
       let sequential = Array.map canon states in
       Array.iter
         (Array.iteri (fun i got -> same_form name states.(i) got sequential.(i)))
         (Test_support.Two_domains.run (fun () -> Array.map canon states)))
    [ LR.Topology.ring 3; LR.Topology.star 3 ]

(* A canonicalizer that picks an orbit's greatest member builds a
   quotient of the right size, but its representatives are not the
   minima the certifier demands: [--sym on] refuses it by code, and
   [Auto] falls back to the unreduced exploration. *)
let test_pa033_refused () =
  let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  let ring = LR.Symmetry.ring ~n:3 () in
  let greatest =
    Sym.canonicalizer ~compare:(fun a b -> Stdlib.compare b a)
      ~equal:(Core.Pa.equal_state pa) ring
  in
  let spec = { ring with Sym.canon = Some greatest } in
  let diags, cert =
    Sym.verify ~model:"lr-greatest" ~reduced:true spec
      (Mdp.Explore.run ~canon:greatest pa)
  in
  Alcotest.(check bool) "PA033 fired" true
    (has_code Analysis.Diagnostic.PA033 diags);
  Alcotest.(check bool) "no certificate" true (cert = None);
  (match Sym.explored ~model:"lr-greatest" ~mode:Sym.On spec pa with
   | _ -> Alcotest.fail "a quotient of orbit maxima was certified"
   | exception Sym.Not_certified msg ->
     Alcotest.(check bool) ("refused by code: " ^ msg) true
       (Astring.String.is_infix ~affix:"PA033" msg));
  let expl, cert = Sym.explored ~model:"lr-greatest" ~mode:Sym.Auto spec pa in
  Alcotest.(check bool) "auto: no certificate" true (cert = None);
  Alcotest.(check int) "auto: fell back unreduced" 8092
    (Mdp.Explore.num_states expl)

(* [--sym on] and [--sym off] bodies differ in one field only: the
   float [max_expected_time], which Gauss-Seidel reaches in another
   visiting order on the quotient (8.9166666666624224 against
   8.9166666666633319 on the n=3 ring).  Every exact field agrees. *)
let test_sym_bodies () =
  List.iter
    (fun topology ->
       let body sym =
         Server.Service.check_json
           { Server.Protocol.model = `Lr; n = 3; g = 1; k = 1; topology;
             bound = 4; cap = 2; max_states = None; sym; plane = "interval";
             deadline_ms = None }
       in
       match body "on", body "off" with
       | Analysis.Json.Obj on, Analysis.Json.Obj off ->
         Alcotest.(check (list string)) (topology ^ ": fields")
           (List.map fst off) (List.map fst on);
         List.iter2
           (fun (field, a) (_, b) ->
              match field, a, b with
              | "max_expected_time", Analysis.Json.Num x, Analysis.Json.Num y ->
                if Float.abs (x -. y) >= 1e-9 then
                  Alcotest.failf "%s: max_expected_time %.17g against %.17g"
                    topology x y
              | "max_expected_time", _, _ ->
                Alcotest.failf "%s: max_expected_time is not a float" topology
              | _ ->
                if a <> b then Alcotest.failf "%s: field %s differs" topology field)
           on off
       | _ -> Alcotest.failf "%s: not a JSON object" topology)
    [ "ring"; "star" ]

(* Words allocated per orbit member by [explored ~mode:On] on the n=3
   ring (8 092 members), exploration and certification together, inline
   on one domain: 202 are measured.  A return to per-member closures,
   lists or image states crosses the ceiling. *)
let words_per_member_ceiling = 1.25 *. 202.

let test_allocation_guard () =
  let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  let spec = LR.Symmetry.ring ~n:3 () in
  let per_member =
    Domain.join
      (Domain.spawn (fun () ->
           Parallel.Fork.mark_inline ();
           let before = Gc.minor_words () in
           let _, cert = Sym.explored ~model:"lr" ~mode:Sym.On spec pa in
           (Gc.minor_words () -. before)
           /. float_of_int (cert_exn cert).Sym.full_states))
  in
  if per_member > words_per_member_ceiling then
    Alcotest.failf "%.0f words per orbit member, over the ceiling of %.0f"
      per_member words_per_member_ceiling

(* [verify] folds each range of representatives from 0 and rejoins
   the folds: for any hash sequence and any split point the join must
   equal the fold over the whole sequence. *)
let fingerprint_merge_law =
  QCheck.Test.make ~name:"fingerprint join = sequential fold" ~count:500
    QCheck.(pair (list int) small_nat)
    (fun (hashes, cut) ->
       let fold = List.fold_left Sym.mix 0 in
       let cut = cut mod (List.length hashes + 1) in
       let left = List.filteri (fun i _ -> i < cut) hashes in
       let right = List.filteri (fun i _ -> i >= cut) hashes in
       Sym.join_fingerprints ~left:(fold left) ~right:(fold right)
         ~right_mixes:(List.length right)
       = fold hashes)

let () =
  Alcotest.run "symmetry"
    [ ( "differential",
        [ Alcotest.test_case "lr rational plane" `Quick test_lr_differential;
          Alcotest.test_case "lr float plane (bitwise)" `Quick
            test_lr_float_plane;
          Alcotest.test_case "election rational plane" `Quick
            test_election_differential;
          Alcotest.test_case "coin rational plane" `Quick
            test_coin_differential;
          Alcotest.test_case "consensus rational plane" `Quick
            test_consensus_differential ] );
      ( "fixtures",
        [ Alcotest.test_case "PA030: rotation on a line" `Quick
          test_pa030_fires;
          Alcotest.test_case "PA030: sym=on raises" `Quick
            test_pa030_not_certified;
          Alcotest.test_case "PA031: process-pinned predicate" `Quick
            test_pa031_fires;
          Alcotest.test_case "PA032: unreduced advisory" `Quick
            test_pa032_advisory ] );
      ( "legacy verifier",
        [ Alcotest.test_case "lr ring" `Quick test_legacy_lr;
          Alcotest.test_case "lr star" `Quick test_legacy_star;
          Alcotest.test_case "election" `Quick test_legacy_election;
          Alcotest.test_case "coin" `Quick test_legacy_coin;
          Alcotest.test_case "consensus" `Quick test_legacy_consensus;
          Alcotest.test_case "streamed: lr ring/star/line, g=2" `Quick
            test_streamed_lr;
          Alcotest.test_case "streamed: election/coin/consensus" `Quick
            test_streamed_others;
          Alcotest.test_case "streamed: broken specs" `Quick
            test_streamed_broken;
          Alcotest.test_case "PA030/PA031 witnesses" `Quick
            test_legacy_fixtures ] );
      ( "exploration",
        [ Alcotest.test_case "lr ring: reference BFS" `Quick test_explore_lr;
          Alcotest.test_case "lr star/line: reference BFS" `Quick
            test_explore_topologies;
          Alcotest.test_case "election/coin/consensus: reference BFS" `Quick
            test_explore_others;
          Alcotest.test_case "budgeted: reference BFS" `Quick
            test_explore_budgeted;
          Alcotest.test_case "state hashes spread" `Quick test_hash_spread;
          Alcotest.test_case "LR State.equal is (=)" `Quick test_state_equal ]
      );
      ( "generating sets",
        [ Alcotest.test_case "LR: subsequence, same group" `Quick
            test_generating_sets;
          Alcotest.test_case "LR: same quotient as every automorphism" `Quick
            test_generating_quotients;
          Alcotest.test_case "Ben-Or: adjacent transpositions" `Quick
            test_ben_or_adjacent ] );
      ( "mechanics",
        [ Alcotest.test_case "orbit closure" `Quick test_orbit;
          Alcotest.test_case "non-bijection refused" `Quick
            test_orbit_refuses_non_bijection;
          Alcotest.test_case "canonicalizer" `Quick test_canonicalizer;
          Alcotest.test_case "LR in place: reference closure" `Quick
            test_inplace_canon;
          Alcotest.test_case "LR in place: two domains" `Quick
            test_canon_two_domains;
          Alcotest.test_case "LR in place: image test" `Quick test_maps_to;
          Alcotest.test_case "PA033: orbit maxima refused" `Quick
            test_pa033_refused;
          Alcotest.test_case "sym on/off bodies: one float apart" `Quick
            test_sym_bodies;
          Alcotest.test_case "words per orbit member" `Quick
            test_allocation_guard;
          Alcotest.test_case "large S_n orbit: reference closure" `Quick
            test_large_orbit;
          QCheck_alcotest.to_alcotest fingerprint_merge_law ] )
    ]
