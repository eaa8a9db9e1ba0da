module Q = Proba.Rational
module LS = Lehmann_rabin.State
module LA = Lehmann_rabin.Automaton
module LRg = Lehmann_rabin.Regions

type config = {
  params : LA.params;
  faults : Fault.spec;
  release : bool;
}

type wstate = LS.t Inject.state
type waction = LA.action Inject.action

let set_proc (s : LS.t) i p =
  let procs = Array.copy s.LS.procs in
  procs.(i) <- p;
  { s with LS.procs }

let set_res (s : LS.t) j taken =
  let res = Array.copy s.LS.res in
  res.(j) <- taken;
  { s with LS.res }

let proc_of_action = function
  | LA.Tick -> None
  | LA.Try i | LA.Exit i | LA.Flip i | LA.Wait i | LA.Second i
  | LA.Drop i | LA.Crit i | LA.Drop_second i | LA.Rem i -> Some i
  | LA.Drop_first (i, _) -> Some i

let hooks ~release (params : LA.params) =
  let { LA.n; g; k } = params in
  let on_crash s i =
    let p = s.LS.procs.(i) in
    let s =
      if not release then s
      else
        List.fold_left
          (fun s side ->
             if LS.holds p.LS.region side then
               set_res s (LS.resource_index ~n i side) false
             else s)
          s [ LS.L; LS.R ]
    in
    (* Canonical remainder clocks: a non-ready region never blocks
       [Tick], so the crashed process drops out of the Unit-Time
       obligations instead of deadlocking them. *)
    set_proc s i { LS.region = LS.Rem; c = g; b = k }
  in
  let on_lost s i =
    let p = s.LS.procs.(i) in
    (* Mirror [stepped]: only a process the base automaton would let
       run can have that run stolen, and the theft burns one unit of
       its per-slot step budget -- which keeps zero-time layers
       acyclic.  User-controlled steps (remainder/critical) cannot be
       "lost": withholding them is already the adversary's right. *)
    if LS.ready p.LS.region && p.LS.b > 0 then
      Some (set_proc s i { p with LS.c = g; b = p.LS.b - 1 })
    else None
  in
  let on_wake s i =
    let p = s.LS.procs.(i) in
    set_proc s i { p with LS.c = g }
  in
  { Inject.procs = (fun s -> Array.length s.LS.procs);
    proc_of_action; on_crash; on_lost; on_wake }

let make config =
  Inject.wrap
    ~hooks:(hooks ~release:config.release config.params)
    ~budget:config.faults
    (LA.make config.params)

let is_tick = function
  | Inject.Step a -> LA.is_tick a
  | Inject.Crash _ | Inject.Lost _ | Inject.Stall _ | Inject.Resume _ ->
    false

let duration = Inject.duration LA.duration

let schema faults =
  Core.Schema.with_faults ~desc:(Fault.to_string faults)
    Core.Schema.unit_time

(* ----------------------------------------------------------------- *)
(* Fault-aware state sets. *)

let live w i = not (Inject.is_crashed w i)
let region w i = (Inject.base w).LS.procs.(i).LS.region

let fold_procs w f init =
  let n = Array.length (Inject.base w).LS.procs in
  let rec go acc i = if i >= n then acc else go (f acc i) (i + 1) in
  go init 0

let some_live_in w pred =
  fold_procs w (fun acc i -> acc || (live w i && pred (region w i))) false

let every_live_in w pred =
  fold_procs w (fun acc i -> acc && ((not (live w i)) || pred (region w i)))
    true

let all_live_trying w =
  some_live_in w (fun _ -> true) && every_live_in w LRg.trying

(* [T∧live]: stable under crashes of trying processes, so the adversary
   cannot leave it by spending its budget. *)
let live_trying = Core.Pred.make "T∧live" all_live_trying

let almost_there =
  Core.Pred.make "C∨P∧live" (fun w ->
      some_live_in w (fun r -> r = LS.Crit)
      || (some_live_in w (fun r -> r = LS.Pre) && all_live_trying w))

let live_crit =
  Core.Pred.make "C∧live" (fun w -> some_live_in w (fun r -> r = LS.Crit))

(* ----------------------------------------------------------------- *)
(* One exploration answers every question about a configuration. *)

type instance = { config : config; arena : (wstate, waction) Mdp.Arena.t }

let explore ?max_states config =
  { config; arena = Mdp.Arena.of_pa ?max_states ~is_tick (make config) }

type arrow = wstate Mdp.Checker.arrow

let check inst ~label ~pre ~post ~time ~prob =
  Mdp.Checker.check_arrow inst.arena ~label
    ~granularity:inst.config.params.LA.g ~schema:(schema inst.config.faults)
    ~pre ~post ~time ~prob

(* ----------------------------------------------------------------- *)
(* Re-derived claims. *)

type derivation = {
  states : int;
  arrow1 : arrow;
  arrow2 : arrow;
  composed : (wstate Core.Claim.t, string) result;
  direct : Q.t;
}

let derivation inst =
  let check = check inst in
  (* Two asks: learn the exact attained minimum, then certify the
     claim at exactly that bound (the "degraded" constant).  The
     arena's solved-pass memo answers the second without a sweep. *)
  let tight ~label ~pre ~post ~time =
    let first = check ~label ~pre ~post ~time ~prob:Q.one in
    if first.claim <> None then first
    else check ~label ~pre ~post ~time ~prob:first.attained
  in
  let arrow1 =
    tight ~label:"T∧live -12-> C∨P∧live" ~pre:live_trying
      ~post:almost_there ~time:(Q.of_int 12)
  in
  let arrow2 =
    tight ~label:"C∨P∧live -8-> C∧live" ~pre:almost_there ~post:live_crit
      ~time:(Q.of_int 8)
  in
  let composed =
    match arrow1.claim, arrow2.claim with
    | Some c1, Some c2 ->
      (try Ok (Core.Claim.compose c1 c2)
       with Core.Claim.Rule_violation msg -> Error msg)
    | None, _ | _, None ->
      Error "an arrow failed to certify even at its attained bound"
  in
  let direct =
    (check ~label:"direct" ~pre:live_trying ~post:live_crit
       ~time:(Q.of_int 13) ~prob:Q.one).attained
  in
  { states = Mdp.Arena.num_states inst.arena; arrow1; arrow2; composed;
    direct }

let derive ?max_states config = derivation (explore ?max_states config)

(* ----------------------------------------------------------------- *)
(* The budgeted ladder. *)

type estimate = {
  est : Sim.Monte_carlo.budgeted;
  meets_point : bool;
  reason : string;
}

type verdict =
  | Exact of { arrow : arrow; inst : instance }
  | Estimate of estimate

let check_budgeted ?(budget = Core.Budget.unlimited) ?(seed = 0)
    ?(time = Q.of_int 13) ?(prob = Q.of_ints 1 8) config =
  let clock = Core.Budget.start budget in
  let exact () =
    let inst = explore ?max_states:budget.Core.Budget.max_states config in
    ( inst,
      check inst ~label:"T∧live -13-> C∧live" ~pre:live_trying
        ~post:live_crit ~time ~prob )
  in
  let degrade reason =
    let { LA.n; g; k } = config.params in
    let pa = make config in
    let setup =
      { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa; duration;
        start = Inject.init ~budget:config.faults (LS.all_trying ~n ~g ~k) }
    in
    let est =
      Sim.Monte_carlo.estimate_reach_budgeted setup
        ~target:(Core.Pred.mem live_crit)
        ~within:(Core.Timed.within ~granularity:g ~time)
        ~clock ~seed ()
    in
    let meets_point =
      Proba.Stat.Proportion.estimate est.Sim.Monte_carlo.prop
      >= Q.to_float prob
    in
    Estimate { est; meets_point; reason }
  in
  (* The wall allowance is armed as the ambient deadline, so the
     engines' poll points cut exploration, compile and sweeps alike.  A
     caller's earlier deadline stays in force, and when it is the one
     that fires, the exception is not this ladder's to catch. *)
  match Core.Budget.with_deadline clock exact with
  | inst, arrow -> Exact { arrow; inst }
  | exception Mdp.Explore.Too_many_states m ->
    degrade
      (Printf.sprintf
         "exact exploration stopped after %d states: state budget hit (%d \
          states interned)"
         m m)
  | exception Core.Budget.Deadline_exceeded reason
    when Core.Budget.exhausted clock <> None ->
    degrade (Printf.sprintf "exact check abandoned: %s" reason)

let pp_verdict fmt = function
  | Exact { arrow; inst } ->
    Format.fprintf fmt
      "@[<v>exact: min P = %s over %d pre-states (%d states explored): \
       %s@]"
      (Q.to_string arrow.Mdp.Checker.attained) arrow.Mdp.Checker.pre_states
      (Mdp.Arena.num_states inst.arena)
      (if arrow.Mdp.Checker.claim <> None then "bound holds"
       else "bound MISSED")
  | Estimate e ->
    let lo, hi = Proba.Stat.Proportion.wilson_ci e.est.Sim.Monte_carlo.prop in
    Format.fprintf fmt
      "@[<v>Monte Carlo ESTIMATE (not a proof; %s):@ p-hat = %.4f, 95%% \
       CI [%.4f, %.4f], %d trials in %d completed batches%s@]"
      e.reason
      (Proba.Stat.Proportion.estimate e.est.Sim.Monte_carlo.prop)
      lo hi e.est.Sim.Monte_carlo.trials_run
      e.est.Sim.Monte_carlo.batches
      (match e.est.Sim.Monte_carlo.stopped with
       | None -> ""
       | Some r -> Printf.sprintf " (stopped: %s)" r)
