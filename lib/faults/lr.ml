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

let live_trying = Core.Pred.make "T∧live" all_live_trying

let almost_there =
  Core.Pred.make "C∨P∧live" (fun w ->
      some_live_in w (fun r -> r = LS.Crit)
      || (some_live_in w (fun r -> r = LS.Pre) && all_live_trying w))

let live_crit =
  Core.Pred.make "C∧live" (fun w -> some_live_in w (fun r -> r = LS.Crit))

(* ----------------------------------------------------------------- *)
(* Re-derived claims. *)

type arrow = wstate Mdp.Checker.arrow

type derivation = {
  states : int;
  arrow1 : arrow;
  arrow2 : arrow;
  composed : (wstate Core.Claim.t, string) result;
  direct : Q.t;
}

let derive ?max_states config =
  let pa = make config in
  let expl = Mdp.Explore.run ?max_states pa in
  let arena = Mdp.Arena.compile ~is_tick expl in
  let granularity = config.params.LA.g in
  let sch = schema config.faults in
  let check ~label ~pre ~post ~time ~prob =
    Mdp.Checker.check_arrow arena ~label ~granularity ~schema:sch ~pre
      ~post ~time ~prob
  in
  (* Two passes: learn the exact attained minimum, then certify the
     claim at exactly that bound (the "degraded" constant). *)
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
  { states = Mdp.Explore.num_states expl; arrow1; arrow2; composed;
    direct }

let check_budgeted ?(budget = Core.Budget.unlimited) ?(seed = 0)
    ?(time = Q.of_int 13) ?(prob = Q.of_ints 1 8) config =
  let pa = make config in
  let granularity = config.params.LA.g in
  let { LA.n; g; k } = config.params in
  let start = Inject.init ~budget:config.faults (LS.all_trying ~n ~g ~k) in
  let within = Core.Timed.within ~granularity ~time in
  let fallback clock =
    let setup =
      { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
        duration; start }
    in
    Sim.Monte_carlo.estimate_reach_budgeted setup
      ~target:(Core.Pred.mem live_crit) ~within ~clock ~seed ()
  in
  Resilient.check_arrow ~budget ~fallback ~pa ~is_tick
    ~label:"T∧live -13-> C∧live" ~granularity
    ~schema:(schema config.faults) ~pre:live_trying ~post:live_crit ~time
    ~prob ()
