module Q = Proba.Rational

type estimate = {
  est : Sim.Monte_carlo.budgeted;
  meets_point : bool;
  reason : string;
}

type 's verdict =
  | Exact of { arrow : 's Mdp.Checker.arrow; states : int }
  | Estimate of estimate
  | Exhausted of string

let check_arrow ?(budget = Core.Budget.unlimited) ?fallback ~pa ~is_tick
    ~label ~granularity ~schema ~pre ~post ~time ~prob () =
  let clock = Core.Budget.start budget in
  let degrade reason =
    match fallback with
    | None -> Exhausted reason
    | Some run ->
      let est = run clock in
      let meets_point =
        Proba.Stat.Proportion.estimate est.Sim.Monte_carlo.prop
        >= Q.to_float prob
      in
      Estimate { est; meets_point; reason }
  in
  let part = Mdp.Explore.run_budgeted ~clock pa in
  if part.Mdp.Explore.complete then begin
    let expl = part.Mdp.Explore.fragment in
    (* The exploration honoured the wall budget cooperatively, but the
       arena compile and the checker sweeps used to run unbounded once
       exploration squeaked in under the wire.  Arm the shared clock as
       an ambient deadline so the engines' poll points cut the exact
       check mid-sweep, then fall down the same ladder. *)
    match
      Core.Budget.with_deadline clock (fun () ->
          let arena = Mdp.Arena.compile ~is_tick expl in
          Mdp.Checker.check_arrow arena ~label ~granularity ~schema ~pre
            ~post ~time ~prob)
    with
    | arrow -> Exact { arrow; states = Mdp.Explore.num_states expl }
    | exception Core.Budget.Deadline_exceeded reason ->
      degrade
        (Printf.sprintf "exact check abandoned mid-sweep (%d states): %s"
           (Mdp.Explore.num_states expl) reason)
  end
  else
    degrade
      (Printf.sprintf "exact exploration stopped after %d states: %s"
         (Mdp.Explore.num_states part.Mdp.Explore.fragment)
         (Option.value part.Mdp.Explore.stopped ~default:"budget exhausted"))

let pp_verdict fmt = function
  | Exact { arrow; states } ->
    Format.fprintf fmt
      "@[<v>exact: min P = %s over %d pre-states (%d states explored): \
       %s@]"
      (Q.to_string arrow.Mdp.Checker.attained) arrow.Mdp.Checker.pre_states
      states
      (if arrow.Mdp.Checker.claim <> None then "bound holds"
       else "bound MISSED")
  | Estimate e ->
    let lo, hi = Proba.Stat.Proportion.wilson_ci e.est.Sim.Monte_carlo.prop in
    Format.fprintf fmt
      "@[<v>Monte Carlo ESTIMATE (not a proof; %s):@ p-hat = %.4f, 95%% \
       CI [%.4f, %.4f], %d trials in %d batches%s@]"
      e.reason
      (Proba.Stat.Proportion.estimate e.est.Sim.Monte_carlo.prop)
      lo hi e.est.Sim.Monte_carlo.trials_run
      e.est.Sim.Monte_carlo.batches
      (match e.est.Sim.Monte_carlo.stopped with
       | None -> ""
       | Some r -> Printf.sprintf " (stopped: %s)" r)
  | Exhausted reason ->
    Format.fprintf fmt
      "budget exhausted (%s) and no simulation fallback available" reason
