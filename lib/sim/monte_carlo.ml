type ('s, 'a) setup = {
  pa : ('s, 'a) Core.Pa.t;
  scheduler : ('s, 'a) Scheduler.t;
  duration : 'a -> int;
  start : 's;
}

(* Reproducibility on any schedule: per-trial generators are split off
   the root sequentially, before any trial runs (exactly the streams a
   sequential loop would draw), and only trial execution is forked. *)
let split_rngs root n = Array.init n (fun _ -> Proba.Rng.split root)

let default_chunks = 64

(* [n] trials in at most [chunks] contiguous ranges: the grid depends
   only on the trial count, never on the number of domains.  [f lo hi]
   handles trials [lo, hi); results come back in chunk order. *)
let run_chunks ?helpers ?(chunks = default_chunks) n f =
  let chunks = Int.min chunks n in
  Parallel.Fork.run ?helpers
    (Array.init chunks (fun c () ->
         f (c * n / chunks) ((c + 1) * n / chunks)))

let run_trial setup ~target ~within rng =
  let outcome =
    Engine.run setup.pa setup.scheduler ~rng ~stop:target
      ~duration:setup.duration ~max_time:within setup.start
  in
  outcome.Engine.why = Engine.Reached

(* Fixed-trial batches poll the ambient deadline before every trial
   (the fork helpers carry the caller's) and raise
   [Core.Budget.Deadline_exceeded]; [estimate_reach_budgeted] is the
   cooperative variant that degrades instead of raising and therefore
   ignores the ambient clock. *)
let estimate_reach ?helpers setup ~target ~within ~trials ~seed =
  let rngs = split_rngs (Proba.Rng.create ~seed) trials in
  let successes =
    run_chunks ?helpers trials (fun lo hi ->
        let k = ref 0 in
        for i = lo to hi - 1 do
          Core.Budget.poll ();
          if run_trial setup ~target ~within rngs.(i) then incr k
        done;
        !k)
  in
  Proba.Stat.Proportion.of_counts ~trials
    ~successes:(Array.fold_left ( + ) 0 successes)

type budgeted = {
  prop : Proba.Stat.Proportion.t;
  trials_run : int;
  batches : int;
  stopped : string option;
}

(* The doubling rounds of the budgeted estimator. *)
let rounds = 6

(* The clock is read when a chunk starts, never mid-chunk; once it has
   fired no later chunk starts, and chunks already running still count.
   The first chunk of the first round is exempt, so even an expired
   budget yields a (wide) interval rather than nothing, and that round's
   chunks hold one trial each, so an expired budget yields exactly
   one. *)
let estimate_reach_budgeted ?helpers setup ~target ~within
    ?(budget = Core.Budget.unlimited) ?clock ?(initial_trials = 64) ~seed () =
  let clock =
    match clock with Some c -> c | None -> Core.Budget.start budget
  in
  let root = Proba.Rng.create ~seed in
  let stopped = Atomic.make None in
  let rec run_rounds round batch ~trials_run ~successes =
    if round > rounds || Atomic.get stopped <> None then
      (trials_run, successes, round - 1)
    else begin
      let rngs = split_rngs root batch in
      let chunks = if round = 1 then batch else default_chunks in
      let counts =
        run_chunks ?helpers ~chunks batch (fun lo hi ->
            let go =
              (round = 1 && lo = 0)
              || Atomic.get stopped = None
                 &&
                 match Core.Budget.exhausted clock with
                 | None -> true
                 | Some reason ->
                   ignore (Atomic.compare_and_set stopped None (Some reason));
                   false
            in
            if not go then (0, 0)
            else begin
              let k = ref 0 in
              for i = lo to hi - 1 do
                if run_trial setup ~target ~within rngs.(i) then incr k
              done;
              (hi - lo, !k)
            end)
      in
      let ran, won =
        Array.fold_left (fun (r, w) (r', w') -> (r + r', w + w')) (0, 0) counts
      in
      run_rounds (round + 1) (batch * 2) ~trials_run:(trials_run + ran)
        ~successes:(successes + won)
    end
  in
  let trials_run, successes, finished =
    run_rounds 1 (max 1 initial_trials) ~trials_run:0 ~successes:0
  in
  let stopped = Atomic.get stopped in
  {
    prop = Proba.Stat.Proportion.of_counts ~trials:trials_run ~successes;
    trials_run;
    (* A round the clock cut short is not a completed batch. *)
    batches = (if stopped = None then finished else finished - 1);
    stopped;
  }

let time_trial setup ~target ~max_steps rng =
  let outcome =
    Engine.run setup.pa setup.scheduler ~rng ~stop:target
      ~duration:setup.duration ~max_steps setup.start
  in
  if outcome.Engine.why = Engine.Reached then
    Some (float_of_int outcome.Engine.elapsed)
  else None

(* Summaries are running (Welford) statistics, so each time is added
   in trial order after the forked region: identical floats on any
   schedule. *)
let estimate_time ?helpers setup ~target ~trials ~seed
    ?(max_steps = 1_000_000) () =
  let rngs = split_rngs (Proba.Rng.create ~seed) trials in
  let times =
    run_chunks ?helpers trials (fun lo hi ->
        Array.init (hi - lo) (fun j ->
            Core.Budget.poll ();
            time_trial setup ~target ~max_steps rngs.(lo + j)))
  in
  let summary = Proba.Stat.Summary.create () in
  let missed = ref 0 in
  Array.iter
    (Array.iter (function
         | Some t -> Proba.Stat.Summary.add summary t
         | None -> incr missed))
    times;
  (summary, !missed)
