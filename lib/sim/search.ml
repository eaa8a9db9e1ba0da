type 'g result = {
  best : 'g;
  score : float;
  evaluations : int;
  trace : float list;
}

let hill_climb ~rng ~init ~neighbor ~score ~steps ?(restarts = 0) () =
  let evaluations = ref 0 in
  let evaluate g =
    incr evaluations;
    score g
  in
  let run_once () =
    let current = ref init in
    let current_score = ref (evaluate init) in
    let trace = ref [ !current_score ] in
    for _ = 1 to steps do
      let candidate = neighbor !current rng in
      let candidate_score = evaluate candidate in
      if candidate_score > !current_score then begin
        current := candidate;
        current_score := candidate_score;
        trace := candidate_score :: !trace
      end
    done;
    (!current, !current_score, List.rev !trace)
  in
  let rec go n (best, best_score, best_trace) =
    if n <= 0 then (best, best_score, best_trace)
    else begin
      let b, s, t = run_once () in
      if s > best_score then go (n - 1) (b, s, t)
      else go (n - 1) (best, best_score, best_trace)
    end
  in
  let best, score, trace = go restarts (run_once ()) in
  { best; score; evaluations = !evaluations; trace }
