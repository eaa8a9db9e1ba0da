module Q = Proba.Rational

type 's arrow = {
  label : string;
  pre : 's Core.Pred.t;
  post : 's Core.Pred.t;
  time : Q.t;
  prob : Q.t;
  attained : Q.t;
  witness : 's option;
  pre_states : int;
  claim : 's Core.Claim.t option;
}

let min_reach_over a ~target ~ticks ~over =
  let target = Arena.set a target and over = Arena.set a over in
  match
    Arena.solved a (Arena.Min_reach ticks) ~target ~over (fun () ->
        let p, witness, members =
          Finite_horizon.min_reach_over a ~target ~ticks ~over
        in
        { Arena.extremum = Arena.Prob p; witness; members })
  with
  | { Arena.extremum = Arena.Prob p; witness; members } ->
    (p, Option.map (Arena.state a) witness, members)
  | _ -> assert false (* the key's pass fixes the kind *)

let max_expected_over a ~target ~over =
  let target = Arena.set a target and over = Arena.set a over in
  match
    Arena.solved a Arena.Max_expected_ticks ~target ~over (fun () ->
        let t, witness, members =
          Expected_time.max_expected_over a ~target ~over
        in
        { Arena.extremum = Arena.Ticks t; witness; members })
  with
  | { Arena.extremum = Arena.Ticks t; witness; members } ->
    (t, Option.map (Arena.state a) witness, members)
  | _ -> assert false

let check_arrow a ~label ~granularity ~schema ~pre ~post ~time ~prob =
  let ticks = Core.Timed.within ~granularity ~time in
  let attained, witness, pre_states =
    min_reach_over a ~target:post ~ticks ~over:pre
  in
  let claim =
    if Q.geq attained prob then
      Some
        (Core.Claim.checked
           ~evidence:
             (Printf.sprintf
                "exact backward induction: min P[reach %s within %s] = %s \
                 over %d reachable %s-states (%d states total, g=%d)"
                (Core.Pred.name post) (Q.to_string time)
                (Q.to_string attained) pre_states (Core.Pred.name pre)
                (Arena.num_states a) granularity)
           ~schema ~pre ~post ~time ~prob ())
    else None
  in
  { label; pre; post; time; prob; attained; witness; pre_states; claim }

let verify_inclusion a sub sup =
  if Bitset.subset (Arena.set a sub) (Arena.set a sup) then
    Some (Core.Inclusion.checked ~over:(Arena.num_states a) sub sup)
  else None
