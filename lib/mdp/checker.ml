module Q = Proba.Rational

type ('s, 'a) result = {
  claim : 's Core.Claim.t option;
  attained : Q.t;
  witness : 's option;
  pre_states : int;
}

let min_prob_over a values pred =
  let n = Arena.num_states a in
  let best = ref Q.one in
  let witness = ref None in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let s = Arena.state a i in
    if Core.Pred.mem pred s then begin
      incr count;
      if !witness = None || Q.lt values.(i) !best then begin
        best := values.(i);
        witness := Some s
      end
    end
  done;
  (!best, !witness, !count)

let check_arrow a ~granularity ~schema ~pre ~post ~time ~prob =
  let ticks = Core.Timed.within ~granularity ~time in
  let target = Arena.indicator a post in
  let values = Finite_horizon.min_reach a ~target ~ticks in
  let attained, witness, pre_states = min_prob_over a values pre in
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
  { claim; attained; witness; pre_states }

let verify_inclusion a sub sup =
  let states =
    Array.to_list (Array.init (Arena.num_states a) (Arena.state a))
  in
  Core.Inclusion.verify ~states sub sup
