module Q = Proba.Rational

type ('s, 'a) result = {
  claim : 's Core.Claim.t option;
  attained : Q.t;
  witness : 's option;
  pre_states : int;
}

(* [values] folded over the [member] states from [seed]: the first
   member is the witness until a later one is strictly [better]. *)
let summarize ~seed ~better ~wrap values member =
  let best = ref seed and witness = ref None and members = ref 0 in
  for i = 0 to Array.length values - 1 do
    if member i then begin
      incr members;
      if !witness = None || better values.(i) !best then begin
        best := values.(i);
        witness := Some i
      end
    end
  done;
  { Arena.extremum = wrap !best; witness = !witness; members = !members }

let mem a set i = Core.Pred.mem set (Arena.state a i)

let min_reach_over a ~target ~ticks ~over =
  let target = Arena.indicator a target in
  match
    Arena.solved a (Arena.Min_reach ticks) ~target ~over:(mem a over)
      (fun member ->
         summarize ~seed:Q.one ~better:Q.lt ~wrap:(fun p -> Arena.Prob p)
           (Finite_horizon.min_reach a ~target ~ticks) member)
  with
  | { Arena.extremum = Arena.Prob p; witness; members } ->
    (p, Option.map (Arena.state a) witness, members)
  | _ -> assert false (* the key's pass fixes the kind *)

(* Expected ticks are never negative nor nan, so the fold from 0 on
   [>] is the plain maximum of the members. *)
let max_expected_over a ~target ~over =
  let target = Arena.indicator a target in
  match
    Arena.solved a Arena.Max_expected_ticks ~target ~over:(mem a over)
      (fun member ->
         summarize ~seed:0.0 ~better:( > ) ~wrap:(fun t -> Arena.Ticks t)
           (Expected_time.max_expected_ticks a ~target ()) member)
  with
  | { Arena.extremum = Arena.Ticks t; witness; members } ->
    (t, Option.map (Arena.state a) witness, members)
  | _ -> assert false

let check_arrow a ~granularity ~schema ~pre ~post ~time ~prob =
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
  { claim; attained; witness; pre_states }

let verify_inclusion a sub sup =
  let states =
    Array.to_list (Array.init (Arena.num_states a) (Arena.state a))
  in
  Core.Inclusion.verify ~states sub sup
