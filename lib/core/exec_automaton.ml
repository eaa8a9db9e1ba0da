module Q = Proba.Rational

type ('s, 'a) node = {
  frag : ('s, 'a) Exec.t;
  kind : ('s, 'a) kind;
}

and ('s, 'a) kind =
  | Terminal
  | Truncated
  | Step of 'a * (Q.t * ('s, 'a) node) list

let unfold _m adv s ~max_depth =
  let rec build frag depth =
    if depth >= max_depth then { frag; kind = Truncated }
    else begin
      match adv frag with
      | None -> { frag; kind = Terminal }
      | Some step ->
        let children =
          List.map
            (fun (s, w) ->
               (w, build (Exec.snoc frag step.Pa.action s) (depth + 1)))
            (Proba.Dist.support step.Pa.dist)
        in
        { frag; kind = Step (step.Pa.action, children) }
    end
  in
  build (Exec.initial s) 0

let rec size node =
  match node.kind with
  | Terminal | Truncated -> 1
  | Step (_, children) ->
    List.fold_left (fun acc (_, child) -> acc + size child) 1 children

let maximal_executions node =
  let rec go mass node acc =
    match node.kind with
    | Terminal -> (node.frag, mass, true) :: acc
    | Truncated -> (node.frag, mass, false) :: acc
    | Step (_, children) ->
      List.fold_left
        (fun acc (w, child) -> go (Q.mul mass w) child acc)
        acc children
  in
  List.rev (go Q.one node [])

let total_mass node =
  Q.sum (List.map (fun (_, m, _) -> m) (maximal_executions node))

(* Exact interval evaluation.  A subtree whose root fragment is already
   decided contributes its whole mass; otherwise we recurse.  Truncated
   undecided leaves contribute [0, mass]. *)
let prob_interval event node =
  let rec go node =
    match node.kind with
    | Terminal ->
      (match Event.decide event ~maximal:true node.frag with
       | Event.Accept -> (Q.one, Q.one)
       | Event.Reject -> (Q.zero, Q.zero)
       | Event.Undecided ->
         failwith
           (Printf.sprintf
              "Event %S returned Undecided on a maximal execution"
              (Event.name event)))
    | Truncated ->
      (match Event.decide event ~maximal:false node.frag with
       | Event.Accept -> (Q.one, Q.one)
       | Event.Reject -> (Q.zero, Q.zero)
       | Event.Undecided -> (Q.zero, Q.one))
    | Step (_, children) ->
      (match Event.decide event ~maximal:false node.frag with
       | Event.Accept -> (Q.one, Q.one)
       | Event.Reject -> (Q.zero, Q.zero)
       | Event.Undecided ->
         List.fold_left
           (fun (lo, hi) (w, child) ->
              let clo, chi = go child in
              (Q.add lo (Q.mul w clo), Q.add hi (Q.mul w chi)))
           (Q.zero, Q.zero) children)
  in
  go node

let prob_exact event node =
  let lo, hi = prob_interval event node in
  if Q.equal lo hi then lo
  else
    failwith
      (Printf.sprintf
         "prob_exact: truncation uncertainty for %S: [%s, %s]"
         (Event.name event) (Q.to_string lo) (Q.to_string hi))
