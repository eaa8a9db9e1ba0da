type ('s, 'a) t =
  Proba.Rng.t -> ('s, 'a) Core.Exec.t -> ('s, 'a) Core.Pa.step option

let of_adversary adv _rng frag = adv frag

let uniform m rng frag =
  match Core.Pa.enabled m (Core.Exec.lstate frag) with
  | [] -> None
  | steps -> Some (Proba.Rng.pick rng steps)

let priority m rank _rng frag =
  let s = Core.Exec.lstate frag in
  match Core.Pa.enabled m s with
  | [] -> None
  | first :: rest ->
    let better best step =
      if rank s step.Core.Pa.action < rank s best.Core.Pa.action then step
      else best
    in
    Some (List.fold_left better first rest)

let halt_when pred sched rng frag =
  if pred (Core.Exec.lstate frag) then None else sched rng frag

let of_choice choose m _rng frag =
  let s = Core.Exec.lstate frag in
  match choose s with
  | None -> None
  | Some k when k < 0 -> None
  | Some k -> List.nth_opt (Core.Pa.enabled m s) k

let of_layered_policy ~horizon ~duration ~choose m _rng frag =
  let remaining = horizon - Core.Exec.total_time ~duration frag in
  if remaining < 0 then None
  else begin
    let s = Core.Exec.lstate frag in
    match choose remaining s with
    | None -> None
    | Some k when k < 0 -> None
    | Some k -> List.nth_opt (Core.Pa.enabled m s) k
  end
