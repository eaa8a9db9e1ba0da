let lemma_6_1 s =
  let n = State.num_procs s in
  let ok = ref true in
  for i = 0 to n - 1 do
    let right_holder = State.holds s.State.procs.(i).State.region State.R in
    let left_holder =
      State.holds s.State.procs.((i + 1) mod n).State.region State.L
    in
    (* Res i is between process i (right side) and i+1 (left side). *)
    if s.State.res.(i) <> (right_holder || left_holder) then ok := false;
    if right_holder && left_holder then ok := false
  done;
  !ok

let neighbors_exclusive s =
  let n = State.num_procs s in
  let critical i = s.State.procs.(i).State.region = State.Crit in
  not (List.exists (fun i -> critical i && critical ((i + 1) mod n))
         (List.init n (fun i -> i)))

let lemma_6_1_pred = Core.Pred.make "Lemma 6.1" lemma_6_1

let exclusive_pred =
  Core.Pred.make "neighbors exclusive" neighbors_exclusive

let check expl = Mdp.Explore.check_invariant expl lemma_6_1_pred
let check_exclusion expl = Mdp.Explore.check_invariant expl exclusive_pred

let lemma_general topo s =
  let ok = ref true in
  for r = 0 to Topology.num_resources topo - 1 do
    let holders =
      List.filter
        (fun (j, side) -> State.holds s.State.procs.(j).State.region side)
        (Topology.contenders topo r)
    in
    (match holders with
     | [] -> if s.State.res.(r) then ok := false
     | [ _ ] -> if not s.State.res.(r) then ok := false
     | _ :: _ :: _ -> ok := false)
  done;
  !ok

let check_general topo expl =
  Mdp.Explore.check_invariant expl
    (Core.Pred.make "Lemma 6.1 (general)" (lemma_general topo))
