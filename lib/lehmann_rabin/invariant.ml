(* How many of [contenders] hold the resource they share. *)
let rec holders (s : State.t) count = function
  | [] -> count
  | (j, side) :: rest ->
    holders s
      (if State.holds s.State.procs.(j).State.region side then count + 1
       else count)
      rest

let rec resources_agree topo (s : State.t) r =
  r = Topology.num_resources topo
  ||
  let k = holders s 0 (Topology.contenders topo r) in
  (if s.State.res.(r) then k = 1 else k = 0)
  && resources_agree topo s (r + 1)

let lemma topo =
  Core.Pred.make "Lemma 6.1" (fun s -> resources_agree topo s 0)

let neighbors_exclusive s =
  let n = State.num_procs s in
  let critical i = s.State.procs.(i).State.region = State.Crit in
  not (List.exists (fun i -> critical i && critical ((i + 1) mod n))
         (List.init n (fun i -> i)))

let exclusive_pred =
  Core.Pred.make "neighbors exclusive" neighbors_exclusive

let check_general topo expl =
  Mdp.Explore.check_invariant expl
    (Mdp.Explore.region expl "Lemma 6.1" (fun () -> lemma topo))

(* A ring fragment's processes are the ring's: its size is the number
   of processes in any of its states. *)
let check expl =
  check_general
    (Topology.ring (State.num_procs (Mdp.Explore.state expl 0)))
    expl

let check_exclusion expl = Mdp.Explore.check_invariant expl exclusive_pred
