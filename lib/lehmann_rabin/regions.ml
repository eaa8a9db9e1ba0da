let trying = function
  | State.Flip | State.Wait _ | State.Second _ | State.Drop _ | State.Pre ->
    true
  | State.Rem | State.Crit | State.Exit_f | State.Exit_s _ | State.Exit_r ->
    false

(* Hot: pattern matches, not polymorphic compare; loops, not lists. *)
let some_region pred s = Array.exists (fun p -> pred p.State.region) s.State.procs

let some_process s good =
  let n = State.num_procs s in
  let i = ref 0 in
  while !i < n && not (good s !i) do
    incr i
  done;
  !i < n

let t = Core.Pred.make "T" (some_region trying)

let c =
  Core.Pred.make "C" (some_region (function State.Crit -> true | _ -> false))

let quiet region =
  (* {E_R, R} ∪ T: neither critical nor holding resources in exit. *)
  trying region
  || (match region with State.Rem | State.Exit_r -> true | _ -> false)

let in_rt s =
  some_region trying s
  && Array.for_all (fun p -> quiet p.State.region) s.State.procs

let rt = Core.Pred.make "RT" in_rt

let f =
  Core.Pred.make "F" (fun s ->
      in_rt s && some_region (function State.Flip -> true | _ -> false) s)

let p =
  Core.Pred.make "P" (some_region (function State.Pre -> true | _ -> false))

let same u v =
  match u, v with State.L, State.L | State.R, State.R -> true | _ -> false

(* "i potentially controls its left/right resource": pc in {W, S, D}
   pointing that way.  The paper's # stands for {W, S, D}. *)
let points region side =
  match region with
  | State.Wait u | State.Second u | State.Drop u -> same u side
  | State.Rem | State.Flip | State.Pre | State.Crit | State.Exit_f
  | State.Exit_s _ | State.Exit_r -> false

(* X in {E_R, R, F, #_side}. *)
let harmless_or_points region side =
  (match region with
   | State.Exit_r | State.Rem | State.Flip -> true
   | State.Wait _ | State.Second _ | State.Drop _ -> points region side
   | State.Pre | State.Crit | State.Exit_f | State.Exit_s _ -> false)

let committed_toward region side =
  match region with
  | State.Wait u | State.Second u -> same u side
  | State.Rem | State.Flip | State.Drop _ | State.Pre | State.Crit
  | State.Exit_f | State.Exit_s _ | State.Exit_r -> false

let good_at s i =
  let pi = s.State.procs.(i).State.region in
  (* Committed to the left: the second resource is the right one,
     contested by the right neighbor pointing left. *)
  (committed_toward pi State.L
   && harmless_or_points (State.right_neighbor s i).State.region State.R)
  || (committed_toward pi State.R
      && harmless_or_points (State.left_neighbor s i).State.region State.L)

let good_processes s =
  if not (in_rt s) then []
  else
    List.filter (good_at s)
      (List.init (State.num_procs s) (fun i -> i))

let g = Core.Pred.make "G" (fun s -> in_rt s && some_process s good_at)

(* Generalized goodness over an arbitrary topology: process [i],
   committed toward side [u], is good when no {e other} process sharing
   its second resource (the opposite side) potentially controls it. *)
let good_at_general topo s i =
  let pi = s.State.procs.(i).State.region in
  let good_toward u =
    committed_toward pi u
    && begin
      let second = Topology.res topo i (State.opp u) in
      List.for_all
        (fun (j, side_j) ->
           j = i
           ||
           let rj = s.State.procs.(j).State.region in
           (match rj with
            | State.Exit_r | State.Rem | State.Flip -> true
            | State.Wait _ | State.Second _ | State.Drop _ ->
              not (points rj side_j)
            | State.Pre | State.Crit | State.Exit_f | State.Exit_s _ ->
              false))
        (Topology.contenders topo second)
    end
  in
  good_toward State.L || good_toward State.R

let g_of topo =
  Core.Pred.make "G" (fun s -> in_rt s && some_process s (good_at_general topo))

let rt_or_c = Core.Pred.union rt c
let fgp = Core.Pred.union_all [ f; g; p ]
let gp = Core.Pred.union g p
let fgp_or_c = Core.Pred.union fgp c
let gp_or_c = Core.Pred.union gp c
let p_or_c = Core.Pred.union p c
