let trying = function
  | State.Flip | State.Wait _ | State.Second _ | State.Drop _ | State.Pre ->
    true
  | State.Rem | State.Crit | State.Exit_f | State.Exit_s _ | State.Exit_r ->
    false

(* Hot: pattern matches, not polymorphic compare; loops, not lists,
   and no closure built per call, so no predicate allocates. *)
let rec exists_region pred (procs : State.proc array) i =
  i < Array.length procs
  && (pred procs.(i).State.region || exists_region pred procs (i + 1))

let some_region pred s = exists_region pred s.State.procs 0

let rec every_region pred (procs : State.proc array) i =
  i = Array.length procs
  || (pred procs.(i).State.region && every_region pred procs (i + 1))

let t = Core.Pred.make "T" (some_region trying)

let c =
  Core.Pred.make "C" (some_region (function State.Crit -> true | _ -> false))

let quiet region =
  (* {E_R, R} ∪ T: neither critical nor holding resources in exit. *)
  trying region
  || (match region with State.Rem | State.Exit_r -> true | _ -> false)

let in_rt s = some_region trying s && every_region quiet s.State.procs 0

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

let committed_toward region side =
  match region with
  | State.Wait u | State.Second u -> same u side
  | State.Rem | State.Flip | State.Drop _ | State.Pre | State.Crit
  | State.Exit_f | State.Exit_s _ | State.Exit_r -> false

(* Goodness over a topology: process [i], committed toward side [u], is
   good when no {e other} process sharing its second resource (the
   opposite side) potentially controls it.  On the ring the only other
   sharer is the neighbor on that side, and this is the paper's
   condition: the neighbor is in {E_R, R, F} or points away. *)
let rec none_controls s i = function
  | [] -> true
  | (j, side_j) :: rest ->
    (j = i
     ||
     let rj = s.State.procs.(j).State.region in
     match rj with
     | State.Exit_r | State.Rem | State.Flip -> true
     | State.Wait _ | State.Second _ | State.Drop _ -> not (points rj side_j)
     | State.Pre | State.Crit | State.Exit_f | State.Exit_s _ -> false)
    && none_controls s i rest

let good_toward topo s i u =
  committed_toward s.State.procs.(i).State.region u
  && none_controls s i (Topology.contenders topo (Topology.res topo i (State.opp u)))

let rec some_good topo s i =
  i < State.num_procs s
  && (good_toward topo s i State.L
      || good_toward topo s i State.R
      || some_good topo s (i + 1))

let g_of topo = Core.Pred.make "G" (fun s -> in_rt s && some_good topo s 0)

let rt_or_c = Core.Pred.union rt c
let p_or_c = Core.Pred.union p c
