(* The Lehmann-Rabin proof's ring-only formulas, as the paper states
   them for the ring: the goodness set G by each process's two
   neighbors, and Lemma 6.1 by resource [i] lying between processes [i]
   and [i+1].  The library defines both once, on any topology
   ([Regions.g_of], [Invariant.lemma]); these are the references the
   tests compare them with on [Topology.ring n]. *)

module St = Lehmann_rabin.State

let left_neighbor (s : St.t) i =
  let n = Array.length s.St.procs in
  s.St.procs.((i + n - 1) mod n)

let right_neighbor (s : St.t) i =
  let n = Array.length s.St.procs in
  s.St.procs.((i + 1) mod n)

(* "Potentially controls its [side] resource": pc in {W, S, D} pointing
   that way.  The paper's # stands for {W, S, D}. *)
let points region side =
  match region with
  | St.Wait u | St.Second u | St.Drop u -> u = side
  | St.Rem | St.Flip | St.Pre | St.Crit | St.Exit_f | St.Exit_s _
  | St.Exit_r -> false

(* X in {E_R, R, F, #_side}. *)
let harmless_or_points region side =
  match region with
  | St.Exit_r | St.Rem | St.Flip -> true
  | St.Wait _ | St.Second _ | St.Drop _ -> points region side
  | St.Pre | St.Crit | St.Exit_f | St.Exit_s _ -> false

let committed_toward region side =
  match region with
  | St.Wait u | St.Second u -> u = side
  | St.Rem | St.Flip | St.Drop _ | St.Pre | St.Crit | St.Exit_f
  | St.Exit_s _ | St.Exit_r -> false

(* Committed to the left, the second resource is the right one,
   contested by the right neighbor pointing left; and symmetrically. *)
let good_at (s : St.t) i =
  let pi = s.St.procs.(i).St.region in
  (committed_toward pi St.L
   && harmless_or_points (right_neighbor s i).St.region St.R)
  || (committed_toward pi St.R
      && harmless_or_points (left_neighbor s i).St.region St.L)

(* The processes witnessing membership in G. *)
let good_processes s =
  if not (Core.Pred.mem Lehmann_rabin.Regions.rt s) then []
  else List.filter (good_at s) (List.init (St.num_procs s) Fun.id)

let g s = good_processes s <> []

let lemma_6_1 (s : St.t) =
  let n = St.num_procs s in
  let ok = ref true in
  for i = 0 to n - 1 do
    let right_holder = St.holds s.St.procs.(i).St.region St.R in
    let left_holder = St.holds s.St.procs.((i + 1) mod n).St.region St.L in
    (* Res i is between process i (right side) and i+1 (left side). *)
    if s.St.res.(i) <> (right_holder || left_holder) then ok := false;
    if right_holder && left_holder then ok := false
  done;
  !ok
