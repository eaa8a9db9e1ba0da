module D = Proba.Dist

type 's state = {
  base : 's;
  crashed : int list;
  stuck : int list;
  left : Fault.spec;
}

type 'a action =
  | Step of 'a
  | Crash of int
  | Lost of int
  | Stall of int
  | Resume of int

type ('s, 'a) hooks = {
  procs : 's -> int;
  proc_of_action : 'a -> int option;
  on_crash : 's -> int -> 's;
  on_lost : 's -> int -> 's option;
  on_wake : 's -> int -> 's;
}

let init ~budget base = { base; crashed = []; stuck = []; left = budget }
let base w = w.base

let insert i l = List.sort_uniq compare (i :: l)
let remove i l = List.filter (fun j -> j <> i) l

let faulted w = List.sort_uniq compare (w.crashed @ w.stuck)
let is_crashed w i = List.mem i w.crashed
let remaining w = w.left

let effective_proc proc_of_action = function
  | Step a -> proc_of_action a
  | Crash _ | Lost _ | Stall _ | Resume _ -> None

let is_injection = function
  | Step _ -> false
  | Crash _ | Lost _ | Stall _ | Resume _ -> true

let duration base_duration = function
  | Step a -> base_duration a
  | Crash _ | Lost _ | Stall _ | Resume _ -> 0

let wrap ~hooks ~budget m =
  let lift w s = { w with base = s } in
  let equal_state a b =
    Core.Pa.equal_state m a.base b.base
    && a.crashed = b.crashed && a.stuck = b.stuck && a.left = b.left
  in
  let lost_step w i ~charge =
    match hooks.on_lost w.base i with
    | None -> None
    | Some base ->
      let left =
        if charge then { w.left with Fault.loss = w.left.Fault.loss - 1 }
        else w.left
      in
      Some
        { Core.Pa.action = Lost i;
          dist = D.point { w with base; left } }
  in
  let enabled w =
    let base_steps = Core.Pa.enabled m w.base in
    (* Base steps survive unless their process is crashed; a stalled
       process's steps collapse into a single [Lost] scheduling. *)
    let surviving =
      List.filter_map
        (fun st ->
           match hooks.proc_of_action st.Core.Pa.action with
           | Some i when List.mem i w.crashed -> None
           | Some i when List.mem i w.stuck -> None
           | Some _ | None ->
             Some
               { Core.Pa.action = Step st.Core.Pa.action;
                 (* Merge under the base automaton's state equality:
                    with the default structural [equal], PA-equal but
                    structurally distinct outcomes would stay split and
                    bloat every downstream sweep. *)
                 dist = D.map ~equal:equal_state (lift w) st.Core.Pa.dist })
        base_steps
    in
    let schedulable i =
      List.exists
        (fun st -> hooks.proc_of_action st.Core.Pa.action = Some i)
        base_steps
    in
    let stalled_losses =
      List.filter_map
        (fun i ->
           if schedulable i then lost_step w i ~charge:false else None)
        w.stuck
    in
    let injected_losses =
      if w.left.Fault.loss <= 0 then []
      else
        List.filter_map
          (fun i ->
             if List.mem i w.crashed || List.mem i w.stuck
             || not (schedulable i) then None
             else lost_step w i ~charge:true)
          (List.init (hooks.procs w.base) Fun.id)
    in
    let crashes =
      if w.left.Fault.crash <= 0 then []
      else
        List.filter_map
          (fun i ->
             if List.mem i w.crashed then None
             else
               Some
                 { Core.Pa.action = Crash i;
                   dist =
                     D.point
                       { base = hooks.on_crash w.base i;
                         crashed = insert i w.crashed;
                         stuck = remove i w.stuck;
                         left =
                           { w.left with
                             Fault.crash = w.left.Fault.crash - 1 } } })
          (List.init (hooks.procs w.base) Fun.id)
    in
    let stalls =
      if w.left.Fault.stuck <= 0 then []
      else
        List.filter_map
          (fun i ->
             if List.mem i w.crashed || List.mem i w.stuck then None
             else
               Some
                 { Core.Pa.action = Stall i;
                   dist =
                     D.point
                       { w with
                         stuck = insert i w.stuck;
                         left =
                           { w.left with
                             Fault.stuck = w.left.Fault.stuck - 1 } } })
          (List.init (hooks.procs w.base) Fun.id)
    in
    let resumes =
      List.map
        (fun i ->
           { Core.Pa.action = Resume i;
             dist =
               D.point
                 { w with
                   base = hooks.on_wake w.base i;
                   stuck = remove i w.stuck } })
        w.stuck
    in
    surviving @ stalled_losses @ injected_losses @ crashes @ stalls
    @ resumes
  in
  let hash_state w =
    Hashtbl.hash (Core.Pa.hash_state m w.base, w.crashed, w.stuck, w.left)
  in
  let equal_action a b =
    match a, b with
    | Step x, Step y -> Core.Pa.equal_action m x y
    | Crash i, Crash j | Lost i, Lost j | Stall i, Stall j
    | Resume i, Resume j -> i = j
    | (Step _ | Crash _ | Lost _ | Stall _ | Resume _), _ -> false
  in
  let is_external = function
    | Step a -> Core.Pa.is_external m a
    | Crash _ | Lost _ | Stall _ | Resume _ -> false
  in
  let pp_state fmt w =
    Format.fprintf fmt "@[<h>%a" (Core.Pa.pp_state m) w.base;
    if w.crashed <> [] then
      Format.fprintf fmt " crashed:{%s}"
        (String.concat "," (List.map string_of_int w.crashed));
    if w.stuck <> [] then
      Format.fprintf fmt " stuck:{%s}"
        (String.concat "," (List.map string_of_int w.stuck));
    if not (Fault.is_none w.left) then
      Format.fprintf fmt " faults:%s" (Fault.to_string w.left);
    Format.fprintf fmt "@]"
  in
  let pp_action fmt = function
    | Step a -> Core.Pa.pp_action m fmt a
    | Crash i -> Format.fprintf fmt "crash_%d" i
    | Lost i -> Format.fprintf fmt "lost_%d" i
    | Stall i -> Format.fprintf fmt "stall_%d" i
    | Resume i -> Format.fprintf fmt "resume_%d" i
  in
  Core.Pa.make ~equal_state ~hash_state ~equal_action ~is_external
    ~pp_state ~pp_action
    ~start:(List.map (init ~budget) (Core.Pa.start m))
    ~enabled ()
