module D = Proba.Dist

type params = { n : int; g : int; k : int }

(* Internally everything is expressed over a topology; the ring [params]
   interface delegates. *)
type gparams = { topo : Topology.t; gg : int; gk : int }

type action =
  | Tick
  | Try of int
  | Exit of int
  | Flip of int
  | Wait of int
  | Second of int
  | Drop of int
  | Crit of int
  | Drop_first of int * State.side
  | Drop_second of int
  | Rem of int

let pp_action fmt = function
  | Tick -> Format.pp_print_string fmt "tick"
  | Try i -> Format.fprintf fmt "try_%d" i
  | Exit i -> Format.fprintf fmt "exit_%d" i
  | Flip i -> Format.fprintf fmt "flip_%d" i
  | Wait i -> Format.fprintf fmt "wait_%d" i
  | Second i -> Format.fprintf fmt "second_%d" i
  | Drop i -> Format.fprintf fmt "drop_%d" i
  | Crit i -> Format.fprintf fmt "crit_%d" i
  | Drop_first (i, u) ->
    Format.fprintf fmt "dropf_%d(keep %s)" i
      (match u with State.L -> "left" | State.R -> "right")
  | Drop_second i -> Format.fprintf fmt "drops_%d" i
  | Rem i -> Format.fprintf fmt "rem_%d" i

let is_tick = function Tick -> true | _ -> false
let duration a = if is_tick a then 1 else 0

let is_external = function
  | Try _ | Crit _ | Exit _ | Rem _ -> true
  | Tick | Flip _ | Wait _ | Second _ | Drop _ | Drop_first _
  | Drop_second _ -> false

(* --------------------------------------------------------------- *)
(* State update helpers (purely functional). *)

let set_proc s i p =
  let procs = Array.copy s.State.procs in
  procs.(i) <- p;
  { s with State.procs }

let set_res s j taken =
  let res = Array.copy s.State.res in
  res.(j) <- taken;
  { s with State.res }

(* A process step: consume one budget unit, restart the deadline. *)
let stepped params (p : State.proc) region =
  if State.ready region then
    { State.region; c = params.gg; b = p.State.b - 1 }
  else
    (* Canonical clocks for non-ready regions keep the state space small
       and are never read. *)
    { State.region; c = params.gg; b = params.gk }

(* Becoming ready through a user action: fresh deadline and budget. *)
let granted params region = { State.region; c = params.gg; b = params.gk }

let tick_step params s =
  let all_ok =
    Array.for_all
      (fun p -> (not (State.ready p.State.region)) || p.State.c > 0)
      s.State.procs
  in
  if not all_ok then []
  else begin
    let procs =
      Array.map
        (fun p ->
           if State.ready p.State.region then
             { p with State.c = p.State.c - 1; b = params.gk }
           else p)
        s.State.procs
    in
    [ { Core.Pa.action = Tick; dist = D.point { s with State.procs } } ]
  end

let user_steps params s =
  let step_for i (p : State.proc) =
    match p.State.region with
    | State.Rem ->
      [ { Core.Pa.action = Try i;
          dist = D.point (set_proc s i (granted params State.Flip)) } ]
    | State.Crit ->
      [ { Core.Pa.action = Exit i;
          dist = D.point (set_proc s i (granted params State.Exit_f)) } ]
    | State.Flip | State.Wait _ | State.Second _ | State.Drop _
    | State.Pre | State.Exit_f | State.Exit_s _ | State.Exit_r -> []
  in
  List.concat (List.mapi step_for (Array.to_list s.State.procs))

let proc_steps params s =
  let step_for i (p : State.proc) =
    if not (State.ready p.State.region) || p.State.b <= 0 then []
    else begin
      let resource u = Topology.res params.topo i u in
      match p.State.region with
      | State.Flip ->
        let branch u = set_proc s i (stepped params p (State.Wait u)) in
        [ { Core.Pa.action = Flip i;
            dist = D.coin (branch State.L) (branch State.R) } ]
      | State.Wait u ->
        let target =
          if s.State.res.(resource u) then
            (* Busy-wait: the resource is taken; the step only burns
               budget and restarts the deadline. *)
            set_proc s i (stepped params p (State.Wait u))
          else
            set_res (set_proc s i (stepped params p (State.Second u)))
              (resource u) true
        in
        [ { Core.Pa.action = Wait i; dist = D.point target } ]
      | State.Second u ->
        let other = State.opp u in
        let target =
          if s.State.res.(resource other) then
            set_proc s i (stepped params p (State.Drop u))
          else
            set_res (set_proc s i (stepped params p State.Pre))
              (resource other) true
        in
        [ { Core.Pa.action = Second i; dist = D.point target } ]
      | State.Drop u ->
        let target =
          set_res (set_proc s i (stepped params p State.Flip)) (resource u)
            false
        in
        [ { Core.Pa.action = Drop i; dist = D.point target } ]
      | State.Pre ->
        [ { Core.Pa.action = Crit i;
            dist = D.point (set_proc s i (stepped params p State.Crit)) } ]
      | State.Exit_f ->
        let choose keep =
          let target =
            set_res
              (set_proc s i (stepped params p (State.Exit_s keep)))
              (resource (State.opp keep))
              false
          in
          { Core.Pa.action = Drop_first (i, keep); dist = D.point target }
        in
        [ choose State.L; choose State.R ]
      | State.Exit_s u ->
        let target =
          set_res (set_proc s i (stepped params p State.Exit_r)) (resource u)
            false
        in
        [ { Core.Pa.action = Drop_second i; dist = D.point target } ]
      | State.Exit_r ->
        [ { Core.Pa.action = Rem i;
            dist = D.point (set_proc s i (stepped params p State.Rem)) } ]
      | State.Rem | State.Crit -> []
    end
  in
  List.concat (List.mapi step_for (Array.to_list s.State.procs))

let enabled_general gp s =
  tick_step gp s @ user_steps gp s @ proc_steps gp s

let make_general ~topo ~g ~k =
  let gp = { topo; gg = g; gk = k } in
  let start =
    State.initial_general ~num_procs:(Topology.num_procs topo)
      ~num_resources:(Topology.num_resources topo) ~g ~k
  in
  Core.Pa.make ~equal_state:State.equal ~hash_state:State.hash
    ~is_external ~pp_state:State.pp ~pp_action ~start:[ start ]
    ~enabled:(enabled_general gp) ()

let gparams_of params =
  { topo = Topology.ring params.n; gg = params.g; gk = params.k }

let enabled params s = enabled_general (gparams_of params) s

let make params = make_general ~topo:(Topology.ring params.n) ~g:params.g ~k:params.k
