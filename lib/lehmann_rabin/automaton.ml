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
(* State update helpers (purely functional).  A successor shares with
   its source every array it does not change, and snapshots marshal
   that sharing, so which arrays are copied is part of the output. *)

let set_proc s i p =
  let procs = Array.copy s.State.procs in
  procs.(i) <- p;
  { s with State.procs }

(* [set_proc] then setting [Res j] to [taken]: both arrays copied. *)
let set_proc_res s i p j taken =
  let procs = Array.copy s.State.procs in
  procs.(i) <- p;
  let res = Array.copy s.State.res in
  res.(j) <- taken;
  { State.procs; res }

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

let point action target = { Core.Pa.action; dist = D.point target }

(* Every step is consed onto [acc], the per-process ones right to left,
   so the list reads: tick, the users' steps by process, then the
   processes' own steps by process. *)
let rec tick_allowed (procs : State.proc array) i =
  i < 0
  || ((not (State.ready procs.(i).State.region)) || procs.(i).State.c > 0)
     && tick_allowed procs (i - 1)

let tick_step params s acc =
  let procs = s.State.procs in
  if not (tick_allowed procs (Array.length procs - 1)) then acc
  else begin
    let ticked = Array.copy procs in
    for i = 0 to Array.length procs - 1 do
      let p = procs.(i) in
      if State.ready p.State.region then
        ticked.(i) <- { p with State.c = p.State.c - 1; b = params.gk }
    done;
    point Tick { s with State.procs = ticked } :: acc
  end

let user_step params s i acc =
  match s.State.procs.(i).State.region with
  | State.Rem -> point (Try i) (set_proc s i (granted params State.Flip)) :: acc
  | State.Crit ->
    point (Exit i) (set_proc s i (granted params State.Exit_f)) :: acc
  | State.Flip | State.Wait _ | State.Second _ | State.Drop _ | State.Pre
  | State.Exit_f | State.Exit_s _ | State.Exit_r -> acc

(* The side is an argument, not a literal: [Wait L] written out is one
   static block every successor would share, and the snapshot bytes
   record sharing. *)
let[@inline never] flipped params s i p u =
  set_proc s i (stepped params p (State.Wait u))

(* Keep side [keep], put the opposite resource back. *)
let[@inline never] drop_first params s i p keep =
  point
    (Drop_first (i, keep))
    (set_proc_res s i
       (stepped params p (State.Exit_s keep))
       (Topology.res params.topo i (State.opp keep))
       false)

let proc_step params s i acc =
  let p = s.State.procs.(i) in
  if not (State.ready p.State.region) || p.State.b <= 0 then acc
  else begin
    let topo = params.topo in
    match p.State.region with
    | State.Flip ->
      { Core.Pa.action = Flip i;
        dist = D.coin (flipped params s i p State.L) (flipped params s i p State.R) }
      :: acc
    | State.Wait u ->
      let r = Topology.res topo i u in
      let target =
        if s.State.res.(r) then
          (* Busy-wait: the resource is taken; the step only burns
             budget and restarts the deadline. *)
          set_proc s i (stepped params p (State.Wait u))
        else set_proc_res s i (stepped params p (State.Second u)) r true
      in
      point (Wait i) target :: acc
    | State.Second u ->
      let r = Topology.res topo i (State.opp u) in
      let target =
        if s.State.res.(r) then set_proc s i (stepped params p (State.Drop u))
        else set_proc_res s i (stepped params p State.Pre) r true
      in
      point (Second i) target :: acc
    | State.Drop u ->
      point (Drop i)
        (set_proc_res s i (stepped params p State.Flip) (Topology.res topo i u)
           false)
      :: acc
    | State.Pre -> point (Crit i) (set_proc s i (stepped params p State.Crit)) :: acc
    | State.Exit_f ->
      drop_first params s i p State.L :: drop_first params s i p State.R :: acc
    | State.Exit_s u ->
      point (Drop_second i)
        (set_proc_res s i (stepped params p State.Exit_r) (Topology.res topo i u)
           false)
      :: acc
    | State.Exit_r ->
      point (Rem i) (set_proc s i (stepped params p State.Rem)) :: acc
    | State.Rem | State.Crit -> acc
  end

let rec from_each step params s i acc =
  if i < 0 then acc else from_each step params s (i - 1) (step params s i acc)

let enabled_general gp s =
  let last = Array.length s.State.procs - 1 in
  tick_step gp s
    (from_each user_step gp s last (from_each proc_step gp s last []))

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
