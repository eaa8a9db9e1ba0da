(* Shared toy automata for the core/mdp/sim test suites.  Each comes
   with hand-computed expected values documented at its definition. *)

module Q = Proba.Rational
module D = Proba.Dist

(* ------------------------------------------------------------------ *)
(* The Section 2 example: start state s0 with two nondeterministic
   steps, one reaching s1 with probability 1/2, the other with
   probability 1/3.  Min reach probability of {s1} is 1/3, max is 1/2. *)

module Choice = struct
  type state = S0 | S1 | S2
  type action = A | B

  let pp_state fmt s =
    Format.pp_print_string fmt
      (match s with S0 -> "s0" | S1 -> "s1" | S2 -> "s2")

  let pp_action fmt a =
    Format.pp_print_string fmt (match a with A -> "a" | B -> "b")

  let enabled = function
    | S0 ->
      [ { Core.Pa.action = A;
          dist = D.make [ (S1, Q.half); (S2, Q.half) ] };
        { Core.Pa.action = B;
          dist = D.make [ (S1, Q.of_ints 1 3); (S2, Q.of_ints 2 3) ] } ]
    | S1 | S2 -> []

  let pa = Core.Pa.make ~pp_state ~pp_action ~start:[ S0 ] ~enabled ()
  let s1 = Core.Pred.make "s1" (fun s -> s = S1)
end

(* ------------------------------------------------------------------ *)
(* Example 4.1: processes P and Q each flip one coin; the adversary
   chooses the scheduling.  The "dependency" adversary schedules P
   first and schedules Q only if P's coin came up heads. *)

module Race = struct
  type coin = Unflipped | Heads | Tails
  type state = { p : coin; q : coin }
  type action = Flip_p | Flip_q

  let pp_coin fmt c =
    Format.pp_print_string fmt
      (match c with Unflipped -> "?" | Heads -> "H" | Tails -> "T")

  let pp_state fmt s = Format.fprintf fmt "(%a,%a)" pp_coin s.p pp_coin s.q

  let pp_action fmt a =
    Format.pp_print_string fmt
      (match a with Flip_p -> "flip_p" | Flip_q -> "flip_q")

  let enabled s =
    let flip_p =
      if s.p = Unflipped then
        [ { Core.Pa.action = Flip_p;
            dist = D.coin { s with p = Heads } { s with p = Tails } } ]
      else []
    in
    let flip_q =
      if s.q = Unflipped then
        [ { Core.Pa.action = Flip_q;
            dist = D.coin { s with q = Heads } { s with q = Tails } } ]
      else []
    in
    flip_p @ flip_q

  let start = { p = Unflipped; q = Unflipped }
  let pa = Core.Pa.make ~pp_state ~pp_action ~start:[ start ] ~enabled ()

  let p_heads = Core.Pred.make "P=heads" (fun s -> s.p = Heads)
  let q_tails = Core.Pred.make "Q=tails" (fun s -> s.q = Tails)

  (* Schedules P; after P's flip, schedules Q only on heads. *)
  let dependency_adversary : (state, action) Core.Adversary.t =
   fun frag ->
    let s = Core.Exec.lstate frag in
    if s.p = Unflipped then
      Some
        { Core.Pa.action = Flip_p;
          dist = D.coin { s with p = Heads } { s with p = Tails } }
    else if s.p = Heads && s.q = Unflipped then
      Some
        { Core.Pa.action = Flip_q;
          dist = D.coin { s with q = Heads } { s with q = Tails } }
    else None

  (* Schedules both coins unconditionally, P first. *)
  let fair_adversary : (state, action) Core.Adversary.t =
   fun frag ->
    let s = Core.Exec.lstate frag in
    if s.p = Unflipped then
      Some
        { Core.Pa.action = Flip_p;
          dist = D.coin { s with p = Heads } { s with p = Tails } }
    else if s.q = Unflipped then
      Some
        { Core.Pa.action = Flip_q;
          dist = D.coin { s with q = Heads } { s with q = Tails } }
    else None
end

(* ------------------------------------------------------------------ *)
(* A clocked "walker": one process that must flip a coin at least once
   per time unit (granularity 1, budget 1 step per slot); heads reaches
   the goal.  Hand-computed values:
     min P[reach within t ticks] = 1 - 2^-t      (adversary delays)
     max P[reach within t ticks] = 1 - 2^-(t+1)  (flip now, then per tick)
     max expected ticks to goal  = 2
     min expected ticks to goal  = 1
   States: Done, or Walk with countdown c (slots until forced) and
   budget b (steps allowed before next tick). *)

module Walker = struct
  type state = Done | Walk of { c : int; b : int }
  type action = Tick | Flip

  let pp_state fmt = function
    | Done -> Format.pp_print_string fmt "done"
    | Walk { c; b } -> Format.fprintf fmt "walk(c=%d,b=%d)" c b

  let pp_action fmt a =
    Format.pp_print_string fmt (match a with Tick -> "tick" | Flip -> "flip")

  let is_tick = function Tick -> true | Flip -> false

  let enabled = function
    | Done ->
      [ { Core.Pa.action = Tick; dist = D.point Done } ]
    | Walk { c; b } ->
      let tick =
        if c > 0 then
          [ { Core.Pa.action = Tick;
              dist = D.point (Walk { c = c - 1; b = 1 }) } ]
        else []
      in
      let flip =
        if b > 0 then
          [ { Core.Pa.action = Flip;
              dist = D.coin Done (Walk { c = 1; b = b - 1 }) } ]
        else []
      in
      tick @ flip

  let start = Walk { c = 1; b = 1 }
  let pa = Core.Pa.make ~pp_state ~pp_action ~start:[ start ] ~enabled ()
  let done_ = Core.Pred.make "done" (fun s -> s = Done)
end

(* Three [Walker]s in parallel, a 3-process timed system: [Tick] is
   joint (every walker ticks, or none does) and each [Flip] moves one
   walker alone.  The minimum probability that all finish within one
   time unit is (1/2)^3, the maximum (3/4)^3. *)

module Three_walkers = struct
  let replace i x = List.mapi (fun j y -> if j = i then x else y)

  let enabled ws =
    let steps action w =
      List.filter (fun st -> st.Core.Pa.action = action) (Walker.enabled w)
    in
    let tick =
      List.fold_right
        (fun w acc ->
           match steps Walker.Tick w, acc with
           | [ st ], Some rest ->
             Some
               (D.map (fun (x, xs) -> x :: xs) (D.product st.Core.Pa.dist rest))
           | _ -> None)
        ws (Some (D.point []))
    in
    let flips =
      List.concat
        (List.mapi
           (fun i w ->
              List.map
                (fun st ->
                   { st with
                     Core.Pa.dist =
                       D.map (fun x -> replace i x ws) st.Core.Pa.dist })
                (steps Walker.Flip w))
           ws)
    in
    (match tick with
     | Some dist -> [ { Core.Pa.action = Walker.Tick; dist } ]
     | None -> [])
    @ flips

  let pa =
    Core.Pa.make
      ~pp_state:(Format.pp_print_list Walker.pp_state)
      ~pp_action:Walker.pp_action
      ~start:[ [ Walker.start; Walker.start; Walker.start ] ]
      ~enabled ()

  let all_done =
    Core.Pred.make "all done" (List.for_all (fun s -> s = Walker.Done))
end

(* ------------------------------------------------------------------ *)
(* An untimed automaton where the adversary can avoid the target by
   self-looping: used by the qualitative tests. *)

module Escape = struct
  type state = Start | Goal | Trap
  type action = Go | Stay | Fall

  let enabled = function
    | Start ->
      [ { Core.Pa.action = Go; dist = D.point Goal };
        { Core.Pa.action = Stay; dist = D.point Start };
        { Core.Pa.action = Fall; dist = D.point Trap } ]
    | Goal | Trap -> []

  let pa = Core.Pa.make ~start:[ Start ] ~enabled ()
  let goal = Core.Pred.make "goal" (fun s -> s = Goal)
end

(* ------------------------------------------------------------------ *)
(* A forced coin cascade: from each level, the single enabled step
   flips toward the next level or resets; always reaches the top with
   probability 1 (qualitative), used to contrast with Escape. *)

module Cascade = struct
  type state = Level of int (* 0 .. 2; level 2 is the goal *)
  type action = Flip

  let enabled = function
    | Level 2 -> []
    | Level k ->
      [ { Core.Pa.action = Flip;
          dist = D.coin (Level (k + 1)) (Level 0) } ]

  let pa = Core.Pa.make ~start:[ Level 0 ] ~enabled ()
  let goal = Core.Pred.make "top" (fun s -> s = Level 2)
end
