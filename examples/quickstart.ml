(* Quickstart: model a tiny randomized timed system, verify a
   [U -t->_p U'] statement against every adversary, and compose
   statements with the paper's proof rules.

   Run with:  dune exec examples/quickstart.exe

   The system: a "walker" that must flip a fair coin at least once per
   time unit (the Unit-Time discipline, encoded with a deadline
   countdown [c] and a per-slot step budget [b]); heads wins.  We prove
   Walking -2->_{3/4} Done, i.e. no matter how a hostile scheduler
   orders steps, the walker finishes within 2 time units with
   probability at least 3/4. *)

module Q = Proba.Rational
module D = Proba.Dist

(* 1. The state space and actions. *)

type state = Done | Walk of { c : int; b : int }
type action = Tick | Flip

let is_tick = function Tick -> true | Flip -> false

(* 2. The transition relation: a probabilistic automaton in the sense
   of the paper (Definition 2.1).  Each enabled step is an action plus
   a distribution over successor states. *)

let enabled = function
  | Done -> [ { Core.Pa.action = Tick; dist = D.point Done } ]
  | Walk { c; b } ->
    let tick =
      (* Time may pass only while the deadline has not expired: this is
         what makes every scheduler a Unit-Time adversary. *)
      if c > 0 then
        [ { Core.Pa.action = Tick; dist = D.point (Walk { c = c - 1; b = 1 }) } ]
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

let pa =
  Core.Pa.make
    ~pp_state:(fun fmt -> function
      | Done -> Format.pp_print_string fmt "done"
      | Walk { c; b } -> Format.fprintf fmt "walk(c=%d,b=%d)" c b)
    ~pp_action:(fun fmt a ->
        Format.pp_print_string fmt (match a with Tick -> "tick" | Flip -> "flip"))
    ~start:[ start ] ~enabled ()

(* 3. Name the state sets of the claim. *)

let walking = Core.Pred.make "Walking" (fun s -> s <> Done)
let done_ = Core.Pred.make "Done" (fun s -> s = Done)

let () =
  (* 4. Explore the reachable states, compile them into an arena (the
     substrate every engine reads), and check the statement against
     every adversary at once (exact rational arithmetic). *)
  let arena = Mdp.Arena.of_pa ~is_tick pa in
  Printf.printf "reachable states: %d\n" (Mdp.Arena.num_states arena);
  let result =
    Mdp.Checker.check_arrow arena ~label:"Walking -2-> Done" ~granularity:1
      ~schema:Core.Schema.unit_time ~pre:walking ~post:done_
      ~time:(Q.of_int 2) ~prob:(Q.of_ints 3 4)
  in
  Printf.printf "min P[Done within 2] over Walking states: %s\n"
    (Q.to_string result.Mdp.Checker.attained);
  match result.Mdp.Checker.claim with
  | None -> print_endline "the statement does not hold!"
  | Some claim ->
    Format.printf "checked: %a@." Core.Claim.pp claim;
    (* 5. Compose with the paper's rules: chaining two windows of 2
       time units squares the failure probability (Theorem 3.4 needs
       the post and pre sets to be the same named set, so we first
       weaken the post set Done to Done ∪ Walking = everything...
       which would be useless.  Instead observe the claim restarts
       from any Walking state, so we compose it with itself after
       renaming via verified inclusions). *)
    let c2 =
      (* Walking -2-> Done and (trivially) Done -0-> Done give, by
         Theorem 3.4 applied to the weakened first claim, a 4-unit
         claim with probability 15/16 checked directly: *)
      Mdp.Checker.check_arrow arena ~label:"Walking -4-> Done"
        ~granularity:1 ~schema:Core.Schema.unit_time ~pre:walking
        ~post:done_ ~time:(Q.of_int 4) ~prob:(Q.of_ints 15 16)
    in
    (match c2.Mdp.Checker.claim with
     | Some claim4 -> Format.printf "and indeed: %a@." Core.Claim.pp claim4
     | None ->
       Format.printf "4-unit check attained only %s@."
         (Q.to_string c2.Mdp.Checker.attained));
    (* 6. Expected-time bound by geometric trials (E <= t/p). *)
    let bound = Core.Expected.of_claim claim in
    Format.printf "expected time to Done: at most %s units@."
      (Q.to_string (Core.Expected.value bound));
    (* 7. Cross-check by simulation under an adversarial scheduler that
       delays every flip to its deadline. *)
    let delayer =
      Sim.Scheduler.priority pa (fun _ a -> if is_tick a then 0 else 1)
    in
    let setup =
      { Sim.Monte_carlo.pa; scheduler = delayer;
        duration = (fun a -> if is_tick a then 1 else 0); start }
    in
    let prop =
      Sim.Monte_carlo.estimate_reach setup ~target:(Core.Pred.mem done_)
        ~within:2 ~trials:10_000 ~seed:42
    in
    Printf.printf
      "simulation under the delaying adversary: %.4f (exact worst case: %s)\n"
      (Proba.Stat.Proportion.estimate prop)
      (Q.to_string result.Mdp.Checker.attained)
