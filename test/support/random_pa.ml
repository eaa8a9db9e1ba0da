(* Seeded random probabilistic automata: models nobody designed to pass,
   for differential tests of the engines against a reference.

   States [0 .. n-1] (2 <= n <= 30) all start, so exploration order is
   state order.  Each state gets 0-3 steps; a step is a tick with
   probability 1/3 and has 1-3 branches with dyadic or 1/3 weights.
   Nothing keeps zero-time cycles out: Dirac ones must close,
   probabilistic ones are refused (or close, where the fixpoint is hit
   exactly).  A state is a goal with probability 1/4, and the horizon
   is 0-3 ticks.  The same seed always gives the same model. *)

module Q = Proba.Rational

type t = {
  name : string;
  pa : (int, string * int) Core.Pa.t;
  goal : int Core.Pred.t;
  ticks : int;
}

(* Actions are [(label, k)], [k] the step's index at its state, so two
   steps with the same label stay distinct. *)
let is_tick (act, _) = act = "tick"

let make seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let n = 2 + int 29 in
  let weights = function
    | 1 -> [ Q.one ]
    | 2 ->
      if Random.State.bool rng then [ Q.of_ints 1 2; Q.of_ints 1 2 ]
      else [ Q.of_ints 1 3; Q.of_ints 2 3 ]
    | _ ->
      if Random.State.bool rng then
        [ Q.of_ints 1 2; Q.of_ints 1 4; Q.of_ints 1 4 ]
      else [ Q.of_ints 1 3; Q.of_ints 1 3; Q.of_ints 1 3 ]
  in
  let steps =
    Array.init n (fun _ ->
        List.init (int 4) (fun k ->
            let act = if int 3 = 0 then "tick" else "go" in
            let branches = if int 3 = 0 then 1 + int 3 else 1 in
            let targets =
              List.sort_uniq compare (List.init branches (fun _ -> int n))
            in
            { Core.Pa.action = (act, k);
              dist =
                Proba.Dist.make
                  (List.combine targets (weights (List.length targets))) }))
  in
  let goal = Array.init n (fun _ -> int 4 = 0) in
  let ticks = int 4 in
  { name = Printf.sprintf "seed %d" seed;
    pa =
      Core.Pa.make ~start:(List.init n Fun.id) ~enabled:(fun s -> steps.(s))
        ();
    goal = Core.Pred.make "goal" (fun s -> goal.(s));
    ticks }
