let apply_state pi (s : Automaton.state) =
  let clocks = Array.copy s.Automaton.clocks in
  Array.iteri (fun i c -> clocks.(pi.(i)) <- c) s.Automaton.clocks;
  { s with Automaton.clocks }

let apply_action pi = function
  | Automaton.Tick -> Automaton.Tick
  | Automaton.Flip i -> Automaton.Flip pi.(i)

let transposition n a b =
  Array.init n (fun i -> if i = a then b else if i = b then a else i)

(* The counter is shared and the start clocks are uniform, so the full
   symmetric group on processes acts; adjacent transpositions generate
   it. *)
let generators (params : Automaton.params) =
  let n = params.Automaton.n in
  List.init (max 0 (n - 1)) (fun a ->
      let pi = transposition n a (a + 1) in
      Analysis.Symmetry.generator
        ~name:(Printf.sprintf "swap(%d,%d)" a (a + 1))
        ~on_state:(apply_state pi) ~on_action:(apply_action pi))

let spec ?(extra = []) (params : Automaton.params) =
  let rungs =
    List.init
      (params.Automaton.bound + 1)
      (fun d -> Automaton.at_least params d)
  in
  Analysis.Symmetry.spec
    ~preds:(rungs @ List.map (fun (name, mem) -> Core.Pred.make name mem) extra)
    (generators params)
