let apply_state pi (s : Automaton.state) =
  let r = Array.copy s in
  Array.iteri (fun i p -> r.(pi.(i)) <- p) s;
  r

let apply_action pi = function
  | Automaton.Tick -> Automaton.Tick
  | Automaton.Flip i -> Automaton.Flip pi.(i)

let transposition n a b =
  Array.init n (fun i -> if i = a then b else if i = b then a else i)

(* Adjacent transpositions generate the full symmetric group: the
   start state is uniform, so every process permutation is a candidate
   automorphism. *)
let generators (params : Automaton.params) =
  let n = params.Automaton.n in
  List.init (n - 1) (fun a ->
      let pi = transposition n a (a + 1) in
      Analysis.Symmetry.generator
        ~name:(Printf.sprintf "swap(%d,%d)" a (a + 1))
        ~on_state:(apply_state pi) ~on_action:(apply_action pi))

let spec ?(extra = []) (params : Automaton.params) =
  let rungs =
    List.init params.Automaton.n (fun k -> Automaton.at_most (k + 1))
  in
  Analysis.Symmetry.spec
    ~preds:(rungs @ List.map (fun (name, mem) -> Core.Pred.make name mem) extra)
    (generators params)
