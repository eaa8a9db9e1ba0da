let apply_state pi (s : Automaton.state) =
  let procs = Array.copy s.Automaton.procs in
  Array.iteri (fun i p -> procs.(pi.(i)) <- p) s.Automaton.procs;
  let permute_row = fun row ->
    let r = Array.copy row in
    Array.iteri (fun j x -> r.(pi.(j)) <- x) row;
    r
  in
  { Automaton.procs;
    reports = Array.map permute_row s.Automaton.reports;
    proposals = Array.map permute_row s.Automaton.proposals }

(* Collection subsets are generated as [collector :: rest] with [rest]
   ascending ([Automaton.collections]); re-normalize the permuted
   subset to that shape, else the image action would differ from the
   equal one actually enabled and PA030 would fire spuriously. *)
let apply_subset pi = function
  | [] -> []
  | collector :: rest ->
    pi.(collector) :: List.sort compare (List.map (fun j -> pi.(j)) rest)

let apply_action pi = function
  | Automaton.Tick -> Automaton.Tick
  | Automaton.Crash i -> Automaton.Crash pi.(i)
  | Automaton.Report i -> Automaton.Report pi.(i)
  | Automaton.Collect_reports (i, subset) ->
    Automaton.Collect_reports (pi.(i), apply_subset pi subset)
  | Automaton.Collect_proposals (i, subset) ->
    Automaton.Collect_proposals (pi.(i), apply_subset pi subset)

let transposition n a b =
  Array.init n (fun i -> if i = a then b else if i = b then a else i)

(* Adjacent transpositions within each class of processes with equal
   initial values: [swap(a,b)] where [b] is the next process after [a]
   in [a]'s class.  Only permutations fixing the start state are
   automorphisms -- swapping processes with different initial values
   moves it -- and these generate every permutation inside each class,
   with one generator per class member but the last rather than one
   per pair: every orbit-reduction cost is per generator. *)
let generators (params : Automaton.params) ~initial =
  let n = params.Automaton.n in
  let gens = ref [] in
  for a = n - 1 downto 0 do
    let rec next b =
      if b >= n then None
      else if initial.(b) = initial.(a) then Some b
      else next (b + 1)
    in
    match next (a + 1) with
    | Some b ->
      let pi = transposition n a b in
      gens :=
        Analysis.Symmetry.generator
          ~name:(Printf.sprintf "swap(%d,%d)" a b)
          ~on_state:(apply_state pi) ~on_action:(apply_action pi)
        :: !gens
    | None -> ()
  done;
  !gens

let spec ?(extra = []) (params : Automaton.params) ~initial =
  let start = Automaton.start params initial in
  Analysis.Symmetry.spec
    ~preds:
      (List.map
         (fun (name, mem) -> Core.Pred.make name mem)
         ([ ("Init", fun s -> s = start);
            ("Decided", Automaton.some_decided);
            ("Agreement", Automaton.agreement);
            ("Quiescent", Automaton.quiescent) ]
          @ extra))
    (generators params ~initial)
