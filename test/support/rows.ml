(* One explored state's steps as boxed rows, rebuilt from the
   fragment's CSR arrays: the shape the reference implementations in
   the tests walk.  Reads the fragment only, so no compile is
   counted. *)

type 'a step = { action : 'a; outcomes : (int * Proba.Rational.t) array }

let steps expl i =
  let { Mdp.Explore.step_off; out_off; tgt; prob_q; actions } =
    Mdp.Explore.csr expl
  in
  Array.init
    (step_off.(i + 1) - step_off.(i))
    (fun j ->
       let k = step_off.(i) + j in
       { action = actions.(k);
         outcomes =
           Array.init
             (out_off.(k + 1) - out_off.(k))
             (fun b -> (tgt.(out_off.(k) + b), prob_q.(out_off.(k) + b))) })

(* The fragment a BFS of [expl]'s automaton holds when it stops before
   the first expansion that finds [max_states] states interned: the
   expanded prefix keeps its rows, the states it discovered beyond that
   are the frontier, with empty rows.  Interning is FIFO, so the
   discovered states are an index prefix of the full fragment.  Built
   through [Explore.of_parts], as a snapshot with a frontier is. *)
let frontier_cut expl ~max_states =
  let ({ Mdp.Explore.step_off; out_off; tgt; prob_q; actions } : _ Mdp.Explore.csr) =
    Mdp.Explore.csr expl
  in
  let starts = Mdp.Explore.start_indices expl in
  let interned = ref (1 + List.fold_left max (-1) starts) in
  let expanded = ref 0 in
  while !interned < max_states && !expanded < !interned do
    for o = out_off.(step_off.(!expanded)) to out_off.(step_off.(!expanded + 1)) - 1 do
      interned := max !interned (tgt.(o) + 1)
    done;
    incr expanded
  done;
  let n = !interned and e = !expanded in
  let steps = step_off.(e) in
  let branches = out_off.(steps) in
  let csr =
    { Mdp.Explore.step_off =
        Array.init (n + 1) (fun i -> step_off.(min i e));
      out_off = Array.sub out_off 0 (steps + 1);
      tgt = Array.sub tgt 0 branches;
      prob_q = Array.sub prob_q 0 branches;
      actions = Array.sub actions 0 steps }
  in
  Mdp.Explore.of_parts ~pa:(Mdp.Explore.automaton expl)
    ~states:(Array.init n (Mdp.Explore.state expl))
    ~csr ~start_indices:starts ~expanded:e ()
