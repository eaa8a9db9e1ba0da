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
