module Q = Proba.Rational

exception No_convergence of string

let no_convergence max_sweeps =
  raise
    (No_convergence
       (Printf.sprintf
          "tick layer did not close after %d sweeps: the automaton \
           has probabilistic zero-time cycles" max_sweeps))

(* Exact rational backward induction, and the policy extraction.  It
   reads the arena's exact plane directly; the branch order is the
   arena's, which is the exploration order, so results are
   bit-identical to the historical per-engine conversion path. *)

(* Tick layers solved by this process, surfaced by [prtb check --stats]:
   process-global and atomic, since engines run in worker domains. *)
let layers = Atomic.make 0
let layers_solved () = Atomic.get layers

(* The arena's CSR arrays plus the target set: building it is O(1),
   no per-call conversion or copying. *)
type compact = {
  n : int;
  target : bool array;
  step_off : int array;
  out_off : int array;
  tgt : int array;
  tick : bool array;
  prob : Q.t array;
  zero_time : Zero_time.t;
}

let compact (a : _ Arena.t) ~target =
  if Array.length target <> a.Arena.n then
    invalid_arg "Finite_horizon: target array has wrong length";
  { n = a.Arena.n;
    target;
    step_off = a.Arena.step_off;
    out_off = a.Arena.out_off;
    tgt = a.Arena.tgt;
    tick = a.Arena.tick;
    prob = a.Arena.prob_q;
    zero_time = Arena.zero_time a }

(* Expectation of step [k] under value vector [v]: a left fold over
   the step's branch range, the same association order as the
   historical per-step outcome arrays. *)
let expectation c v k =
  let acc = ref Q.zero in
  for o = c.out_off.(k) to c.out_off.(k + 1) - 1 do
    acc := Q.add !acc (Q.mul c.prob.(o) v.(c.tgt.(o)))
  done;
  !acc

(* One tick layer: given the value vector [v_next] for one tick less
   of budget, compute the fixpoint of
     v(s) = 1                          if target(s)
          | 0                          if no step enabled
          | best over steps:  tick s     -> E_{v_next}
                              non-tick s -> E_v
   in one walk over the zero-time components, successors first.  A
   state of an acyclic component reads only final values, so one
   evaluation is its fixpoint; a cyclic component is swept in place
   from [init] until unchanged.  Any schedule of this monotone
   operator that closes from [init] closes at the same extremal
   fixpoint, so the values equal those of whole-arena sweeps. *)
let layer c ~best ~init v_next =
  Atomic.incr layers;
  let v = Array.init c.n init in
  (* fold in step order, seeded with the first candidate: the same
     association as the historical option fold, minus its per-step
     allocation *)
  let value s =
    let candidate k =
      if c.tick.(k) then expectation c v_next k else expectation c v k
    in
    let acc = ref (candidate c.step_off.(s)) in
    for k = c.step_off.(s) + 1 to c.step_off.(s + 1) - 1 do
      acc := best !acc (candidate k)
    done;
    !acc
  in
  (* [true] iff the state's value moved *)
  let update s =
    if c.target.(s) || c.step_off.(s + 1) = c.step_off.(s) then false
    else begin
      let fresh = value s in
      if Q.equal fresh v.(s) then false
      else begin
        v.(s) <- fresh;
        true
      end
    end
  in
  let z = c.zero_time in
  let max_sweeps = c.n + 2 in
  for comp = 0 to Zero_time.num_components z - 1 do
    let lo = z.comp_off.(comp) and hi = z.comp_off.(comp + 1) in
    if not z.cyclic.(comp) then begin
      if comp land 4095 = 0 then Core.Budget.poll ();
      ignore (update z.order.(lo))
    end
    else begin
      let sweep () =
        let changed = ref false in
        for i = lo to hi - 1 do
          if update z.order.(i) then changed := true
        done;
        !changed
      in
      (* poll per sweep: a fired deadline aborts mid-layer *)
      let rec go k =
        Core.Budget.poll ();
        if k > max_sweeps then no_convergence max_sweeps
        else if sweep () then go (k + 1)
      in
      go 0
    end
  done;
  v

let min_init c s =
  if c.target.(s) then Q.one
  else if c.step_off.(s + 1) = c.step_off.(s) then Q.zero
  else Q.one

let max_init c s = if c.target.(s) then Q.one else Q.zero

let run arena ~target ~ticks ~best ~init =
  if ticks < 0 then invalid_arg "Finite_horizon: negative tick horizon";
  let c = compact arena ~target in
  let v = ref (Array.make c.n Q.zero) in
  for _t = 0 to ticks do
    v := layer c ~best ~init:(init c) !v
  done;
  !v

let min_reach arena ~target ~ticks =
  run arena ~target ~ticks ~best:Q.min ~init:min_init

let max_reach arena ~target ~ticks =
  run arena ~target ~ticks ~best:Q.max ~init:max_init

let argbest c ~best v_next v =
  Array.init c.n (fun s ->
      let lo = c.step_off.(s) and hi = c.step_off.(s + 1) in
      if c.target.(s) || hi = lo then -1
      else begin
        let best_k = ref 0 in
        let best_v = ref None in
        for k = lo to hi - 1 do
          let candidate =
            expectation c (if c.tick.(k) then v_next else v) k
          in
          match !best_v with
          | None ->
            best_v := Some candidate;
            best_k := k - lo
          | Some cur ->
            if not (Q.equal (best cur candidate) cur) then begin
              best_v := Some candidate;
              best_k := k - lo
            end
        done;
        !best_k
      end)

let min_reach_with_policy arena ~target ~ticks =
  if ticks < 0 then invalid_arg "Finite_horizon: negative tick horizon";
  let c = compact arena ~target in
  let policy = Array.make (ticks + 1) [||] in
  let v = ref (Array.make c.n Q.zero) in
  for t = 0 to ticks do
    let fresh = layer c ~best:Q.min ~init:(min_init c) !v in
    policy.(t) <- argbest c ~best:Q.min !v fresh;
    v := fresh
  done;
  (!v, policy)
