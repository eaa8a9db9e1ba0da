module Q = Proba.Rational

exception No_convergence of string

let no_convergence max_sweeps =
  raise
    (No_convergence
       (Printf.sprintf
          "tick layer did not close after %d sweeps: the automaton \
           has probabilistic zero-time cycles" max_sweeps))

(* Exact rational backward induction: the [Plane.Exact] path of
   [min_reach]/[max_reach], and the policy extraction.  It reads the
   arena's exact plane directly; the branch order is the arena's, which
   is the exploration order, so results are bit-identical to the
   historical per-engine conversion path. *)
module Exact = struct
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
end

(* ------------------------------------------------------------------ *)
(* Interval-guided exact backward induction: the [Plane.Interval] path
   of [min_reach]/[max_reach].

   Each tick layer is solved in one walk over the zero-time components,
   successors first ([Arena.zero_time]).  Each component is solved in
   two passes before the walk moves on:

   1. an outward-rounded interval pass over the arena's interval plane
      -- one evaluation for an acyclic component, in-place float-pair
      sweeps to closure for a cyclic one, at the exact engine's
      schedule, so the intervals bracket every exact iterate and hence
      the layer fixpoint;
   2. an exact pass restricted to the *residue*: members whose interval
      did not collapse to a point.  A point interval contains exactly
      one real, necessarily the exact layer value, and that real is a
      double, recovered with [Rational.of_float_exact] -- no Bigint
      work.  The residue recursion runs with point states pinned; by
      monotonicity of the layer operator it converges to exactly the
      restriction of the full exact fixpoint (pin any other fixpoint
      of the restricted system and extending it with the pins yields a
      pre-/post-fixpoint squeezing it against the true limit).  The
      residue's envelopes are then tightened to their exact values, so
      the components upstream read sharper brackets.

   Results are bit-identical to the pure-exact engines: equal values
   of canonical rationals are structurally equal.  If a cyclic
   component's interval pass fails to close within the [n + 2] sweep
   cap, the whole component is recomputed exactly (counted in
   [Plane.stats]); the residue recursion keeps the same cap and
   [No_convergence] semantics.  In particular a component that
   diverges exactly (zero-time probabilistic cycle) can never be fully
   pinned: its strictly monotone exact iterates cannot share one point
   interval, so the diverging states stay in the residue and raise as
   before.

   All interval quantities here are reach probabilities in [0, 1], so
   the directed products need only the nonnegative corner
   ([lo*lo, hi*hi]) and lower endpoints can never round below 0. *)
module Guided = struct
  module I = Proba.Interval

  type kind = Min | Max

  let run kind (a : _ Arena.t) ~target ~ticks =
    if ticks < 0 then invalid_arg "Finite_horizon: negative tick horizon";
    let n = a.Arena.n in
    if Array.length target <> n then
      invalid_arg "Finite_horizon: target array has wrong length";
    let plo, phi = Arena.interval_plane a in
    let z = Arena.zero_time a in
    let step_off = a.Arena.step_off and out_off = a.Arena.out_off in
    let tgt = a.Arena.tgt and tick = a.Arena.tick in
    let prob_q = a.Arena.prob_q in
    let num_steps = Array.length tick in
    let qbest = match kind with Min -> Q.min | Max -> Q.max in
    let init_point s =
      match kind with
      | Min ->
        if target.(s) then 1.0
        else if step_off.(s + 1) = step_off.(s) then 0.0
        else 1.0
      | Max -> if target.(s) then 1.0 else 0.0
    in
    let init_q s =
      match kind with
      | Min ->
        if target.(s) then Q.one
        else if step_off.(s + 1) = step_off.(s) then Q.zero
        else Q.one
      | Max -> if target.(s) then Q.one else Q.zero
    in
    let live s = (not target.(s)) && step_off.(s + 1) > step_off.(s) in
    let maximize = match kind with Min -> false | Max -> true in
    (* Loop-carried interval endpoints live in a scratch float array
       (unboxed, barrier-free stores); refs or function returns would
       box one float per branch.  Slots 0/1: the current step's
       outward sums; slots 2/3: the running best over steps. *)
    let scratch = Array.make 4 0.0 in
    (* interval expectation of step [k] against endpoint arrays
       [xlo]/[xhi], left fold in branch order, into slots 0/1 *)
    let exp_iv xlo xhi k =
      Array.unsafe_set scratch 0 0.0;
      Array.unsafe_set scratch 1 0.0;
      for o = Array.unsafe_get out_off k
              to Array.unsafe_get out_off (k + 1) - 1 do
        let j = Array.unsafe_get tgt o in
        Array.unsafe_set scratch 0
          (I.add_down
             (Array.unsafe_get scratch 0)
             (I.mul_down (Array.unsafe_get plo o) (Array.unsafe_get xlo j)));
        Array.unsafe_set scratch 1
          (I.add_up
             (Array.unsafe_get scratch 1)
             (I.mul_up (Array.unsafe_get phi o) (Array.unsafe_get xhi j)))
      done
    in
    (* tick-step expectation memo for the exact residue pass, filled
       lazily: most tick steps never feed a residue state *)
    let tick_q = Array.make num_steps Q.zero in
    let tick_q_done = Array.make num_steps false in
    let max_sweeps = n + 2 in
    (* one tick layer; [vq]/[vlo]/[vhi] hold the previous layer (one
       tick less of budget), results land in [wq]/[wlo]/[whi] *)
    let run_layer ~vq ~vlo ~vhi ~wq ~wlo ~whi =
      Array.fill tick_q_done 0 num_steps false;
      (* best interval over the steps of live state [s] into slots 2/3:
         tick steps against the previous layer, zero-time steps against
         this one *)
      let eval_iv s =
        let candidate k =
          if Array.unsafe_get tick k then exp_iv vlo vhi k
          else exp_iv wlo whi k
        in
        let lo = step_off.(s) and hi = step_off.(s + 1) in
        candidate lo;
        Array.unsafe_set scratch 2 (Array.unsafe_get scratch 0);
        Array.unsafe_set scratch 3 (Array.unsafe_get scratch 1);
        for k = lo + 1 to hi - 1 do
          candidate k;
          (* inline componentwise best: the endpoints are reach
             probabilities in [0, 1] (nan-free, no -0.), where this
             equals Float.min/Float.max *)
          let cl = Array.unsafe_get scratch 0 in
          let cur = Array.unsafe_get scratch 2 in
          Array.unsafe_set scratch 2
            (if maximize then (if cl > cur then cl else cur)
             else if cl < cur then cl
             else cur);
          let ch = Array.unsafe_get scratch 1 in
          let cur = Array.unsafe_get scratch 3 in
          Array.unsafe_set scratch 3
            (if maximize then (if ch > cur then ch else cur)
             else if ch < cur then ch
             else cur)
        done
      in
      (* [true] iff the envelope of live state [s] moved *)
      let update_iv s =
        eval_iv s;
        let l = Array.unsafe_get scratch 2 in
        let h = Array.unsafe_get scratch 3 in
        if Float.equal l wlo.(s) && Float.equal h whi.(s) then false
        else begin
          wlo.(s) <- l;
          whi.(s) <- h;
          true
        end
      in
      let exact_tick_exp k =
        if not tick_q_done.(k) then begin
          let acc = ref Q.zero in
          for o = out_off.(k) to out_off.(k + 1) - 1 do
            acc := Q.add !acc (Q.mul prob_q.(o) vq.(tgt.(o)))
          done;
          tick_q.(k) <- !acc;
          tick_q_done.(k) <- true
        end;
        tick_q.(k)
      in
      let expectation_q k =
        let acc = ref Q.zero in
        for o = out_off.(k) to out_off.(k + 1) - 1 do
          acc := Q.add !acc (Q.mul prob_q.(o) wq.(tgt.(o)))
        done;
        !acc
      in
      (* [true] iff the exact value of live state [s] moved *)
      let update_q s =
        let candidate k =
          if tick.(k) then exact_tick_exp k else expectation_q k
        in
        let lo = step_off.(s) and hi = step_off.(s + 1) in
        let acc = ref (candidate lo) in
        for k = lo + 1 to hi - 1 do
          acc := qbest !acc (candidate k)
        done;
        if Q.equal !acc wq.(s) then false
        else begin
          wq.(s) <- !acc;
          true
        end
      in
      (* a point equal to the previous layer's point pins the same
         rational: skip the reconversion *)
      let pin s =
        let l = wlo.(s) in
        wq.(s) <-
          (if Float.equal l vlo.(s) && Float.equal l vhi.(s) then vq.(s)
           else Q.of_float_exact l)
      in
      let tighten s =
        let iv = I.of_rational wq.(s) in
        wlo.(s) <- I.lo iv;
        whi.(s) <- I.hi iv
      in
      (* sweeps [update] over the live [members] until none moves;
         [false] if that takes more than [max_sweeps] sweeps *)
      let closes update members =
        let rec go k =
          Core.Budget.poll ();
          k <= max_sweeps
          && begin
            let changed = ref false in
            List.iter (fun s -> if live s && update s then changed := true)
              members;
            (not !changed) || go (k + 1)
          end
        in
        go 0
      in
      let points = ref 0 and residue = ref 0 in
      for comp = 0 to Zero_time.num_components z - 1 do
        let lo = z.Zero_time.comp_off.(comp) in
        let hi = z.Zero_time.comp_off.(comp + 1) in
        if not z.Zero_time.cyclic.(comp) then begin
          if comp land 4095 = 0 then Core.Budget.poll ();
          let s = z.Zero_time.order.(lo) in
          let p = init_point s in
          wlo.(s) <- p;
          whi.(s) <- p;
          if live s then ignore (update_iv s);
          if Float.equal wlo.(s) whi.(s) then begin
            pin s;
            incr points
          end
          else begin
            (* successors are final: one exact evaluation *)
            wq.(s) <- init_q s;
            ignore (update_q s);
            tighten s;
            incr residue
          end
        end
        else begin
          let members =
            List.init (hi - lo) (fun i -> z.Zero_time.order.(lo + i))
          in
          List.iter
            (fun s ->
               let p = init_point s in
               wlo.(s) <- p;
               whi.(s) <- p)
            members;
          let closed = closes update_iv members in
          if not closed then Plane.record_fallback ();
          (* pin points, then iterate the residue exactly; a component
             whose intervals would not close is all residue *)
          let rest =
            List.filter
              (fun s ->
                 if closed && Float.equal wlo.(s) whi.(s) then begin
                   pin s;
                   incr points;
                   false
                 end
                 else begin
                   wq.(s) <- init_q s;
                   incr residue;
                   true
                 end)
              members
          in
          if not (closes update_q rest) then no_convergence max_sweeps;
          List.iter tighten rest
        end
      done;
      Plane.record_pass ~points:!points ~residue:!residue
    in
    let vq = Array.make n Q.zero and wq = Array.make n Q.zero in
    let vlo = Array.make n 0.0 and vhi = Array.make n 0.0 in
    let wlo = Array.make n 0.0 and whi = Array.make n 0.0 in
    let rec loop t ~vq ~vlo ~vhi ~wq ~wlo ~whi =
      if t > ticks then vq
      else begin
        run_layer ~vq ~vlo ~vhi ~wq ~wlo ~whi;
        (* swap buffers: the fresh layer becomes the previous one *)
        loop (t + 1) ~vq:wq ~vlo:wlo ~vhi:whi ~wq:vq ~wlo:vlo ~whi:vhi
      end
    in
    loop 0 ~vq ~vlo ~vhi ~wq ~wlo ~whi
end

(* [?plane] selects the sweeping strategy only; the returned rationals
   are bit-identical either way. *)
let min_reach ?plane (a : _ Arena.t) ~target ~ticks =
  match Plane.resolve plane with
  | Plane.Interval -> Guided.run Guided.Min a ~target ~ticks
  | Plane.Exact -> Exact.min_reach a ~target ~ticks

let max_reach ?plane (a : _ Arena.t) ~target ~ticks =
  match Plane.resolve plane with
  | Plane.Interval -> Guided.run Guided.Max a ~target ~ticks
  | Plane.Exact -> Exact.max_reach a ~target ~ticks

let min_reach_with_policy = Exact.min_reach_with_policy
