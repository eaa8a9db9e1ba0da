(* Value iteration over the arena's float plane.  The historical code
   converted each rational weight with [Q.to_float] on every access in
   the inner loop; the arena precomputes exactly that conversion into
   [prob_f], so the sums below see the same doubles in the same order
   and the fixpoints are bit-identical -- just without the per-access
   conversion cost. *)

let expectation (a : _ Arena.t) v k =
  let acc = ref 0.0 in
  for o = a.Arena.out_off.(k) to a.Arena.out_off.(k + 1) - 1 do
    acc := !acc +. (a.Arena.prob_f.(o) *. v.(a.Arena.tgt.(o)))
  done;
  !acc

(* The sweep is the hot loop of the [e3] kernel, so it is written
   allocation-free: CSR arrays hoisted into locals, bounds
   checks elided (offsets are trusted by construction), folds carried
   in unboxed float accumulators, and the maximum taken by an inline
   comparison.  The arithmetic -- a left fold [acc +. p *. v] per
   step in branch order, then a left max-fold over steps seeded with
   the first candidate -- is the
   exact operation sequence of the historical option-fold code, so
   fixpoints are bit-identical.

   Each sweep visits the states in index order, Gauss-Seidel, but
   evaluates only the dirty ones.  All start dirty; evaluating a state
   clears its flag, and a bitwise change of its value marks its
   predecessors dirty -- one earlier in the order is picked up next
   sweep, one later in this sweep, exactly when a full sweep would
   first read the new value.  A clean state's successors are bitwise
   what they were at its last evaluation, so it would recompute its
   own value and move the delta by nothing: skipping it changes
   neither the iterates, nor any sweep's delta, nor the sweep count.
   The predecessors are read from the qualitative pass's index
   ([preds]), which this compacts.  [v] and [flag] are borrowed: every
   entry below [n] is written before it is read. *)
let dead = '\000' and clean = '\001' and dirty = '\002'

let value_iterate (a : _ Arena.t) ~preds ~flag v ~epsilon ~max_sweeps =
  let n = a.Arena.n in
  let step_off = a.Arena.step_off and out_off = a.Arena.out_off in
  let tgt = a.Arena.tgt and prob_f = a.Arena.prob_f in
  let tick = a.Arena.tick in
  let { Qualitative.pred_off; preds } = preds in
  (* Only non-target finite states are ever evaluated: [flag] turns from
     {!Qualitative.classify}'s classes into [dead] for the others, and
     [dirty] or [clean] for them.  They start dirty, at 0 like the
     target; a state some adversary keeps from the target starts, and
     stays, at infinity. *)
  for i = 0 to n - 1 do
    let c = Bytes.unsafe_get flag i in
    v.(i) <- (if c = '\001' then infinity else 0.0);
    Bytes.unsafe_set flag i (if c = '\000' then dirty else dead)
  done;
  (* The index lists every predecessor, and the qualitative pass is
     done with it: each range is compacted in place to its evaluated
     states, the only ones a marking loop may mark.  Skipping the dead
     entries one by one instead made value iteration on lr n=4 [--sym
     on] about 10% slower. *)
  let live = ref 0 in
  for j = 0 to n - 1 do
    let lo = pred_off.(j) and hi = pred_off.(j + 1) in
    pred_off.(j) <- !live;
    for e = lo to hi - 1 do
      if Bytes.get flag preds.(e) <> dead then begin
        preds.(!live) <- preds.(e);
        incr live
      end
    done
  done;
  pred_off.(n) <- !live;
  (* Loop-carried floats live in a scratch float array: float-array
     stores are unboxed (and barrier-free), whereas refs and function
     arguments would box one float per branch.  Slot 0 carries the
     running best over steps, slot 1 the branch-sum of the current
     step, slot 2 the sweep delta.  The [-inf] seed and the inlined
     comparison return the same values as the historical seeded
     [Float.max] fold: the iterates are nan-free and never produce
     [-0.], the only inputs where the formulations differ. *)
  let scratch = Array.make 3 0.0 in
  let state i lo hi =
    Array.unsafe_set scratch 0 neg_infinity;
    for k = lo to hi - 1 do
      Array.unsafe_set scratch 1 0.0;
      for o = Array.unsafe_get out_off k
              to Array.unsafe_get out_off (k + 1) - 1 do
        Array.unsafe_set scratch 1
          (Array.unsafe_get scratch 1
           +. Array.unsafe_get prob_f o
              *. Array.unsafe_get v (Array.unsafe_get tgt o))
      done;
      let e =
        (if Array.unsafe_get tick k then 1.0 else 0.0)
        +. Array.unsafe_get scratch 1
      in
      let cur = Array.unsafe_get scratch 0 in
      Array.unsafe_set scratch 0 (if e > cur then e else cur)
    done;
    let fresh = Array.unsafe_get scratch 0 in
    let d = Float.abs (fresh -. Array.unsafe_get v i) in
    if d > Array.unsafe_get scratch 2 then Array.unsafe_set scratch 2 d;
    Array.unsafe_set v i fresh
  in
  let sweep () =
    Array.unsafe_set scratch 2 0.0;
    for i = 0 to n - 1 do
      if Bytes.unsafe_get flag i = dirty then begin
        Bytes.unsafe_set flag i clean;
        let old = Int64.bits_of_float (Array.unsafe_get v i) in
        let lo = Array.unsafe_get step_off i in
        let hi = Array.unsafe_get step_off (i + 1) in
        if hi > lo then state i lo hi else v.(i) <- infinity;
        if not (Int64.equal old (Int64.bits_of_float (Array.unsafe_get v i)))
        then
          for e = Array.unsafe_get pred_off i
                  to Array.unsafe_get pred_off (i + 1) - 1 do
            Bytes.unsafe_set flag (Array.unsafe_get preds e) dirty
          done
      end
    done;
    Array.unsafe_get scratch 2
  in
  let rec go k =
    Core.Budget.poll ();
    if k > max_sweeps then
      failwith "Expected_time: value iteration did not converge"
    else if sweep () > epsilon then go (k + 1)
  in
  go 0

(* One pass on borrowed vectors: the index, one flag per state and the
   values.  [k] reads them while they are borrowed: after the pass a
   state's flag is [dead] exactly where it is a target or some
   adversary avoids the target. *)
let solve (a : _ Arena.t) ~target ~epsilon ~max_sweeps k =
  let n = a.Arena.n in
  Qualitative.with_preds a @@ fun preds ->
  Scratch.bytes n @@ fun flag ->
  Qualitative.classify preds a ~target flag;
  Scratch.floats n @@ fun v ->
  value_iterate a ~preds ~flag v ~epsilon ~max_sweeps;
  k flag v

let default_epsilon = 1e-12 and default_max_sweeps = 1_000_000

(* Expected ticks are never negative nor nan, so the fold from 0 on
   [>] is the plain maximum of the members; the first member is the
   witness until a later one is strictly greater. *)
let max_expected_over (a : _ Arena.t) ~target ~over =
  if Bitset.length over <> a.Arena.n then
    invalid_arg "Expected_time: over set has wrong length";
  solve a ~target ~epsilon:default_epsilon ~max_sweeps:default_max_sweeps
  @@ fun _ v ->
  let best = ref 0.0 and witness = ref (-1) and members = ref 0 in
  for i = 0 to a.Arena.n - 1 do
    if Bitset.mem over i then begin
      incr members;
      if !witness < 0 || v.(i) > !best then begin
        best := v.(i);
        witness := i
      end
    end
  done;
  (!best, (if !witness < 0 then None else Some !witness), !members)

let max_expected_ticks (a : _ Arena.t) ~target ?(epsilon = default_epsilon)
    ?(max_sweeps = default_max_sweeps) () =
  solve a ~target:(Bitset.of_bools target) ~epsilon ~max_sweeps
    (fun _ v -> Array.sub v 0 a.Arena.n)

let max_expected_ticks_with_policy (a : _ Arena.t) ~target
    ?(epsilon = default_epsilon) ?(max_sweeps = default_max_sweeps) () =
  solve a ~target:(Bitset.of_bools target) ~epsilon ~max_sweeps
  @@ fun flag v ->
  let policy =
    Array.init a.Arena.n (fun i ->
        let lo = a.Arena.step_off.(i) and hi = a.Arena.step_off.(i + 1) in
        if Bytes.get flag i = dead || hi = lo then -1
        else begin
          let best_k = ref 0 and best_v = ref neg_infinity in
          for k = lo to hi - 1 do
            let cost = if a.Arena.tick.(k) then 1.0 else 0.0 in
            let e = cost +. expectation a v k in
            if e > !best_v then begin
              best_v := e;
              best_k := k - lo
            end
          done;
          !best_k
        end)
  in
  (Array.sub v 0 a.Arena.n, policy)
