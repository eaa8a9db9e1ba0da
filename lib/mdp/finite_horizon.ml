module Q = Proba.Rational

exception No_convergence of string

let no_convergence max_sweeps =
  raise
    (No_convergence
       (Printf.sprintf
          "tick layer did not close after %d sweeps: the automaton \
           has probabilistic zero-time cycles" max_sweeps))

(* Tick layers solved by this process, surfaced by [prtb check --stats]:
   process-global and atomic, since engines run in worker domains. *)
let layers = Atomic.make 0
let layers_solved () = Atomic.get layers

(* The arena's CSR arrays plus what the Bellman operator does at each
   state, one byte each in [kind]: [evaluated], or left at its initial
   value as a target ([reached], 1) or a [deadlock] (0).  [kind] is
   borrowed ({!Scratch}) for the pass. *)
type compact = {
  n : int;
  kind : Bytes.t;
  step_off : int array;
  out_off : int array;
  tgt : int array;
  tick : bool array;
  prob : Q.t array;
  zero_time : Zero_time.t;
}

let evaluated = '\000' and reached = '\001' and deadlock = '\002'

let with_compact (a : _ Arena.t) ~target k =
  let n = a.Arena.n and step_off = a.Arena.step_off in
  if Bitset.length target <> n then
    invalid_arg "Finite_horizon: target set has wrong length";
  let zero_time = Arena.zero_time a in
  Scratch.bytes n @@ fun kind ->
  for s = 0 to n - 1 do
    Bytes.unsafe_set kind s
      (if Bitset.mem target s then reached
       else if step_off.(s + 1) = step_off.(s) then deadlock
       else evaluated)
  done;
  k
    { n; kind; step_off; out_off = a.Arena.out_off; tgt = a.Arena.tgt;
      tick = a.Arena.tick; prob = a.Arena.prob_q; zero_time }

(* One tick layer: given the value vector [v_next] for one tick less
   of budget, the fixpoint of
     v(s) = 1                          if target(s)
          | 0                          if no step enabled
          | best over steps:  tick s     -> E_{v_next}
                              non-tick s -> E_v
   in one walk over the zero-time components, successors first.  A
   state of an acyclic component reads only final values, so one
   evaluation is its fixpoint; a cyclic component is swept in place
   from the layer's initial values until unchanged.  Any schedule of
   this monotone operator that closes from them closes at the same
   extremal fixpoint, so the values equal those of whole-arena sweeps.
   [update s] re-evaluates [s] in place and says whether it moved: the
   walk is the same on both tiers below, only [update] differs. *)
let walk c update =
  let z = c.zero_time in
  let max_sweeps = c.n + 2 in
  for comp = 0 to Zero_time.num_components z - 1 do
    let lo = z.comp_off.(comp) and hi = z.comp_off.(comp + 1) in
    if Bytes.unsafe_get z.cyclic comp = '\000' then begin
      if comp land 4095 = 0 then Core.Budget.poll ();
      ignore (update z.order.(lo) : bool)
    end
    else begin
      (* poll per sweep: a fired deadline aborts mid-layer *)
      let sweeps = ref 0 and changed = ref true in
      while !changed do
        Core.Budget.poll ();
        if !sweeps > max_sweeps then no_convergence max_sweeps;
        changed := false;
        for i = lo to hi - 1 do
          if update z.order.(i) then changed := true
        done;
        incr sweeps
      done
    end
  done;
  Atomic.incr layers

(* A state the Bellman operator leaves at its initial value. *)
let settled c s = Bytes.unsafe_get c.kind s <> evaluated

(* The minimum starts every evaluated state at 1, the maximum at 0;
   a target is 1 and a deadlock 0 on both. *)
let initial c ~minimize s =
  let k = Bytes.unsafe_get c.kind s in
  if k = evaluated then minimize else k = reached

(* ------------------------------------------------------------------ *)
(* The fixed-point tier.  A value is an int [m] standing for [m/2^61],
   and a weight is packed as [a lsl 6 lor k] for [a/2^k]
   ({!Arena.fixed_weights}).  The product [m * a/2^k] is [(m lsr k) * a]
   and is exact iff the low [k] bits of [m] are zero; a step's weights
   sum to 1, so its expectation is at most the largest [m] read, never
   past [2^61].  The first inexact product raises [Inexact] and the
   pass goes on in rationals.  Values and sums are immediate ints, so a
   layer allocates nothing. *)

exception Inexact

let fixed_one = 1 lsl 61

let expect_fixed c w (v : int array) k =
  let acc = ref 0 in
  for o = Array.unsafe_get c.out_off k
          to Array.unsafe_get c.out_off (k + 1) - 1 do
    let p = Array.unsafe_get w o in
    let shift = p land 63 in
    let m = Array.unsafe_get v (Array.unsafe_get c.tgt o) in
    if m land ((1 lsl shift) - 1) <> 0 then raise_notrace Inexact;
    acc := !acc + ((m lsr shift) * (p lsr 6))
  done;
  !acc

(* The fold in step order, seeded with the first candidate; on ints
   the extremum is the rational one. *)
let update_fixed c w ~minimize (v : int array) (v_next : int array) s =
  if settled c s then false
  else begin
    let lo = c.step_off.(s) and hi = c.step_off.(s + 1) in
    let best = ref (expect_fixed c w (if c.tick.(lo) then v_next else v) lo) in
    for k = lo + 1 to hi - 1 do
      let e = expect_fixed c w (if c.tick.(k) then v_next else v) k in
      if (if minimize then e < !best else e > !best) then best := e
    done;
    if !best = v.(s) then false
    else begin
      v.(s) <- !best;
      true
    end
  end

let to_rational m = Q.of_ints m fixed_one

(* ------------------------------------------------------------------ *)
(* The rational tier: any weights, two gcds and a few boxes per
   branch. *)

(* Expectation of step [k] under value vector [v]: a left fold over
   the step's branch range, the same association order as the
   historical per-step outcome arrays. *)
let expectation c v k =
  let acc = ref Q.zero in
  for o = c.out_off.(k) to c.out_off.(k + 1) - 1 do
    acc := Q.add !acc (Q.mul c.prob.(o) v.(c.tgt.(o)))
  done;
  !acc

let update_exact c ~best v v_next s =
  if settled c s then false
  else begin
    let candidate k =
      if c.tick.(k) then expectation c v_next k else expectation c v k
    in
    let acc = ref (candidate c.step_off.(s)) in
    for k = c.step_off.(s) + 1 to c.step_off.(s + 1) - 1 do
      acc := best !acc (candidate k)
    done;
    if Q.equal !acc v.(s) then false
    else begin
      v.(s) <- !acc;
      true
    end
  end

(* ------------------------------------------------------------------ *)
(* A pass: layers [0 .. ticks], each written into one of two vectors
   while reading the other. *)

type values = Fixed of int array | Exact of Q.t array

(* Layers [from .. ticks] on either tier: [v_next] holds layer
   [from - 1] (all [zero] for [from = 0]) and [v] is written over, each
   layer starts from [one] or [zero] per state ([initial]) and [update]
   closes it; [on_layer t v_next v] sees each layer as it closes.  The
   result is whichever of the two vectors holds layer [ticks]. *)
let layers c ~minimize ~from ~ticks ~one ~zero ~update
    ?(on_layer = fun _ _ _ -> ()) v_next v =
  let v_next = ref v_next and v = ref v in
  for t = from to ticks do
    let cur = !v and prev = !v_next in
    for s = 0 to c.n - 1 do
      cur.(s) <- (if initial c ~minimize s then one else zero)
    done;
    walk c (update cur prev);
    on_layer t prev cur;
    v := prev;
    v_next := cur
  done;
  !v_next

let exact_layers c ~minimize ~from ~ticks ?on_layer v_next =
  let best = if minimize then Q.min else Q.max in
  layers c ~minimize ~from ~ticks ~one:Q.one ~zero:Q.zero
    ~update:(update_exact c ~best) ?on_layer v_next (Array.make c.n Q.zero)

(* The fixed tier first when the arena's weights allow it, on two
   borrowed vectors; an inexact product hands the last closed layer to
   the rational tier, which solves the rest.  [k] reads the values
   while they are borrowed: the first [c.n] entries of a [Fixed]
   vector are the pass's. *)
let run arena ~target ~ticks ~minimize k =
  if ticks < 0 then invalid_arg "Finite_horizon: negative tick horizon";
  with_compact arena ~target @@ fun c ->
  match Arena.fixed_weights arena with
  | None ->
    k c
      (Exact (exact_layers c ~minimize ~from:0 ~ticks (Array.make c.n Q.zero)))
  | Some w ->
    Scratch.ints c.n @@ fun v_next ->
    Scratch.ints c.n @@ fun v ->
    Array.fill v_next 0 c.n 0;
    let closed = ref (-1) and last = ref v_next in
    (match
       layers c ~minimize ~from:0 ~ticks ~one:fixed_one ~zero:0
         ~update:(update_fixed c w ~minimize)
         ~on_layer:(fun t _ v ->
             closed := t;
             last := v)
         v_next v
     with
     | v -> k c (Fixed v)
     | exception Inexact ->
       let last = !last in
       k c
         (Exact
            (exact_layers c ~minimize ~from:(!closed + 1) ~ticks
               (Array.init c.n (fun s -> to_rational last.(s))))))

let rationals c = function
  | Fixed v -> Array.init c.n (fun s -> to_rational v.(s))
  | Exact v -> v

let reach arena ~target ~ticks ~minimize =
  run arena ~target ~ticks ~minimize rationals

let min_reach arena ~target ~ticks =
  reach arena ~target:(Bitset.of_bools target) ~ticks ~minimize:true

let max_reach arena ~target ~ticks =
  reach arena ~target:(Bitset.of_bools target) ~ticks ~minimize:false

(* The first member is the witness until a later one is strictly
   lower; only the minimum found is converted. *)
let min_reach_over arena ~target ~ticks ~over =
  let fold n lt seed v =
    let best = ref seed and witness = ref (-1) and members = ref 0 in
    for i = 0 to n - 1 do
      if Bitset.mem over i then begin
        incr members;
        if !witness < 0 || lt v.(i) !best then begin
          best := v.(i);
          witness := i
        end
      end
    done;
    (!best, (if !witness < 0 then None else Some !witness), !members)
  in
  if Bitset.length over <> Arena.num_states arena then
    invalid_arg "Finite_horizon: over set has wrong length";
  run arena ~target ~ticks ~minimize:true @@ fun c -> function
  | Fixed v ->
    let best, witness, members =
      fold c.n (fun (a : int) b -> a < b) fixed_one v
    in
    (to_rational best, witness, members)
  | Exact v -> fold c.n Q.lt Q.one v

let argbest c v_next v =
  Array.init c.n (fun s ->
      let lo = c.step_off.(s) and hi = c.step_off.(s + 1) in
      if settled c s then -1
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
            if not (Q.equal (Q.min cur candidate) cur) then begin
              best_v := Some candidate;
              best_k := k - lo
            end
        done;
        !best_k
      end)

let min_reach_with_policy arena ~target ~ticks =
  if ticks < 0 then invalid_arg "Finite_horizon: negative tick horizon";
  with_compact arena ~target:(Bitset.of_bools target) @@ fun c ->
  let policy = Array.make (ticks + 1) [||] in
  let v =
    exact_layers c ~minimize:true ~from:0 ~ticks
      ~on_layer:(fun t v_next v -> policy.(t) <- argbest c v_next v)
      (Array.make c.n Q.zero)
  in
  (v, policy)
