(* The fixpoints below are worklists over the arena's CSR rows:
   [step_off] gives each state's step range, [out_off] each step's
   branch range, and [tgt] the branch targets, and the predecessor
   index turns them around.  Probabilities are irrelevant here (only
   support membership matters), so no probability plane is read.
   Each state enters a worklist at most once, and each index entry
   [(i, j)] is read at most once per fixpoint, with a scan of [i]'s own
   branches for the ones into [j]; nothing is allocated past the
   working arrays. *)

type preds = { pred_off : int array; preds : int array }

(* Count each state's distinct predecessors, sum to each range's end,
   then fill every range from its end back to its start.  [last.(j)]
   is the predecessor [j] was last given, so a state reaching [j] by
   several branches is listed once. *)
let preds (a : _ Arena.t) =
  let n = a.Arena.n and step_off = a.Arena.step_off in
  let out_off = a.Arena.out_off and tgt = a.Arena.tgt in
  let pred_off = Array.make (n + 1) 0 in
  let last = Array.make n (-1) in
  let each_edge f =
    for p = 0 to n - 1 do
      for o = out_off.(step_off.(p)) to out_off.(step_off.(p + 1)) - 1 do
        let j = tgt.(o) in
        if last.(j) <> p then begin
          last.(j) <- p;
          f p j
        end
      done
    done
  in
  each_edge (fun _ j -> pred_off.(j) <- pred_off.(j) + 1);
  for j = 1 to n do
    pred_off.(j) <- pred_off.(j) + pred_off.(j - 1)
  done;
  let preds = Array.make pred_off.(n) 0 in
  Array.fill last 0 n (-1);
  each_edge (fun p j ->
      pred_off.(j) <- pred_off.(j) - 1;
      preds.(pred_off.(j)) <- p);
  { pred_off; preds }

(* Does step [k] put positive mass on [j]? *)
let step_hits (a : _ Arena.t) k j =
  let o = ref a.Arena.out_off.(k) in
  while !o < a.Arena.out_off.(k + 1) && a.Arena.tgt.(!o) <> j do incr o done;
  !o < a.Arena.out_off.(k + 1)

(* A stack of states, each pushed at most once; the deadline is polled
   every 4 096 pops. *)
let drain stack top f =
  let pops = ref 0 in
  while !top > 0 do
    decr top;
    if !pops land 4095 = 0 then Core.Budget.poll ();
    incr pops;
    f stack.(!top)
  done

let safe_core_in p ~steps (a : _ Arena.t) ~avoid =
  let n = a.Arena.n and step_off = a.Arena.step_off in
  let out_off = a.Arena.out_off and tgt = a.Arena.tgt in
  if Array.length avoid <> n then
    invalid_arg "Qualitative: avoid array has wrong length";
  let s = Array.copy avoid in
  (* [good.(i)]: the accepted steps of [i] still kept surely inside [s];
     [intact] flags those steps.  A state leaves [s] when its count
     drops to 0, unless it is terminal (terminal states stay). *)
  let good = Array.make n 0 in
  let intact = Bytes.make (Array.length a.Arena.out_off - 1) '\000' in
  let stack = Array.make n 0 and top = ref 0 in
  for i = 0 to n - 1 do
    if s.(i) then begin
      for k = step_off.(i) to step_off.(i + 1) - 1 do
        let o = ref out_off.(k) in
        while !o < out_off.(k + 1) && s.(tgt.(!o)) do incr o done;
        if !o = out_off.(k + 1) && steps k then begin
          Bytes.unsafe_set intact k '\001';
          good.(i) <- good.(i) + 1
        end
      done;
      if good.(i) = 0 && step_off.(i + 1) > step_off.(i) then begin
        s.(i) <- false;
        stack.(!top) <- i;
        incr top
      end
    end
  done;
  (* Greatest fixpoint: a state leaving [s] breaks every intact step
     into it. *)
  drain stack top (fun j ->
      for e = p.pred_off.(j) to p.pred_off.(j + 1) - 1 do
        let i = p.preds.(e) in
        if s.(i) then begin
          for k = step_off.(i) to step_off.(i + 1) - 1 do
            if Bytes.unsafe_get intact k = '\001' && step_hits a k j then begin
              Bytes.unsafe_set intact k '\000';
              good.(i) <- good.(i) - 1
            end
          done;
          if good.(i) = 0 then begin
            s.(i) <- false;
            stack.(!top) <- i;
            incr top
          end
        end
      done);
  s

let can_avoid_in p ~steps (a : _ Arena.t) ~target =
  let n = a.Arena.n in
  if Array.length target <> n then
    invalid_arg "Qualitative: target array has wrong length";
  let bad = safe_core_in p ~steps a ~avoid:(Array.map not target) in
  (* Least fixpoint: states outside the target with an accepted step
     that puts positive mass on the bad region. *)
  let stack = Array.make n 0 and top = ref 0 in
  for i = 0 to n - 1 do
    if bad.(i) then begin
      stack.(!top) <- i;
      incr top
    end
  done;
  let step_off = a.Arena.step_off in
  drain stack top (fun j ->
      for e = p.pred_off.(j) to p.pred_off.(j + 1) - 1 do
        let i = p.preds.(e) in
        if (not bad.(i)) && not target.(i) then begin
          let k = ref step_off.(i) in
          while
            !k < step_off.(i + 1) && not (steps !k && step_hits a !k j)
          do
            incr k
          done;
          if !k < step_off.(i + 1) then begin
            bad.(i) <- true;
            stack.(!top) <- i;
            incr top
          end
        end
      done);
  bad

let every_step _ = true

let safe_core ?(steps = every_step) a ~avoid =
  safe_core_in (preds a) ~steps a ~avoid

let can_avoid ?(steps = every_step) a ~target =
  can_avoid_in (preds a) ~steps a ~target

let always_reaches ?preds:p a ~target =
  let p = match p with Some p -> p | None -> preds a in
  Array.map not (can_avoid_in p ~steps:every_step a ~target)
