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
   several branches is listed once; it is borrowed for each walk over
   the edges and handed back before [k] runs.  The index is borrowed
   too, and only [k]'s to read. *)
let with_preds (a : _ Arena.t) k =
  let n = a.Arena.n and step_off = a.Arena.step_off in
  let out_off = a.Arena.out_off and tgt = a.Arena.tgt in
  let each_edge f =
    Scratch.ints n @@ fun last ->
    Array.fill last 0 n (-1);
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
  Scratch.ints (n + 1) @@ fun pred_off ->
  Array.fill pred_off 0 (n + 1) 0;
  each_edge (fun _ j -> pred_off.(j) <- pred_off.(j) + 1);
  for j = 1 to n do
    pred_off.(j) <- pred_off.(j) + pred_off.(j - 1)
  done;
  Scratch.ints pred_off.(n) @@ fun preds ->
  each_edge (fun p j ->
      pred_off.(j) <- pred_off.(j) - 1;
      preds.(pred_off.(j)) <- p);
  k { pred_off; preds }

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

(* One byte per state in [s]: the states marked [inside] are the set
   [safe_core_in] shrinks to its core, marking each one that leaves
   [outside]; any other byte (a target, below) is neither and stays. *)
let outside = '\000' and inside = '\001' and target = '\002'

let safe_core_in p ~steps (a : _ Arena.t) s =
  let n = a.Arena.n and step_off = a.Arena.step_off in
  let out_off = a.Arena.out_off and tgt = a.Arena.tgt in
  let member i = Bytes.unsafe_get s i = inside in
  (* [intact] flags the accepted steps of a member that still stay
     surely inside [s]; it is written for every step of a member before
     it is read.  A member leaves [s] when none of its steps is intact,
     unless it is terminal (terminal states stay). *)
  Scratch.bytes (Array.length out_off - 1) @@ fun intact ->
  Scratch.ints n @@ fun stack ->
  let top = ref 0 in
  let leave i =
    Bytes.unsafe_set s i outside;
    stack.(!top) <- i;
    incr top
  in
  for i = 0 to n - 1 do
    if member i then begin
      let kept = ref false in
      for k = step_off.(i) to step_off.(i + 1) - 1 do
        let o = ref out_off.(k) in
        while !o < out_off.(k + 1) && member tgt.(!o) do incr o done;
        if !o = out_off.(k + 1) && steps k then begin
          Bytes.unsafe_set intact k '\001';
          kept := true
        end
        else Bytes.unsafe_set intact k '\000'
      done;
      if (not !kept) && step_off.(i + 1) > step_off.(i) then leave i
    end
  done;
  (* Greatest fixpoint: a state leaving [s] breaks every intact step
     into it. *)
  drain stack top (fun j ->
      for e = p.pred_off.(j) to p.pred_off.(j + 1) - 1 do
        let i = p.preds.(e) in
        if member i then begin
          let kept = ref false in
          for k = step_off.(i) to step_off.(i + 1) - 1 do
            if Bytes.unsafe_get intact k = '\001' then
              if step_hits a k j then Bytes.unsafe_set intact k '\000'
              else kept := true
          done;
          if not !kept then leave i
        end
      done)

(* [classify_in] writes [s]: [target] on the target, [inside] where some
   adversary can avoid it, [outside] where every adversary reaches it
   surely. *)
let classify_in p ~steps (a : _ Arena.t) ~target:set s =
  let n = a.Arena.n in
  if Bitset.length set <> n then
    invalid_arg "Qualitative: target set has wrong length";
  for i = 0 to n - 1 do
    Bytes.unsafe_set s i (if Bitset.mem set i then target else inside)
  done;
  safe_core_in p ~steps a s;
  (* Least fixpoint: states outside the target with an accepted step
     that puts positive mass on the bad region. *)
  Scratch.ints n @@ fun stack ->
  let top = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.unsafe_get s i = inside then begin
      stack.(!top) <- i;
      incr top
    end
  done;
  let step_off = a.Arena.step_off in
  drain stack top (fun j ->
      for e = p.pred_off.(j) to p.pred_off.(j + 1) - 1 do
        let i = p.preds.(e) in
        if Bytes.unsafe_get s i = outside then begin
          let k = ref step_off.(i) in
          while
            !k < step_off.(i + 1) && not (steps !k && step_hits a !k j)
          do
            incr k
          done;
          if !k < step_off.(i + 1) then begin
            Bytes.unsafe_set s i inside;
            stack.(!top) <- i;
            incr top
          end
        end
      done)

let every_step _ = true

let classify p a ~target s = classify_in p ~steps:every_step a ~target s

(* The [bool array] entry points: one borrowed flag vector, read back
   into a fresh array. *)
let flags (a : _ Arena.t) what v f =
  let n = a.Arena.n in
  if Array.length v <> n then
    invalid_arg (Printf.sprintf "Qualitative: %s array has wrong length" what);
  with_preds a @@ fun p ->
  Scratch.bytes n @@ fun s ->
  f p s;
  Array.init n (fun i -> Bytes.unsafe_get s i = inside)

let safe_core ?(steps = every_step) a ~avoid =
  flags a "avoid" avoid (fun p s ->
      Array.iteri
        (fun i b -> Bytes.unsafe_set s i (if b then inside else outside))
        avoid;
      safe_core_in p ~steps a s)

let can_avoid ?(steps = every_step) a ~target =
  flags a "target" target (fun p ->
      classify_in p ~steps a ~target:(Bitset.of_bools target))

let always_reaches a ~target = Array.map not (can_avoid a ~target)
