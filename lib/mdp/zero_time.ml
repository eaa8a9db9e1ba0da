type t = {
  order : int array;
  comp_off : int array;
  cyclic : Bytes.t;
}

let num_components z = Bytes.length z.cyclic

let components z =
  let comp = Array.make (Array.length z.order) 0 in
  for c = 0 to num_components z - 1 do
    for i = z.comp_off.(c) to z.comp_off.(c + 1) - 1 do
      comp.(z.order.(i)) <- c
    done
  done;
  comp

(* Iterative Tarjan over the zero-time edges, read straight from the
   CSR arrays: the branches of [v]'s non-tick steps, in step and branch
   order.  Tarjan closes a component only after every component
   reachable from it, so the emission order is already
   successors-first.  [index], [low] and the two flag vectors are
   borrowed, and [index] and [on_stack] cleared first.  The DFS path
   and the open components' stack are only as deep as the longest
   zero-time path and the largest open component (11 states at lr n=4
   [--sym on]), so they start small and double when full:
   frame [d] of [path] is the state at depth [d], its next step and its
   next branch.  A closed state's [low] is free, so it records the
   state's component, from which the component offsets are read at the
   end. *)
let of_csr ~n ~step_off ~out_off ~tgt ~tick =
  Scratch.ints n @@ fun index ->
  Scratch.ints n @@ fun low ->
  Scratch.bytes n @@ fun on_stack ->
  Scratch.bytes n @@ fun cyclic ->
  Array.fill index 0 n (-1);
  Bytes.fill on_stack 0 n '\000';
  let stack = ref (Array.make 64 0) and sp = ref 0 in
  let path = ref (Array.make 192 0) and depth = ref 0 in
  let grow a =
    let wider = Array.make (2 * Array.length !a) 0 in
    Array.blit !a 0 wider 0 (Array.length !a);
    a := wider
  in
  let counter = ref 0 in
  let order = Array.make n 0 and emitted = ref 0 in
  let ncomp = ref 0 in
  let visit v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    if !sp = Array.length !stack then grow stack;
    !stack.(!sp) <- v;
    incr sp;
    Bytes.set on_stack v '\001';
    let at = 3 * !depth in
    if at = Array.length !path then grow path;
    let f = !path in
    f.(at) <- v;
    f.(at + 1) <- step_off.(v);
    f.(at + 2) <- out_off.(step_off.(v));
    incr depth
  in
  (* The next zero-time successor of the state at depth [d], or [-1]. *)
  let rec next d =
    let f = !path and at = 3 * d in
    let k = f.(at + 1) in
    if k = step_off.(f.(at) + 1) then -1
    else if tick.(k) || f.(at + 2) = out_off.(k + 1) then begin
      f.(at + 1) <- k + 1;
      f.(at + 2) <- out_off.(k + 1);
      next d
    end
    else begin
      let o = f.(at + 2) in
      f.(at + 2) <- o + 1;
      tgt.(o)
    end
  in
  let self_loop v =
    let found = ref false in
    for k = step_off.(v) to step_off.(v + 1) - 1 do
      if not tick.(k) then
        for o = out_off.(k) to out_off.(k + 1) - 1 do
          if tgt.(o) = v then found := true
        done
    done;
    !found
  in
  let close v =
    let start = !emitted in
    let rec pop () =
      decr sp;
      let w = !stack.(!sp) in
      Bytes.set on_stack w '\000';
      low.(w) <- !ncomp;
      order.(!emitted) <- w;
      incr emitted;
      if w <> v then pop ()
    in
    pop ();
    let size = !emitted - start in
    if size > 1 then begin
      (* members in index order: a cyclic component is swept in the
         same relative order as a whole-arena sweep would visit it *)
      let members = Array.sub order start size in
      Array.sort Int.compare members;
      Array.blit members 0 order start size
    end;
    Bytes.set cyclic !ncomp
      (if size > 1 || self_loop v then '\001' else '\000');
    incr ncomp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while !depth > 0 do
        let d = !depth - 1 in
        let v = !path.(3 * d) in
        let w = next d in
        if w >= 0 then begin
          if index.(w) < 0 then visit w
          else if Bytes.get on_stack w = '\001' && index.(w) < low.(v) then
            low.(v) <- index.(w)
        end
        else begin
          decr depth;
          (if !depth > 0 then
             let parent = !path.(3 * (!depth - 1)) in
             if low.(v) < low.(parent) then low.(parent) <- low.(v));
          if low.(v) = index.(v) then close v
        end
      done
    end
  done;
  let comp_off = Array.make (!ncomp + 1) n in
  for i = n - 1 downto 0 do
    comp_off.(low.(order.(i))) <- i
  done;
  { order; comp_off; cyclic = Bytes.sub cyclic 0 !ncomp }
