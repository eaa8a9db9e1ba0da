module Q = Proba.Rational

type ('s, 'a) t = {
  expl : ('s, 'a) Explore.t;
  n : int;
  expanded : int;
  step_off : int array;
  out_off : int array;
  tgt : int array;
  prob_q : Q.t array;
  prob_f : float array;
  tick : bool array;
  actions : 'a array;
  interval : (float array * float array) option Atomic.t;
  fp : string option Atomic.t;
  zero_time : Zero_time.t option Atomic.t;
}

(* Process-wide count of compilations, surfaced through [Models.stats]
   alongside [Explore.explorations].  Atomic: [prtb serve] workers may
   compile distinct models concurrently. *)
let compiles_counter = Atomic.make 0
let compiles () = Atomic.get compiles_counter

let compile ?is_tick expl =
  Atomic.incr compiles_counter;
  let n = Explore.num_states expl in
  let num_steps = Explore.num_choices expl in
  let num_branches = Explore.num_branches expl in
  let step_off = Array.make (n + 1) 0 in
  let out_off = Array.make (num_steps + 1) 0 in
  let tgt = Array.make num_branches 0 in
  let prob_q = Array.make num_branches Q.zero in
  let prob_f = Array.make num_branches 0.0 in
  let tick = Array.make num_steps false in
  let actions_rev = ref [] in
  let k = ref 0 in
  let o = ref 0 in
  for i = 0 to n - 1 do
    Array.iter
      (fun (step : _ Explore.step) ->
         out_off.(!k) <- !o;
         (match is_tick with
          | Some f -> tick.(!k) <- f step.Explore.action
          | None -> ());
         actions_rev := step.Explore.action :: !actions_rev;
         Array.iter
           (fun (j, w) ->
              tgt.(!o) <- j;
              prob_q.(!o) <- w;
              prob_f.(!o) <- Q.to_float w;
              incr o)
           step.Explore.outcomes;
         incr k)
      (Explore.steps expl i);
    step_off.(i + 1) <- !k
  done;
  out_off.(num_steps) <- !o;
  { expl;
    n;
    expanded = Explore.num_expanded expl;
    step_off;
    out_off;
    tgt;
    prob_q;
    prob_f;
    tick;
    actions = Array.of_list (List.rev !actions_rev);
    interval = Atomic.make None;
    fp = Atomic.make None;
    zero_time = Atomic.make None }

let of_pa ?max_states ?is_tick pa =
  compile ?is_tick (Explore.run ?max_states pa)

(* Rehydration constructor for snapshot loading: adopts CSR arrays that
   were produced by a previous [compile] instead of re-flattening the
   fragment, so it does NOT bump [compiles_counter].  The float plane is
   recomputed from the exact plane with the same [Q.to_float] as
   [compile] (bit-identical: conversion is deterministic), so snapshots
   never store derived planes.  Derived-plane memos start empty. *)
let assemble ~step_off ~out_off ~tgt ~prob_q ~tick ~actions expl =
  let n = Explore.num_states expl in
  if Array.length step_off <> n + 1 then
    invalid_arg "Arena.assemble: step_off length mismatch";
  let num_steps = Array.length tick in
  if Array.length out_off <> num_steps + 1
     || Array.length actions <> num_steps
     || step_off.(n) <> num_steps then
    invalid_arg "Arena.assemble: step count mismatch";
  let num_branches = Array.length tgt in
  if Array.length prob_q <> num_branches || out_off.(num_steps) <> num_branches
  then invalid_arg "Arena.assemble: branch count mismatch";
  { expl;
    n;
    expanded = Explore.num_expanded expl;
    step_off;
    out_off;
    tgt;
    prob_q;
    prob_f = Array.map Q.to_float prob_q;
    tick;
    actions;
    interval = Atomic.make None;
    fp = Atomic.make None;
    zero_time = Atomic.make None }

(* Derived planes are computed on demand and memoized with a CAS:
   worker domains sweeping one shared arena may race here, in which
   case both compute the (identical, immutable) plane and the loser
   adopts the published copy — no lock, no torn reads. *)

let interval_plane a =
  match Atomic.get a.interval with
  | Some plane -> plane
  | None ->
    let num_branches = Array.length a.tgt in
    let lo = Array.make num_branches 0.0 in
    let hi = Array.make num_branches 0.0 in
    for o = 0 to num_branches - 1 do
      let iv = Proba.Interval.of_rational a.prob_q.(o) in
      lo.(o) <- Proba.Interval.lo iv;
      hi.(o) <- Proba.Interval.hi iv
    done;
    let plane = (lo, hi) in
    if Atomic.compare_and_set a.interval None (Some plane) then plane
    else begin
      match Atomic.get a.interval with
      | Some published -> published
      | None -> plane
    end

(* Depends only on the CSR skeleton and the tick mask, never on a
   query's target, so every engine run on the arena shares it. *)
let zero_time a =
  match Atomic.get a.zero_time with
  | Some z -> z
  | None ->
    let z =
      Zero_time.of_csr ~n:a.n ~step_off:a.step_off ~out_off:a.out_off
        ~tgt:a.tgt ~tick:a.tick
    in
    if Atomic.compare_and_set a.zero_time None (Some z) then z
    else begin
      match Atomic.get a.zero_time with
      | Some published -> published
      | None -> z
    end

(* The fingerprint digests only deterministic inputs: the CSR skeleton
   (offsets, targets), the exact probability plane rendered through
   [Rational.to_wire] (canonical bytes, Bigint-tier safe), the tick
   mask, and a structural hash of each interned state and action in
   index order.  [Stdlib.Hashtbl.hash] on immutable model values is a
   pure function of their structure, so the digest is identical across
   processes, domain counts and plane choices -- none of which
   affect what was explored -- while any change to the model, its
   parameters, the exploration budget or the symmetry quotient changes
   the interned structure and therefore the digest. *)
let fingerprint a =
  match Atomic.get a.fp with
  | Some s -> s
  | None ->
    let buf = Buffer.create 8192 in
    let add_int i = Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ',' in
    Buffer.add_string buf "arena/1;";
    add_int a.n;
    add_int a.expanded;
    Array.iter add_int a.step_off;
    Array.iter add_int a.out_off;
    Array.iter add_int a.tgt;
    Array.iter
      (fun q ->
         Buffer.add_string buf (Proba.Rational.to_wire q);
         Buffer.add_char buf ',')
      a.prob_q;
    Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0'))
      a.tick;
    Buffer.add_char buf ';';
    Array.iter (fun act -> add_int (Stdlib.Hashtbl.hash act)) a.actions;
    Buffer.add_char buf ';';
    for i = 0 to a.n - 1 do
      add_int (Stdlib.Hashtbl.hash (Explore.state a.expl i))
    done;
    let s = Digest.to_hex (Digest.string (Buffer.contents buf)) in
    if Atomic.compare_and_set a.fp None (Some s) then s
    else begin
      match Atomic.get a.fp with
      | Some published -> published
      | None -> s (* unreachable: the memo is write-once *)
    end

let explored a = a.expl
let automaton a = Explore.automaton a.expl
let num_states a = a.n
let num_expanded a = a.expanded
let is_expanded a i = i < a.expanded
let is_complete a = a.expanded = a.n
let num_choices a = Array.length a.tick
let num_branches a = Array.length a.tgt
let state a i = Explore.state a.expl i
let index a s = Explore.index a.expl s
let start_indices a = Explore.start_indices a.expl
let states_where a pred = Explore.states_where a.expl pred
let indicator a pred = Explore.indicator a.expl pred

let num_steps_of a i = a.step_off.(i + 1) - a.step_off.(i)

let action a ~step = a.actions.(step)
let is_tick_step a ~step = a.tick.(step)
