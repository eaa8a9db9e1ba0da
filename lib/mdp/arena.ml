module Q = Proba.Rational
module Bigint = Proba.Bigint

type pass = Min_reach of int | Max_expected_ticks
type extremum = Prob of Q.t | Ticks of float
type summary = { extremum : extremum; witness : int option; members : int }

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
  fp : string option Atomic.t;
  zero_time : Zero_time.t option Atomic.t;
  fixed : int array option option Atomic.t;
  passes : ((pass * Bitset.t * Bitset.t) * summary) list Atomic.t;
}

(* Process-wide count of compilations, surfaced through [Models.stats]
   alongside [Explore.explorations].  Atomic: [prtb serve] workers may
   compile distinct models concurrently. *)
let compiles_counter = Atomic.make 0
let compiles () = Atomic.get compiles_counter

(* The fragment's own CSR arrays, the tick mask and the float plane,
   [Rational.to_float] of the exact plane, precomputed so float sweeps
   never convert in the inner loop. *)
let make ~tick expl =
  let { Explore.step_off; out_off; tgt; prob_q; actions } = Explore.csr expl in
  { expl;
    n = Explore.num_states expl;
    expanded = Explore.num_expanded expl;
    step_off;
    out_off;
    tgt;
    prob_q;
    prob_f = Array.map Q.to_float prob_q;
    tick;
    actions;
    fp = Atomic.make None;
    zero_time = Atomic.make None;
    fixed = Atomic.make None;
    passes = Atomic.make [] }

let compile ?is_tick expl =
  Atomic.incr compiles_counter;
  let actions = (Explore.csr expl).Explore.actions in
  let tick =
    match is_tick with
    | Some f -> Array.map f actions
    | None -> Array.make (Array.length actions) false
  in
  make ~tick expl

let of_pa ?max_states ?is_tick pa =
  compile ?is_tick (Explore.run ?max_states pa)

(* Rehydration constructor for snapshot loading: adopts a stored tick
   mask instead of recomputing it from a predicate, so it does NOT bump
   [compiles_counter].  The fragment ([Explore.of_parts]) has already
   validated its CSR arrays. *)
let assemble ~tick expl =
  if Array.length tick <> Explore.num_choices expl then
    invalid_arg
      (Printf.sprintf "Arena.assemble: tick has %d entries for %d steps"
         (Array.length tick) (Explore.num_choices expl));
  make ~tick expl

(* Depends only on the CSR skeleton and the tick mask, never on a
   query's target, so every engine run on the arena shares it.  Memoized
   with a CAS: racing domains both compute the (identical, immutable)
   order and the loser adopts the published copy. *)
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

(* A weight [a/2^k] packs as [a lsl 6 lor k].  [k] stops at 56, so
   [a <= 2^k] shifted by 6 stays below [max_int]; no shipped model
   comes near (the paper's coins give [k <= 3]). *)
let max_shift = 56

(* [-1] unless [q] is [a/2^k], [0 <= a] and [k <= max_shift]. *)
let pack q =
  match Bigint.to_int (Q.num q), Bigint.to_int (Q.den q) with
  | Some a, Some d when a >= 0 && d land (d - 1) = 0 ->
    let k = ref 0 in
    while 1 lsl !k < d do incr k done;
    if !k <= max_shift then (a lsl 6) lor !k else -1
  | _ -> -1

(* Every weight dyadic and every step's weights summing to exactly 1,
   checked on the common scale [2^max_shift]: a running sum past it
   already fails, so it cannot overflow.  A fragment holds few distinct
   weights, so the last few packed are looked up first ([Q.equal] is
   allocation-free on the small tier) and [pack]'s bigints are made
   once per distinct weight. *)
let dyadic_weights a =
  let w = Array.make (Array.length a.tgt) 0 in
  let one = 1 lsl max_shift in
  let seen = ref [] in
  let rec find q = function
    | [] -> -1
    | (q', p) :: rest -> if Q.equal q q' then p else find q rest
  in
  let packed q =
    match find q !seen with
    | -1 ->
      let p = pack q in
      if p >= 0 && List.compare_length_with !seen 16 < 0 then
        seen := (q, p) :: !seen;
      p
    | p -> p
  in
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length a.out_off - 1 do
    let sum = ref 0 and o = ref a.out_off.(!k) in
    while !ok && !o < a.out_off.(!k + 1) do
      let p = packed a.prob_q.(!o) in
      w.(!o) <- p;
      if p < 0 then ok := false
      else begin
        sum := !sum + ((p lsr 6) lsl (max_shift - (p land 63)));
        if !sum > one then ok := false
      end;
      incr o
    done;
    if !sum <> one then ok := false;
    incr k
  done;
  if !ok then Some w else None

let fixed_weights a =
  match Atomic.get a.fixed with
  | Some w -> w
  | None ->
    let w = dyadic_weights a in
    if Atomic.compare_and_set a.fixed None (Some w) then w
    else begin
      match Atomic.get a.fixed with
      | Some published -> published
      | None -> w
    end

(* Keyed by the pass and its two state sets.  A domain that loses the
   CAS adopts a racing copy or prepends again. *)
let solved a pass ~target ~over solve =
  if Bitset.length target <> a.n || Bitset.length over <> a.n then
    invalid_arg "Arena.solved: a set has the wrong universe";
  let find =
    List.find_map (fun ((p, t, o), s) ->
        if p = pass && Bitset.equal t target && Bitset.equal o over then Some s
        else None)
  in
  match find (Atomic.get a.passes) with
  | Some s -> s
  | None ->
    let s = solve () in
    let rec publish () =
      let seen = Atomic.get a.passes in
      match find seen with
      | Some published -> published
      | None
        when Atomic.compare_and_set a.passes seen
               (((pass, target, over), s) :: seen) -> s
      | None -> publish ()
    in
    publish ()

(* The fingerprint digests only deterministic inputs: the CSR skeleton
   (offsets, targets), the exact probability plane rendered through
   [Rational.add_wire] (canonical bytes, Bigint-tier safe), the tick
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
    (* About eight bytes per number, so the buffer seldom grows. *)
    let buf =
      Buffer.create
        (64
         + 8
           * (Array.length a.step_off + Array.length a.out_off
              + (2 * Array.length a.tgt) + Array.length a.actions + a.n))
    in
    let add_int i =
      Proba.Decimal.add buf i;
      Buffer.add_char buf ','
    in
    Buffer.add_string buf "arena/1;";
    add_int a.n;
    add_int a.expanded;
    Array.iter add_int a.step_off;
    Array.iter add_int a.out_off;
    Array.iter add_int a.tgt;
    Array.iter
      (fun q ->
         Proba.Rational.add_wire buf q;
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
let is_complete a = a.expanded = a.n
let num_choices a = Array.length a.tick
let num_branches a = Array.length a.tgt
let state a i = Explore.state a.expl i
let index a s = Explore.index a.expl s
let start_indices a = Explore.start_indices a.expl
let set a pred = Explore.set a.expl pred
let indicator a pred = Explore.indicator a.expl pred

let num_steps_of a i = a.step_off.(i + 1) - a.step_off.(i)

let action a ~step = a.actions.(step)
let is_tick_step a ~step = a.tick.(step)
