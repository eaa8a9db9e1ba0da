exception Too_many_states of int

type 'a csr = {
  step_off : int array;
  out_off : int array;
  tgt : int array;
  prob_q : Proba.Rational.t array;
  actions : 'a array;
}

type ('s, 'a) t = {
  pa : ('s, 'a) Core.Pa.t;
  table : 's Funtbl.t;  (** the states, numbered by index *)
  csr : 'a csr;
  start_indices : int list;
  expanded : int;
  canon : ('s -> 's) option;  (** [Some] when the fragment is a quotient *)
  sets : ('s Core.Pred.t * Bitset.t) list Atomic.t;
      (** swept predicates, at most one per name; use {!set} *)
  regions : 's Core.Pred.t list Atomic.t;
      (** the fragment's own predicates, one per name; use {!region} *)
}

(* Process-wide count of BFS explorations, surfaced through
   [Models.stats] so the CLI can assert that memoization collapses
   repeated model uses into one exploration.  Atomic because several
   worker domains may explore distinct models concurrently under
   [prtb serve]. *)
let explorations_counter = Atomic.make 0
let explorations () = Atomic.get explorations_counter

(* Process-wide count of the sweeps [set] ran, stored or not, so a test
   can pin one sweep per region and fragment. *)
let sweeps_counter = Atomic.make 0
let sweeps () = Atomic.get sweeps_counter

(* Where [s] lands in [table]: looked up as it is first, and only on a
   miss through [canon].  The table holds fixpoints of [canon] alone
   and [canon] is idempotent, so a hit is already [s]'s representative
   and the orbit closure is skipped; [missed] gets the canonical form.
   Without [canon], [missed] gets [s] and nothing is looked up twice. *)
let resolve table canon s ~found ~missed =
  match canon with
  | None -> missed s
  | Some canon ->
    let i = Funtbl.find table s in
    if i >= 0 then found i else missed (canon s)

(* A growable array: [push] doubles the backing store when it is full,
   and [trim] copies out the pushed prefix, once, when the BFS ends. *)
type 'x buf = { mutable arr : 'x array; mutable len : int }

let buf () = { arr = [||]; len = 0 }

let push b x =
  if b.len = Array.length b.arr then begin
    let arr = Array.make (Int.max 64 (2 * b.len)) x in
    Array.blit b.arr 0 arr 0 b.len;
    b.arr <- arr
  end;
  b.arr.(b.len) <- x;
  b.len <- b.len + 1

let trim b = Array.sub b.arr 0 b.len

(* The BFS.  Interning order is FIFO visitation order, so states are
   expanded in index order (the next one to expand is the table's key
   [expanded]) and each expansion appends one CSR row.  It
   raises the moment a state beyond [max_states] would be interned, and
   at the ambient deadline's poll before each expansion. *)
let run ?(max_states = 5_000_000) ?canon ?(on_intern = fun _ _ -> ()) m =
  Atomic.incr explorations_counter;
  let table =
    Funtbl.create ~equal:(Core.Pa.equal_state m) ~hash:(Core.Pa.hash_state m)
      1024
  in
  (* Interning the canonical form is the whole of orbit reduction:
     every state of an orbit interns to its representative's index, so
     the BFS explores the quotient MDP and everything downstream (arena
     compilation included) is oblivious.  [find_or_add] interns with a
     single hash-and-probe; a raised [Too_many_states] leaves the table
     untouched.  The table numbers states in interning order, so it
     holds the state array too. *)
  let add s =
    Funtbl.find_or_add table s (fun i ->
        if i >= max_states then raise (Too_many_states max_states);
        on_intern i s)
  in
  let intern s = resolve table canon s ~found:Fun.id ~missed:add in
  let start_indices = List.map intern (Core.Pa.start m) in
  let step_off = buf () and out_off = buf () and tgt = buf () in
  let prob_q = buf () and actions = buf () in
  push step_off 0;
  push out_off 0;
  (* The branch from [o] on that targets [j].  Distinct support states
     can intern to one index when the PA's state equality is coarser
     than the equality the distribution was merged under; they are
     coalesced into the step's first branch to [j] (keeping
     first-occurrence order) so no downstream sweep pays for split
     masses. *)
  let rec branch_of j o =
    if o = tgt.len then None
    else if tgt.arr.(o) = j then Some o
    else branch_of j (o + 1)
  in
  let expanded = ref 0 in
  while !expanded < Funtbl.length table do
    Core.Budget.poll ();
    List.iter
      (fun step ->
         let first = tgt.len in
         List.iter
           (fun (target, w) ->
              let j = intern target in
              match branch_of j first with
              | Some o ->
                prob_q.arr.(o) <- Proba.Rational.add prob_q.arr.(o) w
              | None ->
                push tgt j;
                push prob_q w)
           (Proba.Dist.support step.Core.Pa.dist);
         push actions step.Core.Pa.action;
         push out_off tgt.len)
      (Core.Pa.enabled m (Funtbl.key table !expanded));
    push step_off actions.len;
    incr expanded
  done;
  let csr =
    { step_off = trim step_off; out_off = trim out_off; tgt = trim tgt;
      prob_q = trim prob_q; actions = trim actions }
  in
  (* The fragment keeps its states as the table's keys: drop the slots
     doubling left past the last one. *)
  Funtbl.trim table;
  { pa = m; table; csr; start_indices; expanded = !expanded; canon;
    sets = Atomic.make []; regions = Atomic.make [] }

(* Rehydration constructor for snapshot loading: rebuilds the intern
   table from the state array instead of re-running the BFS, so it does
   NOT bump [explorations_counter] -- that is the whole point of
   snapshots, and the CI smoke asserts the counter stays at zero.  The
   one validator of the CSR format: every error names the array. *)
let of_parts ?canon ~pa ~states ~csr ~start_indices ~expanded () =
  let invalid fmt =
    Printf.ksprintf (fun s -> invalid_arg ("Explore.of_parts: " ^ s)) fmt
  in
  let n = Array.length states in
  let { step_off; out_off; tgt; prob_q; actions } = csr in
  if expanded < 0 || expanded > n then
    invalid "expanded %d out of range [0, %d]" expanded n;
  (* Row pointers: [len] entries rising from 0 to [last]. *)
  let offsets what arr ~len ~last =
    if Array.length arr <> len then
      invalid "%s has %d entries, expected %d" what (Array.length arr) len;
    if arr.(0) <> 0 then invalid "%s does not start at 0" what;
    for i = 0 to len - 2 do
      if arr.(i + 1) < arr.(i) then invalid "%s is not monotone at %d" what i
    done;
    if arr.(len - 1) <> last then
      invalid "%s ends at %d, expected %d" what arr.(len - 1) last
  in
  offsets "step_off" step_off ~len:(n + 1) ~last:(Array.length actions);
  offsets "out_off" out_off
    ~len:(Array.length actions + 1)
    ~last:(Array.length tgt);
  if Array.length prob_q <> Array.length tgt then
    invalid "prob_q has %d entries for %d branches" (Array.length prob_q)
      (Array.length tgt);
  Array.iter
    (fun t -> if t < 0 || t >= n then
        invalid "tgt entry %d out of range [0, %d)" t n)
    tgt;
  List.iter
    (fun i -> if i < 0 || i >= n then
        invalid "start index %d out of range [0, %d)" i n)
    start_indices;
  for i = expanded to n - 1 do
    if step_off.(i + 1) <> step_off.(i) then
      invalid "step_off: frontier state %d has steps" i
  done;
  let table =
    Funtbl.create ~equal:(Core.Pa.equal_state pa) ~hash:(Core.Pa.hash_state pa)
      n
  in
  Array.iteri
    (fun i s ->
       let j = Funtbl.find_or_add table s ignore in
       if j <> i then invalid "state %d repeats state %d" i j)
    states;
  Funtbl.trim table;
  { pa; table; csr; start_indices; expanded; canon; sets = Atomic.make [];
    regions = Atomic.make [] }

let automaton e = e.pa
let num_states e = Funtbl.length e.table
let key_capacity e = Funtbl.capacity e.table
let num_expanded e = e.expanded
let is_complete e = e.expanded = num_states e

let num_choices e = Array.length e.csr.actions
let num_branches e = Array.length e.csr.tgt

let state e i = Funtbl.key e.table i
let index e s =
  let i =
    resolve e.table e.canon s ~found:Fun.id ~missed:(Funtbl.find e.table)
  in
  if i >= 0 then Some i else None
let start_indices e = e.start_indices
let csr e = e.csr

let named name_of name =
  List.find_opt (fun x -> String.equal (name_of x) name)

(* Publish [entry] under [name] by CAS unless an entry is stored
   already, and return the stored one: a domain that loses the race to
   a name gets the winner's.  Both memos below are write-once this
   way. *)
let rec publish store name_of name entry =
  let seen = Atomic.get store in
  match named name_of name seen with
  | Some kept -> kept
  | None when Atomic.compare_and_set store seen (entry :: seen) -> entry
  | None -> publish store name_of name entry

let set_name (q, _) = Core.Pred.name q

(* Sweep first, then publish, as [Arena.solved] does: a domain that
   loses the race to a name adopts the stored set, so two domains may
   sweep one name but only one set is kept.  Re-sweeping a physically
   different predicate under a stored name keeps the memo sound, and
   the proof rules' identification of a set with its name honest. *)
let rec set e p =
  match Core.Pred.operands p with
  | Some (l, r) -> Bitset.union (set e l) (set e r)
  | None ->
    let name = Core.Pred.name p in
    (match named set_name name (Atomic.get e.sets) with
     | Some (q, stored) when q == p -> stored
     | _ ->
       let swept =
         Bitset.init (num_states e) (fun i -> Core.Pred.mem p (state e i))
       in
       Atomic.incr sweeps_counter;
       let _, stored = publish e.sets set_name name (p, swept) in
       if Bitset.equal stored swept then stored
       else
         invalid_arg
           (Printf.sprintf
              "Explore.set: predicate %S names a different state set on \
               this fragment"
              name))

(* Build, then publish: a domain that loses the race to a name adopts
   the stored predicate. *)
let region e name build =
  match named Core.Pred.name name (Atomic.get e.regions) with
  | Some q -> q
  | None ->
    let p = build () in
    if not (String.equal (Core.Pred.name p) name) then
      invalid_arg
        (Printf.sprintf "Explore.region: %S built a predicate named %S" name
           (Core.Pred.name p));
    publish e.regions Core.Pred.name name p

let indicator e pred = Bitset.to_bools (set e pred)

let check_invariant e pred =
  Option.map (state e) (Bitset.first_absent (set e pred))
