exception Too_many_states of int

type 'a step = { action : 'a; outcomes : (int * Proba.Rational.t) array }

type ('s, 'a) t = {
  pa : ('s, 'a) Core.Pa.t;
  states : 's array;
  table : ('s, int) Funtbl.t;
  steps : 'a step array array;
  start_indices : int list;
  expanded : int;
  canon : ('s -> 's) option;  (** [Some] when the fragment is a quotient *)
}

type ('s, 'a) partial = {
  fragment : ('s, 'a) t;
  complete : bool;
  frontier : int;
  stopped : string option;
}

(* Process-wide count of BFS explorations, surfaced through
   [Models.stats] so the CLI can assert that memoization collapses
   repeated model uses into one exploration.  Atomic because several
   worker domains may explore distinct models concurrently under
   [prtb serve]. *)
let explorations_counter = Atomic.make 0
let explorations () = Atomic.get explorations_counter

(* Where [s] lands in [table]: looked up as it is first, and only on a
   miss through [canon].  The table holds fixpoints of [canon] alone
   and [canon] is idempotent, so a hit is already [s]'s representative
   and the orbit closure is skipped; [missed] gets the canonical form.
   Without [canon], [missed] gets [s] and nothing is looked up twice. *)
let resolve table canon s ~found ~missed =
  match canon with
  | None -> missed s
  | Some canon ->
    (match Funtbl.find table s with
     | Some i -> found i
     | None -> missed (canon s))

(* Shared BFS.  Interning order is FIFO visitation order, so states are
   expanded in index order and an incomplete run's frontier is exactly
   the index suffix [expanded ..].  [stop] is consulted before each
   expansion; [hard_max] reproduces the legacy contract of {!run}
   (raise the moment a state beyond the bound would be interned). *)
let bfs ?hard_max ?(stop = fun ~interned:_ -> None) ?canon
    ?(on_intern = fun _ _ -> ()) m =
  Atomic.incr explorations_counter;
  let table =
    Funtbl.create ~equal:(Core.Pa.equal_state m) ~hash:(Core.Pa.hash_state m)
      1024
  in
  let states = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  (* Interning the canonical form is the whole of orbit reduction:
     every state of an orbit interns to its representative's index, so
     the BFS explores the quotient MDP and everything downstream (arena
     compilation included) is oblivious.  [find_or_add] interns with a
     single hash-and-probe; a raised [Too_many_states] leaves the table
     untouched. *)
  let add s =
    Funtbl.find_or_add table s (fun () ->
        (match hard_max with
         | Some bound when !count >= bound -> raise (Too_many_states bound)
         | Some _ | None -> ());
        let i = !count in
        incr count;
        states := s :: !states;
        Queue.add s queue;
        on_intern i s;
        i)
  in
  let intern s = resolve table canon s ~found:Fun.id ~missed:add in
  let start_indices = List.map intern (Core.Pa.start m) in
  let steps_acc = ref [] in
  let expanded = ref 0 in
  let stopped = ref None in
  while !stopped = None && not (Queue.is_empty queue) do
    Core.Budget.poll ();
    match stop ~interned:!count with
    | Some _ as reason -> stopped := reason
    | None ->
      let s = Queue.take queue in
      let steps =
        List.map
          (fun step ->
             let outcomes =
               List.map
                 (fun (target, w) -> (intern target, w))
                 (Proba.Dist.support step.Core.Pa.dist)
             in
             (* Distinct support states can intern to one index when the
                PA's state equality is coarser than the equality the
                distribution was merged under; coalesce them (keeping
                first-occurrence order) so no downstream sweep pays for
                split masses. *)
             let rec coalesce acc = function
               | [] -> List.rev acc
               | (i, w) :: rest ->
                 let same, rest =
                   List.partition (fun (j, _) -> j = i) rest
                 in
                 let w =
                   List.fold_left
                     (fun w (_, w') -> Proba.Rational.add w w')
                     w same
                 in
                 coalesce ((i, w) :: acc) rest
             in
             let outcomes = coalesce [] outcomes in
             { action = step.Core.Pa.action;
               outcomes = Array.of_list outcomes })
          (Core.Pa.enabled m s)
      in
      steps_acc := Array.of_list steps :: !steps_acc;
      incr expanded
  done;
  let n = !count in
  let states_arr =
    match !states with
    | [] -> [||]
    | witness :: _ ->
      let arr = Array.make n witness in
      List.iteri (fun k s -> arr.(n - 1 - k) <- s) !states;
      arr
  in
  (* Frontier states (indices >= expanded) keep the empty step array:
     downstream analyses treat them as stuck, which under-approximates
     reachability -- the sound direction for min-reach lower bounds. *)
  let steps_arr = Array.make n [||] in
  List.iteri
    (fun k st -> steps_arr.(!expanded - 1 - k) <- st)
    !steps_acc;
  ( { pa = m; states = states_arr; table; steps = steps_arr; start_indices;
      expanded = !expanded; canon },
    !stopped )

let run ?(max_states = 5_000_000) ?canon ?on_intern m =
  let fragment, _ = bfs ~hard_max:max_states ?canon ?on_intern m in
  fragment

(* Rehydration constructor for snapshot loading: rebuilds the intern
   table from the state array instead of re-running the BFS, so it does
   NOT bump [explorations_counter] -- that is the whole point of
   snapshots, and the CI smoke asserts the counter stays at zero. *)
let of_parts ?canon ~pa ~states ~steps ~start_indices
    ~expanded () =
  let n = Array.length states in
  if Array.length steps <> n then
    invalid_arg "Explore.of_parts: steps/states length mismatch";
  if expanded < 0 || expanded > n then
    invalid_arg "Explore.of_parts: expanded out of range";
  let table =
    Funtbl.create ~equal:(Core.Pa.equal_state pa) ~hash:(Core.Pa.hash_state pa)
      (max 16 (2 * n))
  in
  Array.iteri (fun i s -> Funtbl.add table s i) states;
  List.iter
    (fun i ->
       if i < 0 || i >= n then
         invalid_arg "Explore.of_parts: start index out of range")
    start_indices;
  { pa; states; table; steps; start_indices; expanded; canon }

let run_budgeted ?(budget = Core.Budget.unlimited) ?clock ?canon m =
  let clock =
    match clock with Some c -> c | None -> Core.Budget.start budget
  in
  let stop ~interned = Core.Budget.exhausted ~states:interned clock in
  let fragment, stopped = bfs ~stop ?canon m in
  { fragment;
    complete = stopped = None;
    frontier = Array.length fragment.states - fragment.expanded;
    stopped }

let automaton e = e.pa
let num_states e = Array.length e.states
let num_expanded e = e.expanded
let is_expanded e i = i < e.expanded
let is_complete e = e.expanded = Array.length e.states

let num_choices e =
  Array.fold_left (fun acc st -> acc + Array.length st) 0 e.steps

let num_branches e =
  Array.fold_left
    (fun acc st ->
       Array.fold_left (fun acc s -> acc + Array.length s.outcomes) acc st)
    0 e.steps

let state e i = e.states.(i)
let index e s =
  resolve e.table e.canon s ~found:Option.some ~missed:(Funtbl.find e.table)
let start_indices e = e.start_indices
let steps e i = e.steps.(i)

let states_where e pred =
  let acc = ref [] in
  for i = Array.length e.states - 1 downto 0 do
    if pred e.states.(i) then acc := i :: !acc
  done;
  !acc

let indicator e pred =
  Array.map (fun s -> Core.Pred.mem pred s) e.states

let check_invariant e pred =
  let n = Array.length e.states in
  let rec go i =
    if i >= n then None
    else if not (pred e.states.(i)) then Some e.states.(i)
    else go (i + 1)
  in
  go 0
