type t = {
  name : string;
  assignments : (int * int) array;  (* per process: (left, right) *)
  num_resources : int;
  contenders : (int * State.side) list array;  (* per resource *)
}

let make ~name ~num_resources assignments =
  let n = Array.length assignments in
  if n < 2 then invalid_arg "Topology.make: need at least 2 processes";
  Array.iteri
    (fun i (l, r) ->
       if l = r then
         invalid_arg
           (Printf.sprintf "Topology.make: process %d has identical \
                            resources" i);
       if l < 0 || l >= num_resources || r < 0 || r >= num_resources then
         invalid_arg
           (Printf.sprintf "Topology.make: process %d has an out-of-range \
                            resource" i))
    assignments;
  let contenders = Array.make num_resources [] in
  Array.iteri
    (fun i (l, r) ->
       contenders.(l) <- (i, State.L) :: contenders.(l);
       contenders.(r) <- (i, State.R) :: contenders.(r))
    assignments;
  Array.iteri (fun r c -> contenders.(r) <- List.rev c) contenders;
  { name; assignments; num_resources; contenders }

let name t = t.name
let num_procs t = Array.length t.assignments
let num_resources t = t.num_resources

let res t i side =
  let l, r = t.assignments.(i) in
  match side with State.L -> l | State.R -> r

let contenders t r = t.contenders.(r)

(* Side-preserving automorphism search: pairs (pi, rho) of process and
   resource permutations with [rho left(i) = left(pi i)] and
   [rho right(i) = right(pi i)].  Side-preservation matters: the
   protocol is chiral (first flip names a side), so e.g. a ring
   reflection, though a graph automorphism, is NOT an automorphism of
   the automaton.  Backtracking over [pi] with incremental [rho]
   consistency keeps this instant for the topologies at hand; [limit]
   truncates pathological cases (e.g. the star's full symmetric group),
   which stays sound -- any subset of automorphisms generates a
   subgroup, and reducing by a subgroup merely compresses less.  The
   symmetry spec declares [generators] below, not this whole list:
   every orbit-reduction cost is paid once per declared permutation. *)
let automorphisms ?(limit = 720) t =
  let n = num_procs t in
  let m = t.num_resources in
  let results = ref [] in
  let count = ref 0 in
  let pi = Array.make n (-1) in
  let pi_used = Array.make n false in
  let rho = Array.make m (-1) in
  let rho_used = Array.make m false in
  let exception Done in
  let assign_res a b undo =
    if rho.(a) = b then true
    else if rho.(a) <> -1 || rho_used.(b) then false
    else begin
      rho.(a) <- b;
      rho_used.(b) <- true;
      undo := a :: !undo;
      true
    end
  in
  let record () =
    let identity = ref true in
    Array.iteri (fun i j -> if i <> j then identity := false) pi;
    if not !identity then begin
      (* Resources no process touches are unconstrained; complete rho
         over them by matching free sources to free targets. *)
      let full_rho = Array.copy rho in
      let free_targets = ref [] in
      for r = m - 1 downto 0 do
        if not rho_used.(r) then free_targets := r :: !free_targets
      done;
      Array.iteri
        (fun r img ->
           if img = -1 then
             match !free_targets with
             | tgt :: rest ->
               full_rho.(r) <- tgt;
               free_targets := rest
             | [] -> assert false)
        full_rho;
      results := (Array.copy pi, full_rho) :: !results;
      incr count;
      if !count >= limit then raise Done
    end
  in
  let rec go i =
    if i = n then record ()
    else
      for j = 0 to n - 1 do
        if not pi_used.(j) then begin
          let li, ri = t.assignments.(i) in
          let lj, rj = t.assignments.(j) in
          let undo = ref [] in
          if assign_res li lj undo && assign_res ri rj undo then begin
            pi.(i) <- j;
            pi_used.(j) <- true;
            go (i + 1);
            pi.(i) <- -1;
            pi_used.(j) <- false
          end;
          List.iter
            (fun a ->
               rho_used.(rho.(a)) <- false;
               rho.(a) <- -1)
            !undo
        end
      done
  in
  (try go 0 with Done -> ());
  List.rev !results

(* [g] after [h], as [(pi, rho)] pairs: process [i] goes to
   [g (h i)], resource [r] to [g (h r)]. *)
let compose (gpi, grho) (hpi, hrho) =
  (Array.map (fun i -> gpi.(i)) hpi, Array.map (fun r -> grho.(r)) hrho)

(* Greedy over [automorphisms t] in list order: an automorphism is kept
   only when the ones kept so far do not already generate it, decided
   by closing the kept ones over [(pi, rho)] pairs.  Untruncated, the
   group is the listed automorphisms plus the identity, so a closure
   never outgrows [cap]; one that does means [limit] cut the list, and
   from then on every remaining automorphism is kept -- the kept ones
   then still generate everything listed. *)
let generators t =
  let autos = automorphisms t in
  let cap = List.length autos + 1 in
  let identity =
    (Array.init (num_procs t) Fun.id, Array.init t.num_resources Fun.id)
  in
  (* The group the kept generators generate, or [None] past [cap]. *)
  let closure kept =
    let group = Hashtbl.create cap in
    let queue = Queue.create () in
    let add x =
      if not (Hashtbl.mem group x) then begin
        Hashtbl.replace group x ();
        Queue.add x queue
      end
    in
    add identity;
    let exception Outgrown in
    try
      while not (Queue.is_empty queue) do
        let x = Queue.take queue in
        List.iter (fun g -> add (compose g x)) kept;
        if Hashtbl.length group > cap then raise Outgrown
      done;
      Some group
    with Outgrown -> None
  in
  let rec keep kept group = function
    | [] -> List.rev kept
    | a :: rest ->
      (match group with
       | Some g when Hashtbl.mem g a -> keep kept group rest
       | Some _ -> keep (a :: kept) (closure (a :: kept)) rest
       | None -> keep (a :: kept) None rest)
  in
  keep [] (closure []) autos

let ring n =
  make ~name:(Printf.sprintf "ring(%d)" n) ~num_resources:n
    (Array.init n (fun i -> ((i + n - 1) mod n, i)))

let line n =
  make ~name:(Printf.sprintf "line(%d)" n) ~num_resources:(n + 1)
    (Array.init n (fun i -> (i, i + 1)))

let star n =
  make ~name:(Printf.sprintf "star(%d)" n) ~num_resources:(n + 1)
    (Array.init n (fun i -> (i + 1, 0)))
