type verdict = Accept | Reject | Undecided

type ('s, 'a) t = {
  name : string;
  decide : maximal:bool -> ('s, 'a) Exec.t -> verdict;
}

let make ~name decide = { name; decide }

let name e = e.name
let decide e ~maximal frag = e.decide ~maximal frag

let first ?(equal_action = ( = )) a u =
  let decide ~maximal frag =
    match Exec.find_first frag (fun act _ -> equal_action act a) with
    | None -> if maximal then Accept else Undecided
    | Some i ->
      let _, post = List.nth (Exec.steps frag) i in
      if Pred.mem u post then Accept else Reject
  in
  make ~name:(Printf.sprintf "first(a, %s)" (Pred.name u)) decide

let next ?(equal_action = ( = )) pairs =
  let rec distinct = function
    | [] -> true
    | (a, _) :: rest ->
      (not (List.exists (fun (b, _) -> equal_action a b) rest))
      && distinct rest
  in
  if not (distinct pairs) then
    invalid_arg "Event.next: actions must be pairwise distinct";
  let decide ~maximal frag =
    let is_one act = List.exists (fun (a, _) -> equal_action a act) pairs in
    match Exec.find_first frag (fun act _ -> is_one act) with
    | None -> if maximal then Accept else Undecided
    | Some i ->
      let act, post = List.nth (Exec.steps frag) i in
      let _, u = List.find (fun (a, _) -> equal_action a act) pairs in
      if Pred.mem u post then Accept else Reject
  in
  let names = String.concat ", " (List.map (fun (_, u) -> Pred.name u) pairs) in
  make ~name:(Printf.sprintf "next(%s)" names) decide

let reach ?(duration = fun _ -> 0) u ~within =
  let decide ~maximal frag =
    (* Walk the fragment accumulating elapsed time; accept on the first
       state in [u] at elapsed time <= within (the fragment's first
       state is at time 0). *)
    if Pred.mem u (Exec.fstate frag) then Accept
    else begin
      let verdict, _ =
        Exec.fold
          (fun (v, elapsed) a s ->
             match v with
             | Accept | Reject -> (v, elapsed)
             | Undecided ->
               let elapsed = elapsed + duration a in
               if elapsed > within then (Reject, elapsed)
               else if Pred.mem u s then (Accept, elapsed)
               else (Undecided, elapsed))
          (Undecided, 0) frag
      in
      if verdict = Undecided && maximal then Reject else verdict
    end
  in
  make
    ~name:(Printf.sprintf "reach(%s) within %d" (Pred.name u) within)
    decide

let all_first ?(equal_action = ( = )) ~count a u =
  if count < 0 then invalid_arg "Event.all_first: negative count";
  let decide ~maximal frag =
    (* Scan the first [count] occurrences of [a]; reject at the first
       one landing outside [u]; accept once [count] have landed inside,
       or at a maximal execution with fewer (all inside). *)
    let rec scan seen = function
      | [] ->
        if seen >= count || maximal then Accept else Undecided
      | (act, post) :: rest ->
        if seen >= count then Accept
        else if equal_action act a then
          if Pred.mem u post then scan (seen + 1) rest else Reject
        else scan seen rest
    in
    scan 0 (Exec.steps frag)
  in
  make
    ~name:(Printf.sprintf "all_first(%d; a, %s)" count (Pred.name u))
    decide

let eventually u =
  let decide ~maximal frag =
    if List.exists (Pred.mem u) (Exec.states frag) then Accept
    else if maximal then Reject
    else Undecided
  in
  make ~name:(Printf.sprintf "eventually(%s)" (Pred.name u)) decide

let conj_verdict v1 v2 =
  match v1, v2 with
  | Reject, _ | _, Reject -> Reject
  | Accept, Accept -> Accept
  | _ -> Undecided

let disj_verdict v1 v2 =
  match v1, v2 with
  | Accept, _ | _, Accept -> Accept
  | Reject, Reject -> Reject
  | _ -> Undecided

let conj e1 e2 =
  make
    ~name:(Printf.sprintf "(%s) ∩ (%s)" e1.name e2.name)
    (fun ~maximal frag ->
       conj_verdict (e1.decide ~maximal frag) (e2.decide ~maximal frag))

let disj e1 e2 =
  make
    ~name:(Printf.sprintf "(%s) ∪ (%s)" e1.name e2.name)
    (fun ~maximal frag ->
       disj_verdict (e1.decide ~maximal frag) (e2.decide ~maximal frag))

let negate e =
  let flip = function
    | Accept -> Reject
    | Reject -> Accept
    | Undecided -> Undecided
  in
  make ~name:(Printf.sprintf "¬(%s)" e.name) (fun ~maximal frag ->
      flip (e.decide ~maximal frag))

let check_premise m ~states pairs =
  let step_ok (a, u, p) step =
    if Pa.equal_action m step.Pa.action a then
      Proba.Rational.geq (Proba.Dist.prob step.Pa.dist (Pred.mem u)) p
    else true
  in
  List.for_all
    (fun s ->
       let steps = Pa.enabled m s in
       List.for_all (fun pair -> List.for_all (step_ok pair) steps) pairs)
    states

let product_bound pairs =
  List.fold_left
    (fun acc (_, _, p) -> Proba.Rational.mul acc p)
    Proba.Rational.one pairs

let power_bound p count = Proba.Rational.pow p count

let min_bound = function
  | [] -> invalid_arg "Event.min_bound: empty list"
  | (_, _, p) :: rest ->
    List.fold_left (fun acc (_, _, q) -> Proba.Rational.min acc q) p rest
