module D = Proba.Dist

type bit = bool

type proposal = Value of bit | Null

type stage =
  | To_report
  | Sent_report
  | Sent_proposal
  | Decided of bit
  | Capped
  | Crashed

type proc = {
  v : bit;
  round : int;
  stage : stage;
  c : int;
  b : int;
}

type state = {
  procs : proc array;
  reports : bit option array array;
  proposals : proposal option array array;
}

type action =
  | Tick
  | Crash of int
  | Report of int
  | Collect_reports of int * int list
  | Collect_proposals of int * int list

type params = { n : int; f : int; cap : int; g : int; k : int }

let is_tick = function Tick -> true | _ -> false
let duration a = if is_tick a then 1 else 0

let some_decided s =
  Array.exists
    (fun p -> match p.stage with Decided _ -> true | _ -> false)
    s.procs

let agreement s =
  let decided =
    Array.to_list s.procs
    |> List.filter_map (fun p ->
        match p.stage with Decided w -> Some w | _ -> None)
  in
  match decided with
  | [] | [ _ ] -> true
  | w :: rest -> List.for_all (Bool.equal w) rest

let never_decides value s =
  Array.for_all
    (fun p -> match p.stage with Decided w -> w <> value | _ -> true)
    s.procs

let quiescent s =
  Array.for_all
    (fun p ->
       match p.stage with
       | Decided _ | Capped | Crashed -> true
       | To_report | Sent_report | Sent_proposal -> false)
    s.procs

let start params values =
  if Array.length values <> params.n then
    invalid_arg "Ben_or.start: wrong number of initial values";
  { procs =
      Array.map
        (fun v -> { v; round = 1; stage = To_report; c = params.g;
                    b = params.k })
        values;
    reports = Array.make_matrix params.cap params.n None;
    proposals = Array.make_matrix params.cap params.n None }

(* ----------------------------------------------------------------- *)

let alive_stage = function
  | To_report | Sent_report | Sent_proposal -> true
  | Decided _ | Capped | Crashed -> false

let senders_of row =
  let acc = ref [] in
  Array.iteri (fun j m -> if m <> None then acc := j :: !acc) row;
  List.rev !acc

(* Ready = has an enabled protocol step right now. *)
let ready params s i =
  let p = s.procs.(i) in
  match p.stage with
  | To_report -> true
  | Sent_report ->
    List.length (senders_of s.reports.(p.round - 1)) >= params.n - params.f
  | Sent_proposal ->
    List.length (senders_of s.proposals.(p.round - 1)) >= params.n - params.f
  | Decided _ | Capped | Crashed -> false

let set_proc s i p =
  let procs = Array.copy s.procs in
  procs.(i) <- p;
  { s with procs }

(* A process's own step: fresh deadline, one budget unit consumed; the
   clocks of non-ready configurations are canonical so that equivalent
   states merge. *)
let reclock params s i p =
  let s' = set_proc s i { p with c = params.g; b = p.b - 1 } in
  if ready params s' i then s'
  else set_proc s i { p with c = params.g; b = params.k }

let canonical params p stage =
  { v = false; round = p.round; stage; c = params.g; b = params.k }

let tick_step params s =
  let blocked = ref false in
  Array.iteri
    (fun i p -> if ready params s i && p.c = 0 then blocked := true)
    s.procs;
  if !blocked then []
  else begin
    let procs =
      Array.mapi
        (fun i p ->
           if ready params s i then { p with c = p.c - 1; b = params.k }
           else p)
        s.procs
    in
    [ { Core.Pa.action = Tick; dist = D.point { s with procs } } ]
  end

let crash_steps params s =
  let crashed =
    Array.fold_left
      (fun acc p -> if p.stage = Crashed then acc + 1 else acc)
      0 s.procs
  in
  if crashed >= params.f then []
  else
    List.concat
      (List.mapi
         (fun i p ->
            if alive_stage p.stage then
              [ { Core.Pa.action = Crash i;
                  dist = D.point (set_proc s i (canonical params p Crashed)) } ]
            else [])
         (Array.to_list s.procs))

(* k-subsets of a list. *)
let rec choose k xs =
  if k = 0 then [ [] ]
  else
    match xs with
    | [] -> []
    | x :: rest ->
      List.map (fun c -> x :: c) (choose (k - 1) rest) @ choose k rest

(* Collections: adversary-chosen subsets of exactly [n - f] available
   messages, always including the collector's own. *)
let collections params row i =
  let others = List.filter (( <> ) i) (senders_of row) in
  List.map (fun c -> i :: c) (choose (params.n - params.f - 1) others)

let majority_proposal params collected =
  (* More than n/2 identical reports among those read. *)
  let count w = List.length (List.filter (Bool.equal w) collected) in
  if 2 * count true > params.n then Value true
  else if 2 * count false > params.n then Value false
  else Null

let set_report s r i w =
  let reports = Array.map Array.copy s.reports in
  reports.(r - 1).(i) <- Some w;
  { s with reports }

let set_proposal s r i x =
  let proposals = Array.map Array.copy s.proposals in
  proposals.(r - 1).(i) <- Some x;
  { s with proposals }

let proc_steps params s =
  let step_for i p =
    if (not (alive_stage p.stage)) || p.b <= 0 then []
    else begin
      match p.stage with
      | To_report ->
        (* After broadcasting, the estimate is dead storage until the
           next round assigns it: canonicalize it away. *)
        let s' = set_report s p.round i p.v in
        let s' =
          reclock params s' i { p with v = false; stage = Sent_report }
        in
        [ { Core.Pa.action = Report i; dist = D.point s' } ]
      | Sent_report ->
        let row = s.reports.(p.round - 1) in
        if List.length (senders_of row) < params.n - params.f then []
        else
          List.map
            (fun subset ->
               let collected =
                 List.map (fun j -> Option.get row.(j)) subset
               in
               let x = majority_proposal params collected in
               let s' = set_proposal s p.round i x in
               let s' =
                 reclock params s' i
                   { p with v = false; stage = Sent_proposal }
               in
               { Core.Pa.action = Collect_reports (i, subset);
                 dist = D.point s' })
            (collections params row i)
      | Sent_proposal ->
        let row = s.proposals.(p.round - 1) in
        if List.length (senders_of row) < params.n - params.f then []
        else
          List.map
            (fun subset ->
               let collected =
                 List.map (fun j -> Option.get row.(j)) subset
               in
               let count w =
                 List.length
                   (List.filter (fun x -> x = Value w) collected)
               in
               let finish proc' =
                 if alive_stage proc'.stage then reclock params s i proc'
                 else set_proc s i proc'
               in
               let next_round v =
                 if p.round >= params.cap then canonical params p Capped
                 else
                   { p with v; round = p.round + 1; stage = To_report }
               in
               let dist =
                 if count true >= params.f + 1 then
                   D.point (finish (canonical params p (Decided true)))
                 else if count false >= params.f + 1 then
                   D.point (finish (canonical params p (Decided false)))
                 else if count true >= 1 then
                   D.point (finish (next_round true))
                 else if count false >= 1 then
                   D.point (finish (next_round false))
                 else
                   (* All proposals read were ?: flip the coin. *)
                   D.coin
                     (finish (next_round true))
                     (finish (next_round false))
               in
               { Core.Pa.action = Collect_proposals (i, subset); dist })
            (collections params row i)
      | Decided _ | Capped | Crashed -> []
    end
  in
  List.concat (List.mapi step_for (Array.to_list s.procs))

let enabled params s =
  tick_step params s @ crash_steps params s @ proc_steps params s

let pp_stage fmt = function
  | To_report -> Format.pp_print_string fmt "R!"
  | Sent_report -> Format.pp_print_string fmt "R?"
  | Sent_proposal -> Format.pp_print_string fmt "P?"
  | Decided w -> Format.fprintf fmt "D%d" (Bool.to_int w)
  | Capped -> Format.pp_print_string fmt "cap"
  | Crashed -> Format.pp_print_string fmt "x"

let pp_state fmt s =
  Array.iteri
    (fun i p ->
       if i > 0 then Format.pp_print_char fmt ' ';
       Format.fprintf fmt "%d:%a@r%d" (Bool.to_int p.v) pp_stage p.stage
         p.round)
    s.procs

let pp_action fmt = function
  | Tick -> Format.pp_print_string fmt "tick"
  | Crash i -> Format.fprintf fmt "crash_%d" i
  | Report i -> Format.fprintf fmt "report_%d" i
  | Collect_reports (i, from) ->
    Format.fprintf fmt "collectR_%d{%s}" i
      (String.concat "," (List.map string_of_int from))
  | Collect_proposals (i, from) ->
    Format.fprintf fmt "collectP_%d{%s}" i
      (String.concat "," (List.map string_of_int from))

let make ?initial params =
  if params.f < 0 || params.n <= 2 * params.f || params.cap < 1
     || params.g < 1 || params.k < 1 then
    invalid_arg "Ben_or: need n > 2f >= 0, cap >= 1, g >= 1, k >= 1";
  let values =
    match initial with
    | Some v -> v
    | None -> Array.make params.n false
  in
  (* The default [Hashtbl.hash] stops after 10 meaningful words, which
     leaves most of the report and proposal matrices unhashed; n = 3
     already collapses thousands of states onto a few hundred hashes. *)
  Core.Pa.make ~hash_state:(Hashtbl.hash_param 100 100) ~pp_state ~pp_action
    ~start:[ start params values ] ~enabled:(enabled params) ()
