(* [operands] is [Some (p, q)] exactly for [union p q], so a consumer
   holding the sets of [p] and [q] can OR them instead of sweeping. *)
type 's t = {
  name : string;
  mem : 's -> bool;
  operands : ('s t * 's t) option;
}

let make name mem = { name; mem; operands = None }
let name p = p.name
let mem p s = p.mem s
let operands p = p.operands

let union p q =
  { name = Printf.sprintf "%s ∪ %s" p.name q.name;
    mem = (fun s -> p.mem s || q.mem s);
    operands = Some (p, q) }

let inter p q =
  make (Printf.sprintf "%s ∩ %s" p.name q.name) (fun s -> p.mem s && q.mem s)

let complement p = make (Printf.sprintf "¬%s" p.name) (fun s -> not (p.mem s))

let union_all = function
  | [] -> invalid_arg "Pred.union_all: empty list"
  | p :: ps -> List.fold_left union p ps

let same p q = String.equal p.name q.name

let pp fmt p = Format.pp_print_string fmt p.name
