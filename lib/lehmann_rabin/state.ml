type side = L | R

let opp = function L -> R | R -> L

type region =
  | Rem
  | Flip
  | Wait of side
  | Second of side
  | Drop of side
  | Pre
  | Crit
  | Exit_f
  | Exit_s of side
  | Exit_r

type proc = { region : region; c : int; b : int }

type t = {
  procs : proc array;
  res : bool array;
}

let ready = function
  | Flip | Wait _ | Second _ | Drop _ | Pre | Exit_f | Exit_s _ | Exit_r ->
    true
  | Rem | Crit -> false

(* Process i's right resource is Res i; its left one is Res (i-1). *)
let resource_index ~n i side =
  match side with
  | R -> i
  | L -> (i + n - 1) mod n

let holds region side =
  match region, side with
  | (Second u | Drop u | Exit_s u), _ -> u = side
  | (Pre | Crit | Exit_f), _ -> true
  | (Rem | Flip | Wait _ | Exit_r), _ -> false

let initial ~n ~g ~k =
  if n < 2 then invalid_arg "Lehmann_rabin: need at least 2 processes";
  if g < 1 then invalid_arg "Lehmann_rabin: granularity must be >= 1";
  if k < 1 then invalid_arg "Lehmann_rabin: step budget must be >= 1";
  { procs = Array.make n { region = Rem; c = g; b = k };
    res = Array.make n false }

let all_trying ~n ~g ~k =
  let s = initial ~n ~g ~k in
  { s with procs = Array.make n { region = Flip; c = g; b = k } }

let initial_general ~num_procs ~num_resources ~g ~k =
  if num_procs < 2 then
    invalid_arg "Lehmann_rabin: need at least 2 processes";
  if g < 1 then invalid_arg "Lehmann_rabin: granularity must be >= 1";
  if k < 1 then invalid_arg "Lehmann_rabin: step budget must be >= 1";
  { procs = Array.make num_procs { region = Rem; c = g; b = k };
    res = Array.make num_resources false }

let num_procs s = Array.length s.procs

let side_arrow = function L -> "←" | R -> "→"

let pp_region fmt = function
  | Rem -> Format.pp_print_string fmt "R"
  | Flip -> Format.pp_print_string fmt "F"
  | Wait u -> Format.fprintf fmt "W%s" (side_arrow u)
  | Second u -> Format.fprintf fmt "S%s" (side_arrow u)
  | Drop u -> Format.fprintf fmt "D%s" (side_arrow u)
  | Pre -> Format.pp_print_string fmt "P"
  | Crit -> Format.pp_print_string fmt "C"
  | Exit_f -> Format.pp_print_string fmt "EF"
  | Exit_s u -> Format.fprintf fmt "ES%s" (side_arrow u)
  | Exit_r -> Format.pp_print_string fmt "ER"

let pp fmt s =
  Format.fprintf fmt "@[<h>[";
  Array.iteri
    (fun i p ->
       if i > 0 then Format.fprintf fmt " ";
       Format.fprintf fmt "%a(c%d,b%d)" pp_region p.region p.c p.b)
    s.procs;
  Format.fprintf fmt " |";
  Array.iter (fun taken -> Format.fprintf fmt " %s" (if taken then "t" else "f"))
    s.res;
  Format.fprintf fmt "]@]"

(* The same relation as structural [=], without its generic walk:
   states permuted from one another share their [proc] records, so most
   comparisons settle on physical equality. *)
let equal_region a b =
  a == b
  ||
  match a, b with
  | Wait u, Wait v | Second u, Second v | Drop u, Drop v
  | Exit_s u, Exit_s v ->
    u = v
  | _ -> false

let equal_proc p q =
  p == q || (p.c = q.c && p.b = q.b && equal_region p.region q.region)

let equal a b =
  let rec procs i =
    i < 0 || (equal_proc a.procs.(i) b.procs.(i) && procs (i - 1))
  in
  let rec res i = i < 0 || (a.res.(i) = b.res.(i) && res (i - 1)) in
  a == b
  || Array.length a.procs = Array.length b.procs
     && Array.length a.res = Array.length b.res
     && procs (Array.length a.procs - 1)
     && res (Array.length a.res - 1)

let hash s = Hashtbl.hash_param 200 200 s
