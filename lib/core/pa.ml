type ('s, 'a) step = { action : 'a; dist : 's Proba.Dist.t }

type ('s, 'a) t = {
  start : 's list;
  enabled : 's -> ('s, 'a) step list;
  equal_state : 's -> 's -> bool;
  hash_state : 's -> int;
  equal_action : 'a -> 'a -> bool;
  is_external : 'a -> bool;
  pp_state : Format.formatter -> 's -> unit;
  pp_action : Format.formatter -> 'a -> unit;
}

let default_pp fmt _ = Format.pp_print_string fmt "<abstr>"

let make ?(equal_state = ( = )) ?(hash_state = Hashtbl.hash)
    ?(equal_action = ( = )) ?(is_external = fun _ -> true)
    ?(pp_state = default_pp) ?(pp_action = default_pp) ~start ~enabled () =
  if start = [] then invalid_arg "Pa.make: no start states";
  { start; enabled; equal_state; hash_state; equal_action; is_external;
    pp_state; pp_action }

let start m = m.start
let enabled m s = m.enabled s
let equal_state m = m.equal_state
let hash_state m = m.hash_state
let equal_action m = m.equal_action
let is_external m = m.is_external
let pp_state m = m.pp_state
let pp_action m = m.pp_action

let is_terminal m s = m.enabled s = []
let is_deterministic_at m s = List.length (m.enabled s) <= 1
