(* The probability-plane label: validated, recorded and keyed on, but
   no engine branches on it (see plane.mli). *)

type t = Exact | Interval

let to_string = function Exact -> "exact" | Interval -> "interval"

let with_ambient _ f = f ()

type stats = {
  point_states : int;
  residue_states : int;
  exact_fallbacks : int;
}

let stats () = { point_states = 0; residue_states = 0; exact_fallbacks = 0 }
