(* Probability-plane selection for the certifying engines.

   [Interval] (the default) sweeps the outward-rounded interval plane
   first and re-derives exact rationals only for residue states;
   [Exact] is the escape hatch that forces the legacy pure-exact
   sweeps.  Both planes produce bit-identical verdicts and bounds —
   the interval pass is an oracle, never an answer — so the choice is
   purely about speed.

   The default and the skip counters are process-global [Atomic]s:
   engines run inside the server's worker domains and the server
   mutates the default from the control domain. *)

type t = Exact | Interval

let to_string = function Exact -> "exact" | Interval -> "interval"

let default = Atomic.make Interval
let set_default m = Atomic.set default m

(* Per-domain ambient override, for callers that must scope a plane to
   one request instead of mutating the process default ([prtb serve]
   workers answering a [plane=...] wire field).  Domain-local so
   concurrent requests with different planes cannot race each other's
   choice. *)
let ambient : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_ambient p f =
  let cell = Domain.DLS.get ambient in
  let saved = !cell in
  cell := Some p;
  Fun.protect ~finally:(fun () -> cell := saved) f

let get_default () =
  match !(Domain.DLS.get ambient) with
  | Some p -> p
  | None -> Atomic.get default

let resolve = function Some m -> m | None -> get_default ()

(* ------------------------------------------------------------------ *)
(* Interval-pass statistics (surfaced by [prtb check --stats]). *)

type stats = {
  interval_passes : int;
  point_states : int;
  residue_states : int;
  exact_fallbacks : int;
}

let interval_passes = Atomic.make 0
let point_states = Atomic.make 0
let residue_states = Atomic.make 0
let exact_fallbacks = Atomic.make 0

let record_pass ~points ~residue =
  ignore (Atomic.fetch_and_add interval_passes 1);
  ignore (Atomic.fetch_and_add point_states points);
  ignore (Atomic.fetch_and_add residue_states residue)

let record_fallback () = ignore (Atomic.fetch_and_add exact_fallbacks 1)

let reset_stats () =
  Atomic.set interval_passes 0;
  Atomic.set point_states 0;
  Atomic.set residue_states 0;
  Atomic.set exact_fallbacks 0

let stats () =
  {
    interval_passes = Atomic.get interval_passes;
    point_states = Atomic.get point_states;
    residue_states = Atomic.get residue_states;
    exact_fallbacks = Atomic.get exact_fallbacks;
  }

(* When no engine consulted the interval plane at all (support-only
   runs such as [Qualitative] fixpoints, or --plane exact), printing
   zero counters reads as "the interval oracle decided everything with
   nothing left over"; report n/a instead so the two situations are
   distinguishable from the --stats output alone. *)
let pp_stats fmt s =
  if s.interval_passes = 0 && s.exact_fallbacks = 0 then
    Format.fprintf fmt
      "plane: interval passes: n/a (no engine consulted the interval \
       plane in this run)"
  else begin
    let total = s.point_states + s.residue_states in
    let residue_pct =
      if total = 0 then 0.0
      else 100.0 *. float_of_int s.residue_states /. float_of_int total
    in
    Format.fprintf fmt
      "plane: interval passes: %d, point states: %d, residue states: %d \
       (%.2f%%), exact fallbacks: %d"
      s.interval_passes s.point_states s.residue_states residue_pct
      s.exact_fallbacks
  end
