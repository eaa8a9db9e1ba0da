(* The fixpoints below walk the arena's CSR rows directly:
   [step_off] gives each state's step range, [out_off] each step's
   branch range, and [tgt] the branch targets.  Probabilities are
   irrelevant here (only support membership matters), so no
   probability plane is read. *)

(* Does step [k] keep all its mass inside [s]? *)
let step_stays_in (a : _ Arena.t) s k =
  let rec go o =
    o >= a.Arena.out_off.(k + 1)
    || (s.(a.Arena.tgt.(o)) && go (o + 1))
  in
  go a.Arena.out_off.(k)

(* Does step [k] put positive mass on [s]? *)
let step_touches (a : _ Arena.t) s k =
  let rec go o =
    o < a.Arena.out_off.(k + 1)
    && (s.(a.Arena.tgt.(o)) || go (o + 1))
  in
  go a.Arena.out_off.(k)

let exists_step (a : _ Arena.t) i p =
  let rec go k = k < a.Arena.step_off.(i + 1) && (p k || go (k + 1)) in
  go a.Arena.step_off.(i)

let safe_core (a : _ Arena.t) ~avoid =
  let n = a.Arena.n in
  if Array.length avoid <> n then
    invalid_arg "Qualitative: avoid array has wrong length";
  let s = Array.copy avoid in
  (* Greatest fixpoint: repeatedly drop states with no step staying
     surely inside [s] (terminal states stay). *)
  let changed = ref true in
  while !changed do
    Core.Budget.poll ();
    changed := false;
    for i = 0 to n - 1 do
      if s.(i) then begin
        let ok =
          a.Arena.step_off.(i + 1) = a.Arena.step_off.(i)
          || exists_step a i (fun k -> step_stays_in a s k)
        in
        if not ok then begin
          s.(i) <- false;
          changed := true
        end
      end
    done
  done;
  s

let can_avoid (a : _ Arena.t) ~target =
  let n = a.Arena.n in
  if Array.length target <> n then
    invalid_arg "Qualitative: target array has wrong length";
  let avoid = Array.map not target in
  let core = safe_core a ~avoid in
  (* Least fixpoint: states (outside the target) from which some step
     has a positive-probability outcome already in the bad region. *)
  let bad = Array.copy core in
  let changed = ref true in
  while !changed do
    Core.Budget.poll ();
    changed := false;
    for i = 0 to n - 1 do
      if (not bad.(i)) && avoid.(i) then begin
        if exists_step a i (fun k -> step_touches a bad k) then begin
          bad.(i) <- true;
          changed := true
        end
      end
    done
  done;
  bad

let always_reaches a ~target = Array.map not (can_avoid a ~target)
