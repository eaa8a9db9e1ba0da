(* Fork-join without a standing pool: one [Atomic] hands out task
   indices in order, results land in per-index slots, and joining every
   helper makes their writes visible to the caller. *)

let inline : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let mark_inline () = Domain.DLS.set inline true

let run ?helpers tasks =
  let n = Array.length tasks in
  let slots = Array.make n None in
  let next = Atomic.make 0 and failed = Atomic.make false in
  (* Once a task has failed no further task starts: every unclaimed
     index is above the failing one, so it cannot change which
     exception wins. *)
  let rec drain () =
    if not (Atomic.get failed) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (slots.(i) <-
           match tasks.(i) () with
           | v -> Some (Ok v)
           | exception e ->
             let bt = Printexc.get_raw_backtrace () in
             Atomic.set failed true;
             Some (Error (e, bt)));
        drain ()
      end
    end
  in
  let wanted =
    if Domain.DLS.get inline then 0
    else
      Int.min (n - 1)
        (match helpers with
         | Some h -> h
         | None -> Domain.recommended_domain_count () - 1)
  in
  let deadline = Core.Budget.current_deadline () in
  let helper () =
    mark_inline ();
    Core.Budget.set_deadline deadline;
    drain ()
  in
  (* A refused spawn (the runtime's domain limit) only means fewer
     helpers: the caller drains whatever is left. *)
  let rec spawn acc k =
    if k <= 0 then acc
    else
      match Domain.spawn helper with
      | d -> spawn (d :: acc) (k - 1)
      | exception _ -> acc
  in
  let spawned = spawn [] wanted in
  drain ();
  List.iter Domain.join spawned;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false (* only after a failing slot *))
    slots
