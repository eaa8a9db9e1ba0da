(* Fork-join without a standing pool: one [Atomic] hands out task
   indices in order, results land in per-index slots, and joining every
   helper makes their writes visible to the caller. *)

let inline : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let mark_inline () = Domain.DLS.set inline true

let helper_count helpers =
  if Domain.DLS.get inline then 0
  else
    match helpers with
    | Some h -> h
    | None -> Domain.recommended_domain_count () - 1

(* Spawn [k] helpers running [work], each handed the caller's deadline.
   A refused spawn (the runtime's domain limit) only means fewer
   helpers: the caller does whatever is left. *)
let spawn k work =
  let deadline = Core.Budget.current_deadline () in
  let helper () =
    mark_inline ();
    Core.Budget.set_deadline deadline;
    work ()
  in
  let rec go acc k =
    if k <= 0 then acc
    else
      match Domain.spawn helper with
      | d -> go (d :: acc) (k - 1)
      | exception _ -> acc
  in
  go [] k

let attempt f =
  match f () with
  | v -> Ok v
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

let get = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

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
        let r = attempt tasks.(i) in
        if Result.is_error r then Atomic.set failed true;
        slots.(i) <- Some r;
        drain ()
      end
    end
  in
  let spawned = spawn (Int.min (n - 1) (helper_count helpers)) drain in
  drain ();
  List.iter Domain.join spawned;
  Array.map
    (function
      | Some r -> get r
      | None -> assert false (* only after a failing slot *))
    slots

(* The producer's progress: [running] while it may still publish, then
   how it ended.  Every [publish] happens before the switch away from
   [running], so a consumer that reads the phase first and the count
   second sees the final count once production has ended. *)
let running = 0 and produced = 1 and aborted = 2

let stream ?helpers ~chunk produce consume =
  if chunk < 1 then invalid_arg "Fork.stream: chunk must be positive";
  let published = Atomic.make 0 and phase = Atomic.make running in
  let next = Atomic.make 0 and failed = Atomic.make false in
  (* The end of chunk [lo, lo + chunk) once it is ready -- the whole
     chunk, or the published tail when production has ended -- and
     [None] when there is no such chunk or the producer failed. *)
  let rec ready lo =
    let ph = Atomic.get phase in
    let p = Atomic.get published in
    if ph = aborted then None
    else if p >= lo + chunk then Some (lo + chunk)
    else if ph = produced then (if p > lo then Some p else None)
    else begin
      Core.Budget.poll ();
      Domain.cpu_relax ();
      ready lo
    end
  in
  (* A claimed chunk is always consumed, even after another chunk has
     failed, so every chunk below a failing one has run; only new claims
     stop.  Results are kept by chunk index on the domain that made
     them. *)
  let rec drain acc =
    if Atomic.get failed then acc
    else begin
      let c = Atomic.fetch_and_add next 1 in
      let lo = c * chunk in
      match attempt (fun () -> ready lo) with
      | Ok None -> acc
      | Ok (Some hi) ->
        let r = attempt (fun () -> consume lo hi) in
        if Result.is_error r then Atomic.set failed true;
        drain ((c, r) :: acc)
      | Error err ->
        Atomic.set failed true;
        (c, Error err) :: acc
    end
  in
  let spawned = spawn (helper_count helpers) (fun () -> drain []) in
  let p =
    attempt (fun () ->
        produce ~publish:(fun k -> Atomic.set published k))
  in
  Atomic.set phase (if Result.is_ok p then produced else aborted);
  let mine = if Result.is_ok p then drain [] else [] in
  let results = List.concat (mine :: List.map Domain.join spawned) in
  let p = get p in
  (* The lowest failing chunk wins; without one every chunk below the
     final count was consumed exactly once. *)
  let lowest =
    List.fold_left
      (fun best (c, r) ->
         match (r, best) with
         | Error _, Some (c', _) when c' < c -> best
         | Error err, _ -> Some (c, err)
         | Ok _, _ -> best)
      None results
  in
  (match lowest with
   | Some (_, (e, bt)) -> Printexc.raise_with_backtrace e bt
   | None -> ());
  let slots = Array.make ((Atomic.get published + chunk - 1) / chunk) None in
  List.iter (fun (c, r) -> slots.(c) <- Some (get r)) results;
  (p, Array.map (function Some v -> v | None -> assert false) slots)
