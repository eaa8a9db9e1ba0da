type t = { max_states : int option; wall : float option }

let v ?max_states ?wall () = { max_states; wall }
let unlimited = v ()

let parse_wall s =
  let num text =
    match float_of_string_opt text with
    | Some f when f >= 0.0 -> Ok f
    | Some _ -> Error "wall budget must be nonnegative"
    | None -> Error (Printf.sprintf "cannot parse duration %S" s)
  in
  let scaled suffix factor =
    if String.length s > String.length suffix
    && Filename.check_suffix s suffix then
      Some
        (Result.map
           (fun f -> f *. factor)
           (num (String.sub s 0 (String.length s - String.length suffix))))
    else None
  in
  (* [ms] before [s]: check_suffix "30ms" "s" also holds. *)
  match scaled "ms" 0.001 with
  | Some r -> r
  | None ->
    (match scaled "s" 1.0 with
     | Some r -> r
     | None ->
       (match scaled "m" 60.0 with Some r -> r | None -> num s))

let of_string spec =
  let fields =
    List.filter (fun s -> s <> "") (String.split_on_char ',' spec)
  in
  if fields = [] then Error "empty budget specification"
  else
    let rec go acc = function
      | [] -> Ok acc
      | field :: rest ->
        (match String.index_opt field ':' with
         | None ->
           Error
             (Printf.sprintf
                "budget field %S is not of the form key:value (expected \
                 states:N or wall:SECONDS)"
                field)
         | Some i ->
           let key = String.sub field 0 i in
           let value =
             String.sub field (i + 1) (String.length field - i - 1)
           in
           (match key with
            | "states" ->
              (match int_of_string_opt value with
               | Some n when n > 0 ->
                 go { acc with max_states = Some n } rest
               | Some _ | None ->
                 Error
                   (Printf.sprintf "states budget %S is not a positive int"
                      value))
            | "wall" ->
              (match parse_wall value with
               | Ok w -> go { acc with wall = Some w } rest
               | Error e -> Error e)
            | other ->
              Error
                (Printf.sprintf
                   "unknown budget dimension %S (expected states or wall)"
                   other)))
    in
    go unlimited fields

let to_string b =
  let fields =
    List.filter_map Fun.id
      [ Option.map (Printf.sprintf "states:%d") b.max_states;
        Option.map (Printf.sprintf "wall:%gs") b.wall ]
  in
  match fields with [] -> "unlimited" | _ -> String.concat "," fields

let pp fmt b = Format.pp_print_string fmt (to_string b)

type clock = { b : t; started : float }

let now () = Unix.gettimeofday ()
let start b = { b; started = now () }
let elapsed c = now () -. c.started

let exhausted c =
  match c.b.wall with
  | Some w when elapsed c >= w ->
    Some
      (Printf.sprintf "wall budget of %.0f ms hit (%.0f ms elapsed)"
         (w *. 1000.) (elapsed c *. 1000.))
  | _ -> None

exception Deadline_exceeded of string

(* The ambient deadline is per-domain state: a domain sees it only once
   it is installed there, as [Parallel.Fork] does for its helpers. *)
let ambient : clock option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_deadline () = !(Domain.DLS.get ambient)
let set_deadline c = Domain.DLS.get ambient := c

(* When [c]'s wall allowance runs out; never without one. *)
let expiry c =
  match c.b.wall with Some w -> c.started +. w | None -> Float.infinity

let with_deadline c f =
  let cell = Domain.DLS.get ambient in
  let saved = !cell in
  (match saved with
   | Some outer when expiry outer <= expiry c -> ()
   | Some _ | None -> cell := Some c);
  Fun.protect ~finally:(fun () -> cell := saved) f

let expired_reason c =
  match c.b.wall with
  | Some w when elapsed c >= w ->
    Some
      (Printf.sprintf "wall deadline of %.0f ms exceeded (%.0f ms elapsed)"
         (w *. 1000.) (elapsed c *. 1000.))
  | _ -> None

let poll () =
  match current_deadline () with
  | None -> ()
  | Some c ->
    (match expired_reason c with
     | Some reason -> raise (Deadline_exceeded reason)
     | None -> ())
