module J = Analysis.Json

type span = {
  pid : int;
  tid : int;
  id : int;
  parent : int;
  name : string;
  start_ns : int;
  dur_ns : int;
}

type t = {
  owner : int;
  mutable recorded : span list;
  mutable next_id : int;
  mutable stack : int list;
  mu : Mutex.t;
}

let create ?(pid = 0) () =
  { owner = pid; recorded = []; next_id = 0; stack = []; mu = Mutex.create () }

let fresh t =
  Mutex.protect t.mu (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      id)

let record t s = Mutex.protect t.mu (fun () -> t.recorded <- s :: t.recorded)
let current t = match t.stack with id :: _ -> id | [] -> -1

let with_span t name f =
  let id = fresh t in
  let parent = current t in
  t.stack <- id :: t.stack;
  let start_ns = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let dur_ns = Clock.now_ns () - start_ns in
      t.stack <- List.tl t.stack;
      record t { pid = t.owner; tid = 0; id; parent; name; start_ns; dur_ns })
    f

let add t ?(tid = 0) ~parent ~name ~start_ns ~dur_ns () =
  let id = fresh t in
  record t { pid = t.owner; tid; id; parent; name; start_ns; dur_ns };
  id

let spans t = Mutex.protect t.mu (fun () -> List.rev t.recorded)

(* Length of the union of [lo, hi) intervals. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (lo, hi) ->
         match cur with
         | None -> (total, Some (lo, hi))
         | Some (clo, chi) when lo <= chi -> (total, Some (clo, Int.max chi hi))
         | Some (clo, chi) -> (total + (chi - clo), Some (lo, hi)))
      (0, None) sorted
  in
  match last with None -> total | Some (lo, hi) -> total + (hi - lo)

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children (s.pid, s.parent) s) spans;
  List.map
    (fun s ->
       let lo = s.start_ns and hi = s.start_ns + s.dur_ns in
       let covered =
         union_length
           (List.filter_map
              (fun c ->
                 let clo = Int.max lo c.start_ns
                 and chi = Int.min hi (c.start_ns + c.dur_ns) in
                 if chi > clo then Some (clo, chi) else None)
              (Hashtbl.find_all children (s.pid, s.id)))
       in
       (s, s.dur_ns - covered))
    spans

let coverage spans =
  List.filter_map
    (fun (s, self) ->
       if s.parent <> -1 then None
       else if s.dur_ns <= 0 then Some (s, 1.)
       else Some (s, 1. -. (float_of_int self /. float_of_int s.dur_ns)))
    (self_times spans)

let self_by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
       let prev = Option.value (Hashtbl.find_opt tbl s.name) ~default:0 in
       Hashtbl.replace tbl s.name (prev + self))
    (self_times spans);
  tbl

let us ns = J.Num (float_of_int ns /. 1000.)

let to_json ?base_ns spans =
  let base =
    match base_ns with
    | Some b -> b
    | None -> List.fold_left (fun m s -> Int.min m s.start_ns) max_int spans
  in
  J.Obj
    [ ( "traceEvents",
        J.Arr
          (List.map
             (fun s ->
                J.Obj
                  [ ("name", J.Str s.name); ("ph", J.Str "X");
                    ("ts", us (s.start_ns - base)); ("dur", us s.dur_ns);
                    ("pid", J.Int s.pid); ("tid", J.Int s.tid);
                    ( "args",
                      J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent) ]
                    ) ])
             spans) );
      ("displayTimeUnit", J.Str "ms") ]

let of_json json =
  let ( let* ) = Result.bind in
  let field name j =
    match J.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "trace event without %S" name)
  in
  let int name j =
    let* v = field name j in
    match v with
    | J.Int i -> Ok i
    | _ -> Error (Printf.sprintf "trace event field %S is not an integer" name)
  in
  let ns name j =
    let* v = field name j in
    match J.to_float_opt v with
    | Some f -> Ok (int_of_float (Float.round (f *. 1000.)))
    | None -> Error (Printf.sprintf "trace event field %S is not a number" name)
  in
  let event j =
    let* name =
      match J.member "name" j with
      | Some (J.Str s) -> Ok s
      | _ -> Error "trace event without a name"
    in
    let* () =
      match J.member "ph" j with
      | Some (J.Str "X") -> Ok ()
      | _ -> Error (Printf.sprintf "trace event %S is not a complete event" name)
    in
    let* start_ns = ns "ts" j in
    let* dur_ns = ns "dur" j in
    let* pid = int "pid" j in
    let* tid = int "tid" j in
    let* args = field "args" j in
    let* id = int "id" args in
    let* parent = int "parent" args in
    Ok { pid; tid; id; parent; name; start_ns; dur_ns }
  in
  let events =
    match json with
    | J.Arr evs -> Ok evs
    | J.Obj _ -> (
        match J.member "traceEvents" json with
        | Some (J.Arr evs) -> Ok evs
        | _ -> Error "no traceEvents array")
    | _ -> Error "a trace is an object or an array"
  in
  let* events = events in
  List.fold_right
    (fun j acc ->
       let* rest = acc in
       let* s = event j in
       Ok (s :: rest))
    events (Ok [])
