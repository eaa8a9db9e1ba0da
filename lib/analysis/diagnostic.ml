type severity = Error | Warning | Info

type code =
  | PA000
  | PA001
  | PA002
  | PA003
  | PA010
  | PA011
  | PA012
  | PA020
  | PA021
  | PA030
  | PA031
  | PA032
  | PA033
  | CL001
  | CL002

type t = {
  code : code;
  severity : severity;
  model : string;
  message : string;
  witness : string option;
}

let v ?witness code severity ~model message =
  { code; severity; model; message; witness }

let code_name = function
  | PA000 -> "PA000"
  | PA001 -> "PA001"
  | PA002 -> "PA002"
  | PA003 -> "PA003"
  | PA010 -> "PA010"
  | PA011 -> "PA011"
  | PA012 -> "PA012"
  | PA020 -> "PA020"
  | PA021 -> "PA021"
  | PA030 -> "PA030"
  | PA031 -> "PA031"
  | PA032 -> "PA032"
  | PA033 -> "PA033"
  | CL001 -> "CL001"
  | CL002 -> "CL002"

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let compare_severity a b = compare (severity_rank a) (severity_rank b)
let is_error d = d.severity = Error

let cap ~limit ds =
  let n = List.length ds in
  if n <= limit then ds
  else
    let kept = List.filteri (fun i _ -> i < limit) ds in
    match kept with
    | [] -> []
    | d :: _ ->
      kept
      @ [ { code = d.code; severity = Info; model = d.model;
            message =
              Printf.sprintf "%d further %s diagnostic(s) suppressed"
                (n - limit) (code_name d.code);
            witness = None } ]

let pp fmt d =
  Format.fprintf fmt "@[<v 2>%s %s [%s]: %s" (code_name d.code)
    (severity_name d.severity) d.model d.message;
  (match d.witness with
   | None -> ()
   | Some w -> Format.fprintf fmt "@,witness: %s" w);
  Format.fprintf fmt "@]"

let to_json d =
  Json.Obj
    [ ("code", Json.Str (code_name d.code));
      ("severity", Json.Str (severity_name d.severity));
      ("model", Json.Str d.model);
      ("message", Json.Str d.message);
      ("witness",
       match d.witness with None -> Json.Null | Some w -> Json.Str w) ]
