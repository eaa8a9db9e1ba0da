module J = Analysis.Json

type model = Models.family

type check_query = {
  model : model;
  n : int;
  g : int;
  k : int;
  topology : string;
  bound : int;
  cap : int;
  max_states : int option;
  sym : string;
  plane : string;
  deadline_ms : int option;
}

type simulate_query = {
  sim_model : model;
  sim_n : int;
  scheduler : string;
  trials : int;
  seed : int;
  within : int option;
  sim_deadline_ms : int option;
}

type lint_query = {
  target : string;
  lint_max_states : int option;
  lint_sym : string;
  lint_deadline_ms : int option;
}

type query =
  | Check of check_query
  | Cert of check_query
  | Simulate of simulate_query
  | Lint of lint_query
  | Stats
  | Health of { sleep_ms : int }
  | Batch of query list

type error = { status : int; code : string; message : string }

let error ~status ~code message = { status; code; message }

let error_body e =
  J.to_string
    (J.Obj
       [ ( "error",
           J.Obj
             [ ("code", J.Str e.code); ("status", J.Int e.status);
               ("message", J.Str e.message) ] ) ])

(* ------------------------------------------------------------------ *)
(* Field extraction.

   Parameters arrive either as GET query pairs (strings) or as a POST
   JSON object; both normalize to a lookup function returning JSON
   values, so the typed readers below serve both forms. *)

exception Reject of error

let reject status code fmt =
  Printf.ksprintf (fun m -> raise (Reject (error ~status ~code m))) fmt

let fields_of_request (req : Http.request) =
  match req.Http.meth with
  | Http.GET -> fun name -> Option.map (fun v -> J.Str v) (List.assoc_opt name req.Http.query)
  | Http.POST ->
    if String.trim req.Http.body = "" then fun _ -> None
    else
      (match J.of_string req.Http.body with
       | Error msg -> reject 400 "SRV102" "malformed JSON body: %s" msg
       | Ok (J.Obj _ as obj) -> fun name -> J.member name obj
       | Ok _ -> reject 400 "SRV102" "request body must be a JSON object")
  | Http.Other m -> reject 405 "SRV101" "method %s is not allowed" m

let int_field fields name ~default =
  match fields name with
  | None -> default
  | Some (J.Int i) -> i
  | Some (J.Str s) ->
    (match int_of_string_opt (String.trim s) with
     | Some i -> i
     | None -> reject 400 "SRV103" "field %S must be an integer" name)
  | Some _ -> reject 400 "SRV103" "field %S must be an integer" name

let opt_int_field fields name =
  match fields name with
  | None | Some J.Null -> None
  | Some _ -> Some (int_field fields name ~default:0)

let str_field fields name ~default =
  match fields name with
  | None -> default
  | Some (J.Str s) -> s
  | Some _ -> reject 400 "SRV103" "field %S must be a string" name

let model_field fields =
  let name =
    String.lowercase_ascii
      (str_field fields "model" ~default:(Models.name Models.default))
  in
  match Models.of_name name with
  | Some model -> model
  | None -> reject 404 "SRV104" "unknown model %S" name

let positive name v =
  if v < 1 then reject 400 "SRV103" "field %S must be positive" name;
  v

(* A client deadline: positive milliseconds.  Deliberately NOT a
   canonical-key dimension -- a cached complete body trivially meets any
   deadline, and degraded (SRV122) bodies are never cached. *)
let deadline_field fields =
  Option.map (positive "deadline_ms") (opt_int_field fields "deadline_ms")

let sym_field fields =
  match String.lowercase_ascii (str_field fields "sym" ~default:"off") with
  | ("auto" | "on" | "off") as s -> s
  | other ->
    reject 400 "SRV103" "field \"sym\" must be auto, on or off (got %S)"
      other

(* Like [sym], the plane is a canonical cache-key dimension: its
   default is filled here so an explicit ["interval"] and an omitted
   field land on the same cache entry. *)
let plane_field fields =
  match String.lowercase_ascii (str_field fields "plane" ~default:"interval")
  with
  | ("interval" | "exact") as p -> p
  | other ->
    reject 400 "SRV103" "field \"plane\" must be interval or exact (got %S)"
      other

(* The family's own ranges (Models.invalid), checked once the fields
   parse, so an instance the automaton would refuse is a 400 here. *)
let in_range ?explored params =
  match Models.invalid ?explored params with
  | Some (field, problem) -> reject 400 "SRV103" "field %S %s" field problem
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Endpoint dispatch. *)

let params c =
  { Models.family = c.model; n = c.n; g = c.g; k = c.k;
    topology = c.topology; bound = c.bound; cap = c.cap }

let check_fields fields =
  let model = model_field fields in
  let q =
    { model;
      n = positive "n" (int_field fields "n" ~default:3);
      g = positive "g" (int_field fields "g" ~default:1);
      k = positive "k" (int_field fields "k" ~default:1);
      topology =
        String.lowercase_ascii (str_field fields "topology" ~default:"ring");
      bound = positive "bound" (int_field fields "bound" ~default:4);
      cap = positive "cap" (int_field fields "cap" ~default:2);
      max_states =
        Option.map (positive "max_states") (opt_int_field fields "max_states");
      sym = sym_field fields;
      plane = plane_field fields;
      deadline_ms = deadline_field fields
    }
  in
  in_range (params q);
  q

let parse_check fields = Check (check_fields fields)

(* Monte Carlo runs a family at [Models.sim_params], so a query naming
   a /check field is refused rather than answered for parameters it did
   not ask about. *)
let parse_simulate fields =
  List.iter
    (fun name ->
       if fields name <> None then
         reject 400 "SRV103" "field %S is not read by /simulate" name)
    [ "g"; "k"; "topology"; "bound"; "cap"; "max_states"; "sym"; "plane" ];
  let sim_model = model_field fields in
  let sim_n = positive "n" (int_field fields "n" ~default:8) in
  in_range ~explored:false (Models.sim_params sim_model ~n:sim_n);
  Simulate
    { sim_model;
      sim_n;
      scheduler = str_field fields "scheduler" ~default:"uniform";
      trials = positive "trials" (int_field fields "trials" ~default:2000);
      seed = int_field fields "seed" ~default:1994;
      within = Option.map (positive "within") (opt_int_field fields "within");
      sim_deadline_ms = deadline_field fields
    }

let parse_lint fields =
  Lint
    { target =
        str_field fields "target" ~default:(Models.name Models.default);
      lint_max_states =
        Option.map (positive "max_states") (opt_int_field fields "max_states");
      lint_sym = sym_field fields;
      lint_deadline_ms = deadline_field fields
    }

let parse_health fields =
  let sleep_ms = int_field fields "sleep_ms" ~default:0 in
  if sleep_ms < 0 || sleep_ms > 5000 then
    reject 400 "SRV103" "sleep_ms must be between 0 and 5000";
  Health { sleep_ms }

(* One /batch element: a JSON object with an ["endpoint"] selector
   (default [/check]) and that endpoint's usual fields.  Only compute
   endpoints batch -- /stats, /health and /batch itself are not
   batchable (the first two are probes, nesting is a loop). *)
let parse_batch_element item =
  let fields name = J.member name item in
  match
    String.lowercase_ascii (str_field fields "endpoint" ~default:"/check")
  with
  | "/check" | "check" -> parse_check fields
  | "/cert" | "cert" -> Cert (check_fields fields)
  | "/simulate" | "simulate" -> parse_simulate fields
  | "/lint" | "lint" -> parse_lint fields
  | other -> reject 400 "SRV103" "endpoint %S is not batchable" other

let max_batch = 64

let parse_batch (req : Http.request) fields =
  (match req.Http.meth with
   | Http.POST -> ()
   | Http.GET | Http.Other _ ->
     reject 405 "SRV101" "/batch requires POST");
  match fields "queries" with
  | None -> reject 400 "SRV103" "field \"queries\" is required"
  | Some (J.Arr []) ->
    reject 400 "SRV103" "field \"queries\" must not be empty"
  | Some (J.Arr items) ->
    if List.length items > max_batch then
      reject 400 "SRV103" "at most %d queries per batch" max_batch;
    Batch
      (List.mapi
         (fun i item ->
            match item with
            | J.Obj _ -> (
                try parse_batch_element item
                with Reject e ->
                  reject e.status e.code "query %d: %s" i e.message)
            | _ -> reject 400 "SRV103" "query %d: must be a JSON object" i)
         items)
  | Some _ -> reject 400 "SRV103" "field \"queries\" must be an array"

let of_request (req : Http.request) =
  try
    let fields = fields_of_request req in
    match req.Http.path with
    | "/check" -> Ok (parse_check fields)
    | "/cert" -> Ok (Cert (check_fields fields))
    | "/simulate" -> Ok (parse_simulate fields)
    | "/lint" -> Ok (parse_lint fields)
    | "/batch" -> Ok (parse_batch req fields)
    | "/stats" -> Ok Stats
    | "/health" | "/" -> Ok (parse_health fields)
    | other -> reject 404 "SRV100" "unknown endpoint %S" other
  with Reject e -> Error e

(* ------------------------------------------------------------------ *)
(* Canonical keys.

   Every dimension the computation reads appears in the key with its
   default filled in, and ceilings the server clamps ([max_states],
   [trials]) are stored {e post-clamp}: a query spelling the server
   default explicitly, one omitting it, and one asking beyond the
   server's cap all compute the same body and now share one cache
   entry. *)

let opt_int = function None -> "" | Some i -> string_of_int i

(* The effective ceiling: the client's ask clamped to the server's cap,
   the cap itself when the client is silent.  With no server cap the
   client value (or the empty default) passes through. *)
let clamped ceiling client =
  match ceiling, client with
  | None, c -> opt_int c
  | Some cap, None -> string_of_int cap
  | Some cap, Some c -> string_of_int (Stdlib.min cap c)

let check_key ~endpoint ?max_states c =
  Printf.sprintf
    "%s?model=%s&n=%d&g=%d&k=%d&topology=%s&bound=%d&cap=%d\
     &max_states=%s&sym=%s&plane=%s"
    endpoint (Models.name c.model) c.n c.g c.k c.topology c.bound c.cap
    (clamped max_states c.max_states) c.sym c.plane

let canonical_key ?max_states ?max_trials = function
  | Check c -> Some (check_key ~endpoint:"check" ?max_states c)
  | Cert c -> Some (check_key ~endpoint:"cert" ?max_states c)
  | Simulate s ->
    let trials =
      match max_trials with
      | None -> s.trials
      | Some cap -> Stdlib.min cap s.trials
    in
    Some
      (Printf.sprintf
         "simulate?model=%s&n=%d&scheduler=%s&trials=%d&seed=%d&within=%s"
         (Models.name s.sim_model) s.sim_n s.scheduler trials s.seed
         (opt_int s.within))
  | Lint l ->
    Some
      (Printf.sprintf "lint?target=%s&max_states=%s&sym=%s" l.target
         (clamped max_states l.lint_max_states) l.lint_sym)
  (* A batch is a container, not a computation: its elements each have
     a canonical key and cache individually inside the Service; the
     envelope itself is never cached. *)
  | Batch _ | Stats | Health _ -> None
