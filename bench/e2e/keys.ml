(* One benchmark query: an endpoint and the full parameter tuple, with
   every default spelled out, so that one value names one body. *)

type endpoint = Check | Cert

type t = {
  endpoint : endpoint;
  model : string;
  n : int;
  g : int;
  k : int;
  topology : string;
  bound : int;
  cap : int;
  sym : string;
  plane : string;
}

let v ?(endpoint = Check) ?(g = 1) ?(k = 1) ?(topology = "ring") ?(bound = 4)
    ?(cap = 2) ?(sym = "off") ?(plane = "interval") model n =
  { endpoint; model; n; g; k; topology; bound; cap; sym; plane }

let endpoint_name = function Check -> "check" | Cert -> "cert"

let to_string q =
  Printf.sprintf
    "%s model=%s n=%d g=%d k=%d topology=%s bound=%d cap=%d sym=%s plane=%s"
    (endpoint_name q.endpoint) q.model q.n q.g q.k q.topology q.bound q.cap
    q.sym q.plane

(* The registry instance a query needs: plane and endpoint do not
   enter it, so /check and /cert on either plane share one build. *)
let instance q =
  Printf.sprintf "%s n=%d g=%d k=%d topology=%s bound=%d cap=%d sym=%s"
    q.model q.n q.g q.k q.topology q.bound q.cap q.sym

let cli_args q =
  [ "check"; q.model; "-n"; string_of_int q.n; "-g"; string_of_int q.g;
    "-k"; string_of_int q.k ]
  @ (if q.model = "lr" then [ "--topology"; q.topology ] else [])
  @ [ "--bound"; string_of_int q.bound; "--cap"; string_of_int q.cap;
      "--sym"; q.sym; "--plane"; q.plane ]
  @ (match q.endpoint with
      | Check -> [ "--format"; "json" ]
      | Cert -> [ "--emit-cert" ])

let fields q =
  [ ("model", q.model); ("n", string_of_int q.n); ("g", string_of_int q.g);
    ("k", string_of_int q.k); ("topology", q.topology);
    ("bound", string_of_int q.bound); ("cap", string_of_int q.cap);
    ("sym", q.sym); ("plane", q.plane) ]

let target q =
  "/" ^ endpoint_name q.endpoint ^ "?"
  ^ String.concat "&" (List.map (fun (f, v) -> f ^ "=" ^ v) (fields q))

let batch_element q =
  let module J = Analysis.Json in
  J.Obj
    (("endpoint", J.Str ("/" ^ endpoint_name q.endpoint))
     :: List.map
          (fun (f, v) ->
             (f, match int_of_string_opt v with Some i -> J.Int i | None -> J.Str v))
          (fields q))

let protocol q =
  let model =
    match q.model with
    | "lr" -> `Lr
    | "election" -> `Election
    | "coin" -> `Coin
    | "consensus" -> `Consensus
    | other -> invalid_arg ("Keys.protocol: unknown model " ^ other)
  in
  { Server.Protocol.model; n = q.n; g = q.g; k = q.k; topology = q.topology;
    bound = q.bound; cap = q.cap; max_states = None; sym = q.sym;
    plane = q.plane; deadline_ms = None }

(* ------------------------------------------------------------------ *)
(* The workloads' query sets. *)

let cert q = { q with endpoint = Cert }
let on_off f = [ f "off"; f "on" ]
let planes f = [ f "interval"; f "exact" ]

(* The everyday paper-sized checks, spread over every family, topology,
   plane and symmetry mode, plus four certificates. *)
let cli_small =
  List.concat_map
    (fun topology ->
       List.concat_map
         (fun plane -> on_off (fun sym -> v ~topology ~plane ~sym "lr" 3))
         [ "interval"; "exact" ])
    [ "ring"; "star" ]
  @ planes (fun plane -> v ~topology:"line" ~plane "lr" 3)
  @ List.concat_map (fun n -> on_off (fun sym -> v ~sym "election" n)) [ 4; 5; 6 ]
  @ List.map (fun (n, bound) -> v ~bound "coin" n) [ (2, 2); (2, 4); (2, 8); (3, 3) ]
  @ List.concat_map
      (fun plane -> on_off (fun sym -> v ~plane ~sym "consensus" 3))
      [ "interval"; "exact" ]
  @ List.map cert
      [ v "lr" 3; v "election" 5; v ~bound:3 "coin" 3; v "consensus" 3 ]

(* The largest exact check the repository supports: the 40,846-state
   orbit quotient of the n=4 ring. *)
let lr4 = v ~sym:"on" "lr" 4

(* serve-hot's working set: six /check and six /cert bodies over seven
   instances, cheap to warm and all answered from the result cache. *)
let hot_check =
  [ v "lr" 3; v ~plane:"exact" "lr" 3; v ~topology:"star" ~sym:"on" "lr" 3;
    v "election" 5; v "coin" 2; v ~bound:3 "coin" 3 ]

let hot_cert =
  List.map cert
    [ v "lr" 3; v ~topology:"star" ~sym:"on" "lr" 3; v "election" 5;
      v "election" 6; v ~bound:3 "coin" 3; v ~bound:2 "coin" 2 ]

(* serve-sweep adds mid-size instances, each asked for its /check and
   its /cert: three that the daemon preloads from snapshots and one it
   explores.  Their unreduced twins are left out: at 1-2 s each they
   would stretch a sweep past the 5-second window. *)
let sweep_extra =
  List.concat_map
    (fun q -> [ q; cert q ])
    [ v ~g:2 ~sym:"on" "lr" 3; v ~topology:"star" ~g:2 ~sym:"on" "lr" 3;
      v ~sym:"on" "election" 7; v ~k:2 ~sym:"on" "lr" 3 ]

let sweep = cli_small @ sweep_extra

(* The instances serve-sweep's daemon preloads from `prtb compile`
   snapshots, as (instance-defining query, snapshot file name). *)
let snapshots =
  [ (v ~g:2 ~sym:"on" "lr" 3, "lr3-g2-sym.prtba");
    (v ~topology:"star" ~g:2 ~sym:"on" "lr" 3, "lr3-star-g2-sym.prtba");
    (v ~sym:"on" "election" 7, "election7-sym.prtba") ]

let compile_args q ~output =
  [ "compile"; q.model; "-n"; string_of_int q.n; "-g"; string_of_int q.g;
    "-k"; string_of_int q.k ]
  @ (if q.model = "lr" then [ "--topology"; q.topology ] else [])
  @ [ "--bound"; string_of_int q.bound; "--cap"; string_of_int q.cap;
      "--sym"; q.sym; "-o"; output ]

let universe =
  List.sort_uniq compare (cli_small @ (lr4 :: hot_check) @ hot_cert @ sweep)

let find s = List.find_opt (fun q -> to_string q = s) universe
