module Sym = Analysis.Symmetry

type config = {
  model : string;
  n : int;
  g : int;
  k : int;
  topology : string;
  bound : int;
  cap : int;
  f : int;
  initial : bool array;
  sym : Sym.mode;
}

type loaded = Models.instance =
  | Lr of Lehmann_rabin.Proof.instance
  | Lr_topo of Lehmann_rabin.Proof.topo_instance
  | Election of Itai_rodeh.Proof.instance
  | Coin of Shared_coin.Proof.instance
  | Consensus of Ben_or.Proof.instance

let config_of ~sym p =
  let { Models.params = q; f; initial } = Models.normalize p in
  { model = Models.name q.family; n = q.n; g = q.g; k = q.k;
    topology = q.topology; bound = q.bound; cap = q.cap; f; initial; sym }

(* A field a model does not read holds its neutral value (see the
   interface), so printing the non-neutral ones describes any model. *)
let describe c loaded =
  let extra =
    (if c.topology <> "ring" then Printf.sprintf " topology=%s" c.topology
     else "")
    ^ (if c.bound <> 0 then Printf.sprintf " bound=%d" c.bound else "")
    ^
    if c.cap <> 0 || c.initial <> [||] then
      Printf.sprintf " f=%d cap=%d initial=%s" c.f c.cap
        (Codec.bools_to_string c.initial)
    else ""
  in
  let (Models.View v) = Models.view loaded in
  Printf.sprintf "%s n=%d g=%d k=%d%s sym=%s (%d states)" c.model c.n c.g
    c.k extra
    (Sym.mode_to_string c.sym)
    (Mdp.Arena.num_states v.arena)

(* ------------------------------------------------------------------ *)
(* Encoding. *)

(* The config section's fields, by name. *)
let config_fields c =
  let int = string_of_int in
  [ ("model", c.model); ("n", int c.n); ("g", int c.g); ("k", int c.k);
    ("topology", c.topology); ("bound", int c.bound); ("cap", int c.cap);
    ("f", int c.f); ("initial", Codec.bools_to_string c.initial);
    ("sym", Sym.mode_to_string c.sym) ]

let config_payload c = Codec.strs_to_string (List.map snd (config_fields c))

(* The arena's own arrays, the interned states of its fragment and the
   symmetry certificate, each as a named section.  States and actions
   are pure data in every case study (records, variants and arrays of
   both -- no closures), so [Marshal] round-trips them exactly; the
   container digest seals the blobs, so [Marshal.from_string] only ever
   sees bytes this module wrote. *)
let arena_sections (type s a) (arena : (s, a) Mdp.Arena.t)
    (cert : Sym.certificate option) =
  let expl = Mdp.Arena.explored arena in
  let n = Mdp.Arena.num_states arena in
  let states = Array.init n (Mdp.Explore.state expl) in
  [ ("fingerprint", Mdp.Arena.fingerprint arena);
    ( "counts",
      Codec.ints_to_string [| n; Mdp.Arena.num_expanded arena |] );
    ( "starts",
      Codec.ints_to_string
        (Array.of_list (Mdp.Arena.start_indices arena)) );
    ("step_off", Codec.ints_to_string arena.Mdp.Arena.step_off);
    ("out_off", Codec.ints_to_string arena.Mdp.Arena.out_off);
    ("tgt", Codec.ints_to_string arena.Mdp.Arena.tgt);
    ("tick", Codec.bools_to_string arena.Mdp.Arena.tick);
    ("prob_q", Codec.rats_to_string arena.Mdp.Arena.prob_q);
    ("actions", Marshal.to_string arena.Mdp.Arena.actions []);
    ("states", Marshal.to_string states []);
    ( "sym",
      match cert with
      | None -> ""
      | Some c -> Marshal.to_string (c : Sym.certificate) [] ) ]

let encode c loaded =
  let model = Models.name (Models.family_of loaded) in
  if c.model <> model then
    invalid_arg
      (Printf.sprintf "Snapshot.Store.encode: config says %S, got a %s \
                       instance" c.model model);
  let (Models.View v) = Models.view loaded in
  Codec.encode (("config", config_payload c) :: arena_sections v.arena v.cert)

let save ~path c loaded =
  let bytes = encode c loaded in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  try
    output_string oc bytes;
    close_out oc;
    Sys.rename tmp path
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* Decoding. *)

exception Refuse of string

let refuse fmt = Printf.ksprintf (fun s -> raise (Refuse s)) fmt

(* Sections are spans of the loaded bytes: every reader parses in
   place, and only the small ones (config, fingerprint) are copied. *)
let section sections name =
  match List.assoc_opt name sections with
  | Some payload -> payload
  | None -> refuse "snapshot is missing section %S" name

let parsed of_span sections name =
  match of_span (section sections name) with
  | Ok v -> v
  | Error e -> refuse "snapshot section %S: %s" name e

let int_of what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> refuse "snapshot config: bad %s %S" what s

let config_of_sections sections =
  match Codec.strs_of_string (Codec.span_to_string (section sections "config"))
  with
  | Error e -> refuse "snapshot section \"config\": %s" e
  | Ok [ model; n; g; k; topology; bound; cap; f; initial_s; sym_s ] ->
    let initial =
      match Codec.bools_of_string initial_s with
      | Ok a -> a
      | Error e -> refuse "snapshot config: initial: %s" e
    in
    let sym =
      match Sym.mode_of_string sym_s with
      | Some m -> m
      | None -> refuse "snapshot config: bad sym mode %S" sym_s
    in
    { model; n = int_of "n" n; g = int_of "g" g; k = int_of "k" k;
      topology; bound = int_of "bound" bound; cap = int_of "cap" cap;
      f = int_of "f" f; initial; sym }
  | Ok fields ->
    refuse "snapshot config: expected 10 fields, found %d"
      (List.length fields)

(* [Marshal.from_string] is only reached after the container digest
   verified, so the blob is byte-identical to what [encode] wrote.  It
   reads the blob where it lies, after its header says the blob ends
   inside the section; the try turns a bad header's [Failure] into a
   refusal rather than an escape. *)
let unmarshal : type v. (string * Codec.span) list -> string -> v =
  fun sections name ->
  let { Codec.src; ofs; len } = section sections name in
  try
    if
      len < Marshal.header_size
      || Marshal.total_size (Bytes.unsafe_of_string src) ofs > len
    then raise Exit;
    (Marshal.from_string src ofs : v)
  with Exit | Failure _ | Invalid_argument _ ->
    refuse "snapshot section %S: undecodable blob" name

(* Rebuild fragment + arena from the sections, under the current model
   code (the description's automaton and symmetry spec):
   [Explore.of_parts] validates the CSR arrays and [Arena.assemble] the
   tick mask.  The result must re-fingerprint to the stored digest or
   the snapshot is stale (model code changed since it was compiled) and
   is refused. *)
let rebuild (type s a i) (d : (s, a, i) Analysis.Description.t) sections : i =
  let counts = parsed Codec.ints_of_span sections "counts" in
  if Array.length counts <> 2 then
    refuse "snapshot section \"counts\": expected 2 integers, found %d"
      (Array.length counts);
  let starts = parsed Codec.ints_of_span sections "starts" in
  let step_off = parsed Codec.ints_of_span sections "step_off" in
  let out_off = parsed Codec.ints_of_span sections "out_off" in
  let tgt = parsed Codec.ints_of_span sections "tgt" in
  let tick = parsed Codec.bools_of_span sections "tick" in
  let prob_q = parsed Codec.rats_of_span sections "prob_q" in
  let states : s array = unmarshal sections "states" in
  let actions : a array = unmarshal sections "actions" in
  let cert : Sym.certificate option =
    if (section sections "sym").Codec.len = 0 then None
    else Some (unmarshal sections "sym")
  in
  if Array.length states <> counts.(0) then
    refuse "snapshot states array has %d entries, counts say %d"
      (Array.length states) counts.(0);
  (* A reduced fragment interns orbit representatives; [index] lookups
     only resolve if the fragment carries the same canonicalizer the
     original exploration used. *)
  let canon =
    match cert with
    | Some c when c.Sym.reduced ->
      Some
        (Sym.canonicalizer ~hash:(Core.Pa.hash_state d.pa)
           ~equal:(Core.Pa.equal_state d.pa) d.spec)
    | Some _ | None -> None
  in
  let expl =
    try
      Mdp.Explore.of_parts ?canon ~pa:d.pa ~states
        ~csr:{ Mdp.Explore.step_off; out_off; tgt; prob_q; actions }
        ~start_indices:(Array.to_list starts) ~expanded:counts.(1) ()
    with Invalid_argument msg -> refuse "snapshot fragment: %s" msg
  in
  let arena =
    try Mdp.Arena.assemble ~tick expl
    with Invalid_argument msg -> refuse "snapshot arena: %s" msg
  in
  let stored_fp = Codec.span_to_string (section sections "fingerprint") in
  let rebuilt_fp = Mdp.Arena.fingerprint arena in
  if not (String.equal stored_fp rebuilt_fp) then
    refuse
      "snapshot fingerprint mismatch: stored %s, rebuilt %s (the model \
       code changed since this snapshot was compiled)"
      stored_fp rebuilt_fp;
  d.instance arena cert

(* Only a config [prtb compile] writes loads: a known model, parameters
   it accepts, and every field what [config_of] records for them, so the
   tuple returned is the one [Models.resolve] keys. *)
let checked c =
  let p =
    match Models.of_name c.model with
    | Some family when Models.name family = c.model ->
      { Models.family; n = c.n; g = c.g; k = c.k; topology = c.topology;
        bound = c.bound; cap = c.cap }
    | Some _ | None -> refuse "snapshot config: unknown model %S" c.model
  in
  (match Models.invalid p with
   | Some (field, problem) -> refuse "snapshot config: %s %s" field problem
   | None -> ());
  List.iter2
    (fun (field, want) (_, got) ->
       if want <> got then
         refuse "snapshot config: %s must be %S for %s n=%d (got %S)" field
           want c.model c.n got)
    (config_fields (config_of ~sym:c.sym p))
    (config_fields c);
  Models.normalize p

let instantiate sections =
  let c = config_of_sections sections in
  let (Models.Case (d, wrap)) = Models.case (checked c) in
  (c, wrap (rebuild d sections))

let of_string bytes =
  match Codec.decode_spans bytes with
  | Error e -> Error e
  | Ok sections -> (
      try Ok (instantiate sections) with
      | Refuse msg -> Error msg
      | Invalid_argument msg | Failure msg ->
        Error (Printf.sprintf "snapshot rejected: %s" msg))

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | exception End_of_file ->
    Error (Printf.sprintf "%s: truncated while reading" path)
  | bytes -> of_string bytes

(* ------------------------------------------------------------------ *)
(* Registry seeding. *)

let preload ?max_states ~path () =
  match load ~path with
  | Error e -> Error e
  | Ok (c, loaded) ->
    ignore (Models.preload ?max_states ~sym:c.sym (checked c) loaded);
    Ok (describe c loaded)
