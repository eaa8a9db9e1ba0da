module Q = Proba.Rational
module Sym = Analysis.Symmetry
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or

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
  | Lr of LR.Proof.instance
  | Lr_topo of LR.Proof.topo_instance
  | Election of IR.Proof.instance
  | Coin of SC.Proof.instance
  | Consensus of BO.Proof.instance

let config_of ~sym p =
  let { Models.family; n; g; k; topology; bound; cap }, f, initial =
    Models.normalize p
  in
  { model = Models.name family; n; g; k; topology; bound; cap; f; initial;
    sym }

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
        (String.init (Array.length c.initial) (fun i ->
             if c.initial.(i) then '1' else '0'))
    else ""
  in
  Printf.sprintf "%s n=%d g=%d k=%d%s sym=%s (%d states)" c.model c.n c.g
    c.k extra
    (Sym.mode_to_string c.sym)
    (Models.with_arena loaded
       { Models.visit = (fun arena _ _ -> Mdp.Arena.num_states arena) })

(* ------------------------------------------------------------------ *)
(* Encoding. *)

let config_payload c =
  Codec.strs_to_string
    [ c.model; string_of_int c.n; string_of_int c.g; string_of_int c.k;
      c.topology; string_of_int c.bound; string_of_int c.cap;
      string_of_int c.f;
      Codec.bools_to_string c.initial;
      Sym.mode_to_string c.sym ]

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
  let sections =
    Models.with_arena loaded
      { Models.visit = (fun arena cert _ -> arena_sections arena cert) }
  in
  Codec.encode (("config", config_payload c) :: sections)

let save ~path c loaded =
  let bytes = encode c loaded in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try output_string oc bytes
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Decoding. *)

exception Refuse of string

let refuse fmt = Printf.ksprintf (fun s -> raise (Refuse s)) fmt

let section sections name =
  match List.assoc_opt name sections with
  | Some payload -> payload
  | None -> refuse "snapshot is missing section %S" name

let parsed of_string sections name =
  match of_string (section sections name) with
  | Ok v -> v
  | Error e -> refuse "snapshot section %S: %s" name e

let int_of what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> refuse "snapshot config: bad %s %S" what s

let config_of_sections sections =
  match Codec.strs_of_string (section sections "config") with
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
   verified, so the blob is byte-identical to what [encode] wrote; the
   try still turns a truncated-blob [Failure] into a refusal rather
   than an escape. *)
let unmarshal : type v. (string * string) list -> string -> v =
  fun sections name ->
  let payload = section sections name in
  try (Marshal.from_string payload 0 : v)
  with Failure _ | Invalid_argument _ ->
    refuse "snapshot section %S: undecodable blob" name

(* Rebuild fragment + arena from the sections, under the current model
   code ([pa], [spec]), validating every index before [Explore.of_parts]
   and [Arena.assemble] see it.  The result must re-fingerprint to the
   stored digest or the snapshot is stale (model code changed since it
   was compiled) and is refused. *)
let rebuild (type s a) ~(pa : (s, a) Core.Pa.t)
    ~(spec : (s, a) Sym.spec) sections :
  (s, a) Mdp.Arena.t * Sym.certificate option =
  let counts = parsed Codec.ints_of_string sections "counts" in
  if Array.length counts <> 2 then
    refuse "snapshot section \"counts\": expected 2 integers, found %d"
      (Array.length counts);
  let n = counts.(0) and expanded = counts.(1) in
  if n < 0 || expanded < 0 || expanded > n then
    refuse "snapshot counts out of range (states %d, expanded %d)" n
      expanded;
  let starts = parsed Codec.ints_of_string sections "starts" in
  let step_off = parsed Codec.ints_of_string sections "step_off" in
  let out_off = parsed Codec.ints_of_string sections "out_off" in
  let tgt = parsed Codec.ints_of_string sections "tgt" in
  let tick = parsed Codec.bools_of_string sections "tick" in
  let prob_q = parsed Codec.rats_of_string sections "prob_q" in
  let states : s array = unmarshal sections "states" in
  let actions : a array = unmarshal sections "actions" in
  let cert : Sym.certificate option =
    match section sections "sym" with
    | "" -> None
    | _ -> Some (unmarshal sections "sym")
  in
  if Array.length states <> n then
    refuse "snapshot states array has %d entries, counts say %d"
      (Array.length states) n;
  let num_steps = Array.length tick in
  if Array.length step_off <> n + 1 then
    refuse "snapshot step_off has %d entries for %d states"
      (Array.length step_off) n;
  if Array.length out_off <> num_steps + 1
     || Array.length actions <> num_steps then
    refuse "snapshot step arrays disagree (%d ticks, %d out_off, %d \
            actions)"
      num_steps (Array.length out_off) (Array.length actions);
  let monotone what arr limit =
    if arr.(0) <> 0 then refuse "snapshot %s does not start at 0" what;
    for i = 0 to Array.length arr - 2 do
      if arr.(i + 1) < arr.(i) then
        refuse "snapshot %s is not monotone at %d" what i
    done;
    if arr.(Array.length arr - 1) <> limit then
      refuse "snapshot %s ends at %d, expected %d" what
        (arr.(Array.length arr - 1))
        limit
  in
  monotone "step_off" step_off num_steps;
  monotone "out_off" out_off (Array.length tgt);
  if Array.length prob_q <> Array.length tgt then
    refuse "snapshot probability plane has %d entries for %d branches"
      (Array.length prob_q) (Array.length tgt);
  Array.iter
    (fun t ->
       if t < 0 || t >= n then
         refuse "snapshot branch target %d out of range [0, %d)" t n)
    tgt;
  List.iter
    (fun i ->
       if i < 0 || i >= n then
         refuse "snapshot start index %d out of range [0, %d)" i n)
    (Array.to_list starts);
  for i = expanded to n - 1 do
    if step_off.(i + 1) <> step_off.(i) then
      refuse "snapshot frontier state %d has steps" i
  done;
  (* A reduced fragment interns orbit representatives; [index] lookups
     only resolve if the fragment carries the same canonicalizer the
     original exploration used. *)
  let canon =
    match cert with
    | Some c when c.Sym.reduced ->
      Some (Sym.canonicalizer ~equal:(Core.Pa.equal_state pa) spec)
    | Some _ | None -> None
  in
  let steps =
    Array.init n (fun i ->
        Array.init
          (step_off.(i + 1) - step_off.(i))
          (fun j ->
             let s = step_off.(i) + j in
             { Mdp.Explore.action = actions.(s);
               outcomes =
                 Array.init
                   (out_off.(s + 1) - out_off.(s))
                   (fun o ->
                      let b = out_off.(s) + o in
                      (tgt.(b), prob_q.(b))) }))
  in
  let expl =
    try
      Mdp.Explore.of_parts ?canon ~pa ~states ~steps
        ~start_indices:(Array.to_list starts) ~expanded ()
    with Invalid_argument msg -> refuse "snapshot fragment: %s" msg
  in
  let arena =
    try
      Mdp.Arena.assemble ~step_off ~out_off ~tgt ~prob_q ~tick ~actions
        expl
    with Invalid_argument msg -> refuse "snapshot arena: %s" msg
  in
  let stored_fp = section sections "fingerprint" in
  let rebuilt_fp = Mdp.Arena.fingerprint arena in
  if not (String.equal stored_fp rebuilt_fp) then
    refuse
      "snapshot fingerprint mismatch: stored %s, rebuilt %s (the model \
       code changed since this snapshot was compiled)"
      stored_fp rebuilt_fp;
  (arena, cert)

let instantiate sections =
  let c = config_of_sections sections in
  let family =
    match Models.of_name c.model with
    | Some f when Models.name f = c.model -> f
    | Some _ | None -> refuse "snapshot config: unknown model %S" c.model
  in
  (match
     Models.invalid
       { Models.family; n = c.n; g = c.g; k = c.k; topology = c.topology;
         bound = c.bound; cap = c.cap }
   with
   | Some (field, problem) -> refuse "snapshot config: %s %s" field problem
   | None -> ());
  let loaded =
    match family, c.topology with
    | `Lr, "ring" ->
      let params = { LR.Automaton.n = c.n; g = c.g; k = c.k } in
      let pa = LR.Automaton.make params in
      let spec = LR.Symmetry.ring ~n:c.n () in
      let arena, sym = rebuild ~pa ~spec sections in
      Lr
        { LR.Proof.params; expl = Mdp.Arena.explored arena; arena; sym }
    | `Lr, t ->
      let topo =
        if t = "line" then LR.Topology.line c.n else LR.Topology.star c.n
      in
      let pa = LR.Automaton.make_general ~topo ~g:c.g ~k:c.k in
      let spec = LR.Symmetry.spec topo in
      let tarena, tsym = rebuild ~pa ~spec sections in
      Lr_topo
        { LR.Proof.topo; tg = c.g; tk = c.k;
          texpl = Mdp.Arena.explored tarena; tarena; tsym }
    | `Election, _ ->
      let params = { IR.Automaton.n = c.n; g = c.g; k = c.k } in
      let pa = IR.Automaton.make params in
      let spec = IR.Symmetry.spec params in
      let arena, sym = rebuild ~pa ~spec sections in
      Election
        { IR.Proof.params; expl = Mdp.Arena.explored arena; arena; sym }
    | `Coin, _ ->
      let params =
        { SC.Automaton.n = c.n; bound = c.bound; g = c.g; k = c.k }
      in
      let pa = SC.Automaton.make params in
      let spec = SC.Symmetry.spec params in
      let arena, sym = rebuild ~pa ~spec sections in
      Coin
        { SC.Proof.params; expl = Mdp.Arena.explored arena; arena; sym }
    | `Consensus, _ ->
      if Array.length c.initial <> c.n then
        refuse "snapshot config: %d initial estimates for n=%d"
          (Array.length c.initial) c.n;
      let params =
        { BO.Automaton.n = c.n; f = c.f; cap = c.cap; g = c.g; k = c.k }
      in
      let pa = BO.Automaton.make ~initial:c.initial params in
      let spec = BO.Symmetry.spec params ~initial:c.initial in
      let arena, sym = rebuild ~pa ~spec sections in
      Consensus
        { BO.Proof.params; initial = c.initial;
          expl = Mdp.Arena.explored arena; arena; sym }
  in
  (c, loaded)

let of_string bytes =
  match Codec.decode bytes with
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
    ignore (Models.preload ?max_states ~sym:c.sym loaded);
    Ok (describe c loaded)
