module Q = Proba.Rational
module D = Proba.Dist
module J = Analysis.Json
module Sym = Analysis.Symmetry
module Desc = Analysis.Description
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or
module Race = Race

(* ------------------------------------------------------------------ *)
(* The case-study table.  Plain data about a family -- names, ranges,
   the fields it reads, conventions, its report heading -- is a row of
   [case_studies]; building an instance is one lookup, [case], into the
   family library's description; behaviour that depends on the
   automaton's types is a match over the closed [instance] variant. *)

type family = [ `Lr | `Election | `Coin | `Consensus ]

type params = {
  family : family;
  n : int;
  g : int;
  k : int;
  topology : string;
  bound : int;
  cap : int;
}

type tuple = { params : params; f : int; initial : bool array }

(* lr's general topologies by topology field.  The ring's general form
   goes by its own name, e.g. "ring(3)", which only [lr_topo] asks for. *)
let lr_general = [ ("line", LR.Topology.line); ("star", LR.Topology.star) ]

let lr_topology (p : params) =
  let ring = LR.Topology.ring p.n in
  match List.assoc_opt p.topology lr_general with
  | Some make -> make p.n
  | None when p.topology = LR.Topology.name ring -> ring
  | None -> invalid_arg ("Models: no lr topology " ^ p.topology)

type case_study = {
  family : family;
  name : string;
  aliases : string list;
  min_n : int;  (* the automaton's own precondition *)
  max_n : int;
      (* the largest n at which a check (for lr, one with --sym on)
         finishes under the 2M-state ceiling in about 30 s on two cores;
         past it a check hits that ceiling or takes longer *)
  topologies : string list;  (* [] if the family runs on the ring only *)
  reads : string list;  (* which of "bound" and "cap" it reads *)
  convention : (int -> int * bool array) option;
      (* the fault bound and initial estimates every surface runs it at *)
  heading : tuple -> string;  (* the [prtb check] text report's *)
}

let case_studies =
  [ { family = `Lr; name = "lr"; aliases = [ "lehmann-rabin"; "dining" ];
      min_n = 2; max_n = 5; topologies = "ring" :: List.map fst lr_general;
      reads = []; convention = None;
      heading =
        (fun { params = p; _ } ->
           if p.topology = "ring" then
             Printf.sprintf "Lehmann-Rabin, n=%d g=%d k=%d" p.n p.g p.k
           else
             Printf.sprintf "Lehmann-Rabin on %s, g=%d k=%d"
               (LR.Topology.name (lr_topology p)) p.g p.k) };
    { family = `Election; name = "election"; aliases = [ "itai-rodeh" ];
      min_n = 2; max_n = 10; topologies = []; reads = []; convention = None;
      heading = (fun t -> Printf.sprintf "Leader election, n=%d" t.params.n) };
    { family = `Coin; name = "coin"; aliases = [ "shared-coin" ]; min_n = 1;
      max_n = 13; topologies = []; reads = [ "bound" ]; convention = None;
      heading =
        (fun { params = p; _ } ->
           Printf.sprintf "Shared coin, n=%d barrier=±%d" p.n p.bound) };
    (* Ben-Or runs with the largest fault bound [n] tolerates and a mixed
       start: process [n-1] proposes 1, the others 0. *)
    { family = `Consensus; name = "consensus"; aliases = [ "ben-or" ];
      min_n = 1; max_n = 4; topologies = []; reads = [ "cap" ];
      convention =
        Some (fun n -> ((n - 1) / 2, Array.init n (fun i -> i = n - 1)));
      heading =
        (fun { params = p; f; _ } ->
           Printf.sprintf
             "Ben-Or consensus, n=%d f=%d cap=%d rounds, mixed start" p.n f
             p.cap) } ]

let default = `Lr

let case_study f = List.find (fun (c : case_study) -> c.family = f) case_studies
let name f = (case_study f).name

let of_name s =
  List.find_map
    (fun (c : case_study) ->
       if String.equal c.name s || List.mem s c.aliases then Some c.family
       else None)
    case_studies

let sim_params family ~n =
  { family; n; g = 1; k = 1; topology = "ring"; bound = 4; cap = 50 }

let invalid ?(explored = true) (p : params) =
  let c = case_study p.family in
  let least field v m =
    if v >= m then None
    else
      Some
        ( field,
          Printf.sprintf "must be at least %d for %s (got %d)" m c.name v )
  in
  let most =
    if (not explored) || p.n <= c.max_n then None
    else
      Some
        ( "n",
          Printf.sprintf "must be at most %d for %s (got %d)" c.max_n c.name
            p.n )
  in
  let read field v = if List.mem field c.reads then least field v 1 else None in
  let rec one_of = function
    | [ a ] -> a
    | [ a; b ] -> a ^ " or " ^ b
    | a :: rest -> a ^ ", " ^ one_of rest
    | [] -> ""
  in
  let readers = List.filter (fun c -> c.topologies <> []) case_studies in
  let topology =
    if List.mem p.topology ("ring" :: c.topologies) then None
    else
      Some
        ( "topology",
          if c.topologies = [] then
            Printf.sprintf "applies to the %s model only (got %S)"
              (one_of (List.map (fun c -> c.name) readers)) p.topology
          else
            Printf.sprintf "must be %s (got %S)" (one_of c.topologies)
              p.topology )
  in
  List.find_map Fun.id
    [ topology; least "n" p.n c.min_n; most; least "g" p.g 1; least "k" p.k 1;
      read "bound" p.bound; read "cap" p.cap ]

let normalize (p : params) =
  let c = case_study p.family in
  let f, initial =
    match c.convention with Some at -> at p.n | None -> (0, [||])
  in
  let read field v = if List.mem field c.reads then v else 0 in
  { params =
      { p with topology = (if c.topologies = [] then "ring" else p.topology);
               bound = read "bound" p.bound; cap = read "cap" p.cap };
    f; initial }

(* ------------------------------------------------------------------ *)
(* Instances, and the one lookup the registry and the snapshot loader
   build them from. *)

type instance =
  | Lr of LR.Proof.instance
  | Lr_topo of LR.Proof.topo_instance
  | Election of IR.Proof.instance
  | Coin of SC.Proof.instance
  | Consensus of BO.Proof.instance

let family_of = function
  | Lr _ | Lr_topo _ -> `Lr
  | Election _ -> `Election
  | Coin _ -> `Coin
  | Consensus _ -> `Consensus

type case = Case : ('s, 'a, 'i) Desc.t * ('i -> instance) -> case

let case { params = p; f; initial } =
  let { n; g; k; _ } = p in
  match p.family with
  | `Lr when p.topology = "ring" ->
    Case (LR.Proof.describe { n; g; k }, fun i -> Lr i)
  | `Lr ->
    Case
      (LR.Proof.describe_topo ~topo:(lr_topology p) ~g ~k, fun i -> Lr_topo i)
  | `Election -> Case (IR.Proof.describe { n; g; k }, fun i -> Election i)
  | `Coin ->
    Case (SC.Proof.describe { n; bound = p.bound; g; k }, fun i -> Coin i)
  | `Consensus ->
    Case
      ( BO.Proof.describe { n; f; cap = p.cap; g; k } ~initial,
        fun i -> Consensus i )

let bits a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

(* Printed from the tuple alone, so the key asked for before a build
   and the one a snapshot's recorded tuple seeds are one string. *)
let key ~max_states ~sym { params = p; f; initial } =
  Printf.sprintf
    "%s?n=%d&g=%d&k=%d&topology=%s&bound=%d&cap=%d&f=%d&initial=%s&\
     max_states=%s&sym=%s"
    (name p.family) p.n p.g p.k p.topology p.bound p.cap f (bits initial)
    (match max_states with None -> "" | Some m -> string_of_int m)
    (Sym.mode_to_string sym)

type 'r visitor = {
  visit :
    's 'a. ('s, 'a) Mdp.Arena.t -> Sym.certificate option -> ('s -> bool) ->
    'r;
}

let lr_target = Core.Pred.mem LR.Regions.c

let with_arena inst v =
  match inst with
  | Lr i -> v.visit i.LR.Proof.arena i.LR.Proof.sym lr_target
  | Lr_topo i -> v.visit i.LR.Proof.tarena i.LR.Proof.tsym lr_target
  | Election i ->
    v.visit i.IR.Proof.arena i.IR.Proof.sym IR.Automaton.leader_elected
  | Coin i ->
    v.visit i.SC.Proof.arena i.SC.Proof.sym
      (SC.Automaton.decided i.SC.Proof.params)
  | Consensus i ->
    v.visit i.BO.Proof.arena i.BO.Proof.sym BO.Automaton.some_decided

let fingerprint inst =
  with_arena inst { visit = (fun arena _ _ -> Mdp.Arena.fingerprint arena) }

(* ------------------------------------------------------------------ *)
(* The registry.  One mutex guards [building] and [builds] (the table
   is a [Parallel.Cache] with its own lock, taken inside it); builds run
   OUTSIDE the lock (so distinct keys explore in parallel) with the key
   marked in [building], and domains asking for an in-flight key wait
   on [built_cond].  N domains requesting the same key therefore
   perform exactly one exploration and one compile (asserted by the
   multi-domain hammer in test/test_models.ml). *)

let mu = Mutex.create ()
let built_cond = Condition.create ()
let builds_counter = ref 0

(* Rough retained size of an instance: CSR rows, the interned state
   values and the memo overhead, all order-of-magnitude -- the LRU
   needs proportionality, not precision. *)
let table =
  Parallel.Cache.create
    ~cost:(fun inst ->
        with_arena inst
          { visit =
              (fun arena _ _ -> 4096 + (512 * Mdp.Arena.num_states arena)) })
    ()

let building : (string, unit) Hashtbl.t = Hashtbl.create 8

let set_capacity cap = Parallel.Cache.set_capacity table cap

let build ?max_states ~sym t =
  let (Case (d, wrap)) = case t in
  wrap (Desc.build ?max_states ~sym d)

let obtain ?max_states ~sym t =
  let key = key ~max_states ~sym t in
  Mutex.lock mu;
  let rec go () =
    match Parallel.Cache.find table key with
    | Some inst ->
      Mutex.unlock mu;
      inst
    | None ->
      if Hashtbl.mem building key then begin
        Condition.wait built_cond mu;
        go ()
      end
      else begin
        Hashtbl.add building key ();
        Mutex.unlock mu;
        let result =
          try Ok (build ?max_states ~sym t)
          with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock mu;
        Hashtbl.remove building key;
        Condition.broadcast built_cond;
        match result with
        | Error (e, bt) ->
          Mutex.unlock mu;
          Printexc.raise_with_backtrace e bt
        | Ok inst ->
          incr builds_counter;
          Parallel.Cache.add table key inst;
          Mutex.unlock mu;
          inst
      end
  in
  go ()

(* Seed the table with an instance built elsewhere (an arena snapshot
   loaded at daemon startup).  No build happens here so [builds] stays
   put -- the CI snapshot smoke asserts [explorations: 0, compiles: 0]
   on the first served query, which only holds if preloaded entries are
   indistinguishable from built ones on the lookup path.  A key that is
   already cached or mid-build keeps the existing/raced instance;
   preloading respects the LRU capacity like any insert. *)
let preload ?max_states ~sym t inst =
  let key = key ~max_states ~sym t in
  Mutex.lock mu;
  let fresh =
    not (Parallel.Cache.mem table key || Hashtbl.mem building key)
  in
  if fresh then Parallel.Cache.add table key inst;
  Mutex.unlock mu;
  fresh

let resolve ?max_states ?(sym = Sym.Off) p =
  obtain ?max_states ~sym (normalize p)

(* The typed builders and preloads: each family's tuple, and the
   constructor [obtain] of it always yields. *)

let tuple ?(topology = "ring") ?(bound = 0) ?(cap = 0) ?(f = 0)
    ?(initial = [||]) family ~n ~g ~k =
  { params = { family; n; g; k; topology; bound; cap }; f; initial }

(* Any other topology keeps its own name, which [case] refuses. *)
let topo_tuple ~topo ~g ~k =
  let n = LR.Topology.num_procs topo and name = LR.Topology.name topo in
  let field (f, make) =
    if LR.Topology.name (make n) = name then Some f else None
  in
  tuple `Lr ~n ~g ~k
    ~topology:(Option.value ~default:name (List.find_map field lr_general))

let lr ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~n () =
  match obtain ?max_states ~sym (tuple `Lr ~n ~g ~k) with
  | Lr i -> i | _ -> assert false

let lr_topo ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~topo () =
  match obtain ?max_states ~sym (topo_tuple ~topo ~g ~k) with
  | Lr_topo i -> i | _ -> assert false

let election ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~n () =
  match obtain ?max_states ~sym (tuple `Election ~n ~g ~k) with
  | Election i -> i | _ -> assert false

let coin ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~n ~bound () =
  match obtain ?max_states ~sym (tuple `Coin ~n ~g ~k ~bound) with
  | Coin i -> i | _ -> assert false

let consensus ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~n ~f ~cap
    ~initial () =
  match
    obtain ?max_states ~sym (tuple `Consensus ~n ~g ~k ~f ~cap ~initial)
  with
  | Consensus i -> i | _ -> assert false

let preload_lr ?max_states ~g ~k ~sym ~n i =
  preload ?max_states ~sym (tuple `Lr ~n ~g ~k) (Lr i)

let preload_lr_topo ?max_states ~g ~k ~sym ~topo i =
  preload ?max_states ~sym (topo_tuple ~topo ~g ~k) (Lr_topo i)

let preload_election ?max_states ~g ~k ~sym ~n i =
  preload ?max_states ~sym (tuple `Election ~n ~g ~k) (Election i)

let preload_coin ?max_states ~g ~k ~sym ~n ~bound i =
  preload ?max_states ~sym (tuple `Coin ~n ~g ~k ~bound) (Coin i)

let preload_consensus ?max_states ~g ~k ~sym ~n ~f ~cap ~initial i =
  preload ?max_states ~sym (tuple `Consensus ~n ~g ~k ~f ~cap ~initial)
    (Consensus i)

type stats = {
  explorations : int;
  compiles : int;
  builds : int;
  cache_hits : int;
  evictions : int;
  cached_entries : int;
  cached_bytes : int;
}

let stats () =
  Mutex.lock mu;
  let builds = !builds_counter in
  Mutex.unlock mu;
  let c = Parallel.Cache.stats table in
  { explorations = Mdp.Explore.explorations ();
    compiles = Mdp.Arena.compiles ();
    builds;
    cache_hits = c.Parallel.Cache.hits;
    evictions = c.Parallel.Cache.evictions;
    cached_entries = c.Parallel.Cache.entries;
    cached_bytes = c.Parallel.Cache.cost_bytes }

let pp_stats fmt s =
  Format.fprintf fmt
    "registry: explorations: %d, compiles: %d, builds: %d, cache hits: %d, \
     evictions: %d"
    s.explorations s.compiles s.builds s.cache_hits s.evictions

(* ------------------------------------------------------------------ *)
(* The /check result fields.  [prtb check --format json] prints the
   same body, which is what makes served bodies bit-identical to the
   CLI's. *)

let rat r = J.Str (Q.to_string r)

let holds = function None -> J.Str "holds" | Some _ -> J.Str "violated"

let composed_json = function
  | Ok c ->
    J.Obj
      [ ("ok", J.Bool true);
        ("claim", J.Str (Format.asprintf "%a" Core.Claim.pp c)) ]
  | Error e -> J.Obj [ ("ok", J.Bool false); ("error", J.Str e) ]

(* The state count a body reports: for a certified orbit quotient, the
   unreduced reachable count recovered from the certificate -- which is
   what makes [sym=on] and [sym=off] bodies identical. *)
let body_states inst =
  with_arena inst
    { visit =
        (fun arena cert _ ->
           match cert with
           | Some c when c.Sym.reduced -> c.Sym.full_states
           | _ -> Mdp.Arena.num_states arena) }

let params_json (p : params) =
  let c = case_study p.family in
  let read field v = if List.mem field c.reads then [ (field, J.Int v) ] else [] in
  [ ("n", J.Int p.n); ("g", J.Int p.g); ("k", J.Int p.k) ]
  @ (if c.topologies = [] then [] else [ ("topology", J.Str p.topology) ])
  @ read "bound" p.bound @ read "cap" p.cap

(* The ["arrows"] and ["composed"] fields.  LR's arrows name their
   sets ([sets]); a ladder's rungs are named by their labels alone. *)
let arrow_fields ~sets arrows composed =
  let arrow (a : _ Mdp.Checker.arrow) =
    let named =
      if sets then
        [ ("pre", J.Str (Core.Pred.name a.pre));
          ("post", J.Str (Core.Pred.name a.post)) ]
      else []
    in
    J.Obj
      ((("label", J.Str a.label) :: named)
       @ [ ("time", rat a.time); ("prob", rat a.prob);
           ("attained", rat a.attained);
           ("holds", J.Bool (a.claim <> None)) ])
  in
  [ ("arrows", J.Arr (List.map arrow arrows));
    ("composed", composed_json composed) ]

(* Below this many arena states the proof region runs inline: spawning
   and joining a helper domain costs more than the passes it would
   overlap.  Measured on cli-small's queries, cold [prtb check --format
   json], 20 alternating pairs each on 2 cores, median wall inline vs
   forked: coin n=2 bound 2 (19 states) 3.6 vs 4.8 ms, election n=4
   (251) 5.1 vs 6.4 ms, election n=5 (1 018) 12.4 vs 12.9 ms; lr n=3
   star with --sym on (1 593) 42.1 vs 38.4 ms, lr n=3 with --sym on
   (2 708) 75.2 vs 58.6 ms, election n=6 (4 089) 44.9 vs 36.6 ms. *)
let inline_below = 1024

(* What one pass of the LR proof region yields. *)
type lr_pass =
  | Fields of (string * J.t) list
  | Arrow of LR.Proof.arrow
  | Renamings of LR.Proof.renaming list

(* The LR ring and topologies run one task per engine call, longest
   first -- value iteration, the 14-layer direct bound, the arrows by
   their tick layers (A.11: 6, A.15: 4, A.3, A.14, A.1) with the
   composition's inclusions (about as long as A.11) among them, then
   the invariant -- so that claiming tasks in index order keeps the
   domains evenly loaded.  The fields and the composition are
   assembled after the region, in field order. *)
let lr_fields ?helpers ~states ~invariant ~arrow ~renamings ~compose
    ~direct_bound ~vi () =
  match
    Parallel.Fork.run ?helpers
      [| (fun () -> Fields (vi ()));
         (fun () -> Fields [ ("direct_bound", rat (direct_bound ())) ]);
         (fun () -> Arrow (arrow `G_to_P));
         (fun () -> Renamings (renamings ()));
         (fun () -> Arrow (arrow `RT_to_FGP));
         (fun () -> Arrow (arrow `T_to_RTC));
         (fun () -> Arrow (arrow `F_to_GP));
         (fun () -> Arrow (arrow `P_to_C));
         (fun () -> Fields [ ("invariant", invariant ()) ]) |]
  with
  | [| Fields vi; Fields direct; Arrow a11; Renamings renamings; Arrow a15;
       Arrow a3; Arrow a14; Arrow a1; Fields invariant |] ->
    let arrows = [ a1; a3; a15; a14; a11 ] in
    (states :: invariant)
    @ arrow_fields ~sets:true arrows (compose ~renamings arrows)
    @ direct @ vi
  | _ -> assert false

(* Each family's independent passes run through one fork region: the
   LR families' as in [lr_fields], the others' as contiguous groups of
   fields, concatenated in field order.  Every engine runs whole on one
   domain, so each pass computes exactly what it computes alone. *)
let check_fields inst =
  let helpers =
    if
      with_arena inst
        { visit = (fun arena _ _ -> Mdp.Arena.num_states arena) }
      < inline_below
    then Some 0
    else None
  in
  let states = ("states", J.Int (body_states inst)) in
  let groups tasks =
    List.concat (Array.to_list (Parallel.Fork.run ?helpers tasks))
  in
  match inst with
  | Lr i ->
    lr_fields ?helpers ~states
      ~invariant:(fun () -> holds (LR.Invariant.check i.LR.Proof.expl))
      ~arrow:(LR.Proof.arrow i)
      ~renamings:(fun () -> LR.Proof.renamings i)
      ~compose:(fun ~renamings -> LR.Proof.compose_arrows ~renamings i)
      ~direct_bound:(fun () -> LR.Proof.direct_bound i)
      ~vi:(fun () ->
          [ ( "expected_bound",
              rat (Core.Expected.value (LR.Proof.expected_bound ())) );
            ("max_expected_time", J.Num (LR.Proof.max_expected_time i)) ])
      ()
  | Lr_topo i ->
    lr_fields ?helpers ~states
      ~invariant:(fun () -> holds (LR.Proof.invariant_topo i))
      ~arrow:(LR.Proof.arrow_topo i)
      ~renamings:(fun () -> LR.Proof.renamings_topo i)
      ~compose:(fun ~renamings -> LR.Proof.compose_arrows_topo ~renamings i)
      ~direct_bound:(fun () -> LR.Proof.direct_bound_topo i)
      ~vi:(fun () ->
          [ ("max_expected_time", J.Num (LR.Proof.max_expected_time_topo i))
          ])
      ()
  | Election i ->
    groups
    [| (fun () -> [ states ]);
       (fun () ->
          let arrows = IR.Proof.arrows i in
          arrow_fields ~sets:false arrows (IR.Proof.compose_arrows arrows));
       (fun () ->
          [ ( "expected_bound",
              rat
                (Core.Expected.value
                   (IR.Proof.expected_bound
                      ~n:i.IR.Proof.params.IR.Automaton.n)) );
            ("max_expected_time", J.Num (IR.Proof.max_expected_time i)) ]) |]
  | Coin i ->
    groups
    [| (fun () -> [ states ]);
       (fun () ->
          let arrows = SC.Proof.arrows i in
          arrow_fields ~sets:false arrows (SC.Proof.compose_arrows arrows));
       (fun () -> [ ("direct_bound", rat (SC.Proof.direct_bound i)) ]);
       (fun () ->
          [ ("expected_exact", J.Num (SC.Proof.expected_exact i));
            ("expected_theory", J.Num (SC.Proof.expected_theory i)) ]) |]
  | Consensus i ->
    let { BO.Automaton.f; cap; _ } = i.BO.Proof.params in
    groups
    [| (fun () ->
          [ states;
            ("f", J.Int f);
            ("agreement", holds (BO.Proof.agreement_violation i)) ]);
       (fun () ->
          let curve =
            BO.Proof.decision_curve i ~rounds:(List.init cap (fun r -> r + 1))
          in
          [ ( "decision_curve",
              J.Arr
                (List.mapi
                   (fun idx p ->
                      J.Obj
                        [ ("rounds", J.Int (idx + 1)); ("min_prob", rat p) ])
                   curve) ) ]) |]


(* ------------------------------------------------------------------ *)
(* Certificates. *)

(* The fields the family reads, and its fault bound, by name. *)
let leaf_params (p : params) =
  let c = case_study p.family and { f; _ } = normalize p in
  let read field v =
    if List.mem field c.reads then [ (field, string_of_int v) ] else []
  in
  read "bound" p.bound @ read "cap" p.cap
  @ (if c.convention = None then [] else [ ("f", string_of_int f) ])
  @ [ ("g", string_of_int p.g); ("k", string_of_int p.k) ]
  @ if c.topologies = [] then [] else [ ("topology", p.topology) ]

let certificate ~config inst =
  let emit = function
    | Error e -> Error e
    | Ok claim ->
      Ok (Cert.Emit.emit ~config ~fingerprint:(fingerprint inst) claim)
  in
  match inst with
  | Lr i -> emit (LR.Proof.composed i)
  | Lr_topo i -> emit (LR.Proof.composed_topo i)
  | Election i -> emit (IR.Proof.composed i)
  | Coin i -> emit (SC.Proof.composed i)
  | Consensus i ->
    emit
      (BO.Proof.composed i ~rounds:i.BO.Proof.params.BO.Automaton.cap)

(* ------------------------------------------------------------------ *)
(* The [prtb check] text report. *)

(* [reachable states] under a certified quotient: the representative
   count plus the full space it stands for, so logs stay comparable
   across --sym settings. *)
let print_states label count (cert : Sym.certificate option) =
  match cert with
  | Some c when c.Sym.reduced ->
    Printf.printf "%s: %d (orbit quotient of %d)\n%!" label count
      c.Sym.full_states
  | _ -> Printf.printf "%s: %d\n%!" label count

let print_cert (cert : Sym.certificate option) =
  match cert with
  | None -> ()
  | Some c ->
    Printf.printf
      "symmetry certificate: %d generator(s) verified on %d state(s), \
       %d predicate(s) invariant%s\n%!"
      (List.length c.Sym.cert_generators)
      c.Sym.states_checked
      (List.length c.Sym.preds_checked)
      (if c.Sym.reduced then " (quotient exploration)" else "")

(* The arrows one per line, then the composition.  A ladder's line is
   [label attained (verdict)]; the ring's ([statements]) spells out
   each statement and follows the composed claim with its
   derivation. *)
let print_ladder ?(statements = false) width arrows composed =
  List.iter
    (fun (a : _ Mdp.Checker.arrow) ->
       let verdict = if a.claim <> None then "holds" else "FAILS" in
       if statements then
         Format.printf "%-*s %s -%s->_%s %s : attained %s (%s)@." width
           a.label (Core.Pred.name a.pre) (Q.to_string a.time)
           (Q.to_string a.prob) (Core.Pred.name a.post)
           (Q.to_string a.attained) verdict
       else
         Format.printf "%-*s attained %s (%s)@." width a.label
           (Q.to_string a.attained) verdict)
    arrows;
  match composed with
  | Ok claim when statements ->
    Format.printf "@.composed: %a@.@.%a@." Core.Claim.pp claim
      Core.Claim.pp_derivation claim
  | Ok claim -> Format.printf "composed: %a@." Core.Claim.pp claim
  | Error e -> Printf.printf "composition failed: %s\n" e

let print_body inst =
  with_arena inst
    { visit =
        (fun arena cert _ ->
           print_states "reachable states" (Mdp.Arena.num_states arena) cert;
           print_cert cert) };
  let lemma_6_1 what = function
    | None ->
      Printf.printf "Lemma 6.1%s: holds on every reachable state\n%!" what
    | Some s -> Format.printf "Lemma 6.1 VIOLATED at %a@." LR.State.pp s
  in
  match inst with
  | Lr i ->
    lemma_6_1 "" (LR.Invariant.check i.LR.Proof.expl);
    let arrows = LR.Proof.arrows i in
    print_ladder ~statements:true 5 arrows (LR.Proof.compose_arrows i arrows);
    Format.printf "@.expected-time derivation:@.%a@." Core.Expected.pp
      (LR.Proof.expected_bound ());
    Printf.printf "measured worst-case expected time: %.3f\n"
      (LR.Proof.max_expected_time i)
  | Lr_topo i ->
    lemma_6_1 " (generalized)" (LR.Proof.invariant_topo i);
    let arrows = LR.Proof.arrows_topo i in
    print_ladder 5 arrows (LR.Proof.compose_arrows_topo i arrows);
    Printf.printf "direct 13-unit minimum: %s; worst expected time: %.3f\n"
      (Q.to_string (LR.Proof.direct_bound_topo i))
      (LR.Proof.max_expected_time_topo i)
  | Election i ->
    let arrows = IR.Proof.arrows i in
    print_ladder 4 arrows (IR.Proof.compose_arrows arrows);
    Printf.printf "expected bound: %s; measured worst case: %.3f\n"
      (Q.to_string
         (Core.Expected.value
            (IR.Proof.expected_bound ~n:i.IR.Proof.params.IR.Automaton.n)))
      (IR.Proof.max_expected_time i)
  | Coin i ->
    let arrows = SC.Proof.arrows i in
    print_ladder 4 arrows (SC.Proof.compose_arrows arrows);
    Printf.printf
      "direct minimum within %d: %s\nexpected time: exact %.3f vs B^2/n = \
       %.3f\n"
      i.SC.Proof.params.SC.Automaton.bound
      (Q.to_string (SC.Proof.direct_bound i))
      (SC.Proof.expected_exact i)
      (SC.Proof.expected_theory i)
  | Consensus i ->
    Printf.printf "agreement: %s\n"
      (match BO.Proof.agreement_violation i with
       | None -> "holds"
       | Some _ -> "VIOLATED");
    List.iteri
      (fun idx q ->
         Printf.printf "min P[decided within %d round(s)] = %s\n" (idx + 1)
           (Q.to_string q))
      (BO.Proof.decision_curve i
         ~rounds:
           (List.init i.BO.Proof.params.BO.Automaton.cap (fun r -> r + 1)))

(* The heading goes out before the build, so a refused build still
   names what was asked for. *)
let report ?max_states ?sym (p : params) =
  Printf.printf "%s\n%!" ((case_study p.family).heading (normalize p));
  print_body (resolve ?max_states ?sym p)

(* ------------------------------------------------------------------ *)
(* Monte Carlo. *)

type simulation =
  | Simulation : {
      setup : ('s, 'a) Sim.Monte_carlo.setup;
      target : 's -> bool;
      reach : string;
      horizon : int;
      time_report :
        trials:int -> missed:int -> Proba.Stat.Summary.t -> string;
    }
      -> simulation

let simulation ?(scheduler = "uniform") p =
  let { params = p; f; initial } = normalize p in
  let { n; g; k; _ } = p in
  let mean = Proba.Stat.Summary.mean in
  (* A tick lasts one time unit.  Every family but lr runs the uniform
     scheduler only. *)
  let run (d : (_, _, _) Desc.t) ?schedulers ~start ~target ~reach ~horizon
      time_report =
    let named =
      Option.value schedulers
        ~default:[ ("uniform", Sim.Scheduler.uniform d.pa) ]
    in
    match List.assoc_opt scheduler named, schedulers with
    | Some sched, _ ->
      let duration a = if d.is_tick a then 1 else 0 in
      Ok
        (Simulation
           { setup = { pa = d.pa; scheduler = sched; duration; start };
             target; reach; horizon; time_report })
    | None, Some _ -> Error (Printf.sprintf "unknown scheduler %S" scheduler)
    | None, None ->
      Error
        (Printf.sprintf "scheduler %S applies to the lr model only" scheduler)
  in
  match p.family with
  | `Lr when p.topology <> "ring" ->
    Error
      (Printf.sprintf "no Monte Carlo setup for the %s topology" p.topology)
  | `Lr ->
    let d = LR.Proof.describe { n; g; k } in
    run d ~schedulers:(LR.Schedulers.all d.pa)
      ~start:(LR.State.all_trying ~n ~g ~k) ~target:lr_target
      ~reach:"some process critical" ~horizon:(13 * g)
      (fun ~trials ~missed s ->
         let lo, hi = Proba.Stat.Summary.mean_ci s in
         Printf.sprintf
           "E[time to critical] ~ %.3f  (95%% CI [%.3f, %.3f], %d trials, \
            %d missed, scheduler %s; paper bound 63)\n"
           (mean s) lo hi trials missed scheduler)
  | `Election ->
    let params = { IR.Automaton.n; g; k } in
    run (IR.Proof.describe params) ~start:(IR.Automaton.start params)
      ~target:IR.Automaton.leader_elected ~reach:"leader elected"
      ~horizon:(2 * n * g)
      (fun ~trials ~missed s ->
         Printf.sprintf
           "E[election time] ~ %.3f  (%d trials, %d missed; derived bound \
            %d)\n"
           (mean s) trials missed
           (2 * (n - 1)))
  | `Coin ->
    let params = { SC.Automaton.n; bound = p.bound; g; k } in
    run (SC.Proof.describe params) ~start:(SC.Automaton.start params)
      ~target:(SC.Automaton.decided params) ~reach:"decided"
      ~horizon:(4 * p.bound * p.bound * g)
      (fun ~trials ~missed s ->
         Printf.sprintf
           "E[decision time] ~ %.3f  (%d trials, %d missed; B^2/n = %.3f)\n"
           (mean s) trials missed (SC.Proof.theory params))
  | `Consensus ->
    let params = { BO.Automaton.n; f; cap = p.cap; g; k } in
    run
      (BO.Proof.describe params ~initial)
      ~start:(BO.Automaton.start params initial)
      ~target:BO.Automaton.some_decided ~reach:"some process decided"
      ~horizon:(4 * p.cap * g)
      (fun ~trials ~missed s ->
         Printf.sprintf
           "E[decision time] ~ %.3f  (%d trials, %d missed; mixed start, \
            uniform scheduler)\n"
           (mean s) trials missed)

(* ------------------------------------------------------------------ *)
(* The walker of examples/quickstart.ml, registered here so the lint
   gate also covers the automaton shape the tutorial teaches. *)

module Walker = struct
  type state = Done | Walk of { c : int; b : int }
  type action = Tick | Flip

  let is_tick = function Tick -> true | Flip -> false

  let enabled = function
    | Done -> [ { Core.Pa.action = Tick; dist = D.point Done } ]
    | Walk { c; b } ->
      let tick =
        if c > 0 then
          [ { Core.Pa.action = Tick;
              dist = D.point (Walk { c = c - 1; b = 1 }) } ]
        else []
      in
      let flip =
        if b > 0 then
          [ { Core.Pa.action = Flip;
              dist = D.coin Done (Walk { c = 1; b = b - 1 }) } ]
        else []
      in
      tick @ flip

  let pa =
    Core.Pa.make
      ~pp_state:(fun fmt -> function
        | Done -> Format.pp_print_string fmt "done"
        | Walk { c; b } -> Format.fprintf fmt "walk(c=%d,b=%d)" c b)
      ~pp_action:(fun fmt a ->
          Format.pp_print_string fmt
            (match a with Tick -> "tick" | Flip -> "flip"))
      ~start:[ Walk { c = 1; b = 1 } ]
      ~enabled ()
end

(* ------------------------------------------------------------------ *)
(* Lint runners.  A case-study target resolves its instance through the
   registry and hands the instance's arena to the analysis, so a
   process that both checks and lints a model explores and compiles it
   once.

   Every case study also hands its declared symmetry spec to the
   analysis, so [prtb lint] verifies the generators (PA030), the
   predicate invariance (PA031) and nudges unreduced-but-symmetric runs
   (PA032) alongside the classic PA checks.  [sym] selects the
   exploration mode (the certificate gating the quotient is
   re-derived inside the analysis pass; lint targets are small enough
   that the duplicated verification is in the noise). *)

(* The checked arrows' claims by label, then the composed claim. *)
let claims arrows composed =
  List.filter_map
    (fun (a : _ Mdp.Checker.arrow) ->
       Option.map (fun c -> (a.label, c)) a.claim)
    arrows
  @ match composed with Ok c -> [ ("composed", c) ] | Error _ -> []

let lint_case name p ~max_states ?sym () =
  let run (d : (_, _, _) Desc.t) ~claims arena cert =
    Analysis.run_explored ~arena
      (Analysis.config ~name ~is_tick:d.is_tick ~claims ~max_states
         ~symmetry:d.spec ~sym_reduced:(cert <> None) d.pa)
      (Mdp.Arena.explored arena)
  in
  match resolve ~max_states ?sym p with
  | Lr i ->
    let arrows = LR.Proof.arrows i in
    run (LR.Proof.describe i.LR.Proof.params)
      ~claims:(claims arrows (LR.Proof.compose_arrows i arrows))
      i.LR.Proof.arena i.LR.Proof.sym
  | Lr_topo i ->
    let arrows = LR.Proof.arrows_topo i in
    run
      (LR.Proof.describe_topo ~topo:i.LR.Proof.topo ~g:i.LR.Proof.tg
         ~k:i.LR.Proof.tk)
      ~claims:(claims arrows (LR.Proof.compose_arrows_topo i arrows))
      i.LR.Proof.tarena i.LR.Proof.tsym
  | Election i ->
    let arrows = IR.Proof.arrows i in
    run (IR.Proof.describe i.IR.Proof.params)
      ~claims:(claims arrows (IR.Proof.compose_arrows arrows))
      i.IR.Proof.arena i.IR.Proof.sym
  | Coin i ->
    let arrows = SC.Proof.arrows i in
    run (SC.Proof.describe i.SC.Proof.params)
      ~claims:(claims arrows (SC.Proof.compose_arrows arrows))
      i.SC.Proof.arena i.SC.Proof.sym
  | Consensus i ->
    let { BO.Automaton.n; cap; _ } = i.BO.Proof.params in
    let arrow =
      BO.Proof.decision_arrow i ~rounds:cap ~prob:(Q.pow Q.half n)
    in
    run (BO.Proof.describe i.BO.Proof.params ~initial:i.BO.Proof.initial)
      ~claims:(claims [ arrow ] (Error "no composition"))
      i.BO.Proof.arena i.BO.Proof.sym

let lint_walker ~max_states ?sym:_ () =
  Analysis.run
    (Analysis.config ~name:"example:walker" ~is_tick:Walker.is_tick
       ~max_states Walker.pa)

let lint_race ~max_states ?sym:_ () =
  Analysis.run
    (Analysis.config ~name:"example:race"
       ~accept_terminal:(fun s ->
           s.Race.p <> Race.Unflipped && s.Race.q <> Race.Unflipped)
       ~max_states Race.pa)

let lint_lr_crash ~max_states ?sym:_ () =
  let config =
    { Faults.Lr.params = { LR.Automaton.n = 3; g = 1; k = 1 };
      faults = Faults.Fault.v ~crash:1 ();
      release = true }
  in
  let inst = Faults.Lr.explore ~max_states config in
  let d = Faults.Lr.derivation inst in
  let arena = inst.Faults.Lr.arena in
  Analysis.run_explored ~arena
    (Analysis.config ~name:"lr-crash" ~is_tick:Faults.Lr.is_tick
       ~claims:
         (claims [ d.Faults.Lr.arrow1; d.Faults.Lr.arrow2 ]
            d.Faults.Lr.composed)
       ~fault_view:
         (Faults.Inject.faulted,
          Faults.Inject.effective_proc Faults.Lr.proc_of_action)
       (Mdp.Arena.automaton arena))
    (Mdp.Arena.explored arena)

(* The proof-module builders explore eagerly, so a tight state budget
   surfaces as [Too_many_states] before [Analysis.run_explored] can
   shield it; report it as PA000 like the library does instead of
   letting the exception escape to the CLI.  [Not_certified] (a
   [--sym on] build whose declared group failed to verify) likewise
   becomes an error report, so [prtb lint --strict] fails on it
   instead of crashing. *)
let guard name runner ~max_states ?sym () =
  try runner ~max_states ?sym () with
  | Mdp.Explore.Too_many_states n ->
    (* At raise time exactly [n] states had been interned, so [n] is
       the partial state count, not just the configured ceiling. *)
    Analysis.Report.make
      { Analysis.Report.model = name; states = n; choices = 0;
        branches = 0;
        skipped = [ "all checks (exploration exceeded the state budget)" ] }
      [ Analysis.Diagnostic.v Analysis.Diagnostic.PA000
          Analysis.Diagnostic.Warning ~model:name
          (Printf.sprintf
             "exploration stopped after interning %d states while building \
              the model; all checks skipped (raise --max-states)"
             n) ]
  | Sym.Not_certified msg ->
    Analysis.Report.make
      { Analysis.Report.model = name; states = 0; choices = 0;
        branches = 0;
        skipped = [ "all checks (symmetry certification failed)" ] }
      [ Analysis.Diagnostic.v Analysis.Diagnostic.PA030
          Analysis.Diagnostic.Error ~model:name msg ]

(* ------------------------------------------------------------------ *)
(* The lint targets *)

type entry = {
  name : string;
  doc : string;
  lint :
    max_states:int -> ?sym:Sym.mode -> unit -> Analysis.Report.t;
}

(* The [-sym] variants pin the exploration mode to [On]: they lint the
   certified orbit quotient (and fail loudly if certification breaks),
   whatever [--sym] the caller passed. *)
let force_on runner ~max_states ?sym:_ () =
  runner ~max_states ?sym:(Some Sym.On) ()

let entries =
  let case ?(topology = "ring") ?(bound = 0) ?(cap = 0) name family n =
    lint_case name { family; n; g = 1; k = 1; topology; bound; cap }
  in
  let lr = case "lr" `Lr 3
  and election = case "election" `Election 3
  and coin = case "coin" `Coin 2 ~bound:3
  and consensus = case "consensus" `Consensus 3 ~cap:2 in
  List.map (fun (name, doc, runner) ->
      { name; doc; lint = guard name runner })
  @@
  [ ("lr", "Lehmann-Rabin ring (n=3) + Section 6.2 claims", lr);
    ("lr-line", "Lehmann-Rabin line topology (n=3)",
     case "lr-line" `Lr 3 ~topology:"line");
    ("lr-star", "Lehmann-Rabin star topology (n=3)",
     case "lr-star" `Lr 3 ~topology:"star");
    ("election", "Itai-Rodeh leader election (n=3) + ladder claims",
     election);
    ("coin", "shared coin (n=2, barrier 3) + ladder claims", coin);
    ("consensus", "Ben-Or (n=3, f=1, 2 rounds) + decision claim",
     consensus);
    ("lr-sym", "lr on the certified rotation-orbit quotient", force_on lr);
    ("election-sym", "election on the certified transposition quotient",
     force_on election);
    ("coin-sym", "coin on the certified transposition quotient",
     force_on coin);
    ("consensus-sym", "consensus on the certified equal-input quotient",
     force_on consensus);
    ("lr-crash",
     "Lehmann-Rabin ring (n=3) under one crash + degraded claims",
     lint_lr_crash);
    ("example:walker", "the quickstart walker automaton", lint_walker);
    ("example:race", "the Example 4.1 two-coin automaton", lint_race) ]

let find_opt name =
  List.find_opt (fun e -> String.equal e.name name) entries
