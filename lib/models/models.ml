module Q = Proba.Rational
module D = Proba.Dist
module J = Analysis.Json
module Sym = Analysis.Symmetry
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or
module Race = Race

(* ------------------------------------------------------------------ *)
(* The case-study table.

   Everything the surfaces (the wire protocol, the service, the
   snapshot store, the CLI) know about a model family lives below:
   its names, its parameter ranges, the consensus conventions, how a
   parameter tuple resolves to a memoized instance, and what each
   surface prints about that instance.  Behaviour that depends on the
   automaton's types is a match over the closed [instance] variant;
   plain data is a row of [case_studies]. *)

type family = [ `Lr | `Election | `Coin | `Consensus ]

type case_study = {
  family : family;
  name : string;
  aliases : string list;
  min_n : int;  (* the automaton's own precondition *)
}

let case_studies =
  [ { family = `Lr; name = "lr"; aliases = [ "lehmann-rabin"; "dining" ];
      min_n = 2 };
    { family = `Election; name = "election"; aliases = [ "itai-rodeh" ];
      min_n = 2 };
    { family = `Coin; name = "coin"; aliases = [ "shared-coin" ]; min_n = 1 };
    { family = `Consensus; name = "consensus"; aliases = [ "ben-or" ];
      min_n = 1 } ]

let default = `Lr

let case_study f = List.find (fun c -> c.family = f) case_studies
let name f = (case_study f).name

let of_name s =
  List.find_map
    (fun c ->
       if String.equal c.name s || List.mem s c.aliases then Some c.family
       else None)
    case_studies

type params = {
  family : family;
  n : int;
  g : int;
  k : int;
  topology : string;
  bound : int;
  cap : int;
}

(* Every surface runs Ben-Or with the largest fault bound [n] tolerates
   and a mixed start: process [n-1] proposes 1, the others 0. *)
let consensus_f n = (n - 1) / 2
let consensus_initial n = Array.init n (fun i -> i = n - 1)

let sim_params family ~n =
  { family; n; g = 1; k = 1; topology = "ring"; bound = 4; cap = 50 }

let invalid p =
  let least field v m =
    if v >= m then None
    else
      Some
        ( field,
          Printf.sprintf "must be at least %d for %s (got %d)" m
            (name p.family) v )
  in
  let topology =
    match p.family, p.topology with
    | `Lr, ("ring" | "line" | "star") -> None
    | (`Election | `Coin | `Consensus), "ring" -> None
    | `Lr, t ->
      Some
        ("topology", Printf.sprintf "must be ring, line or star (got %S)" t)
    | _, t ->
      Some
        ("topology", Printf.sprintf "applies to the lr model only (got %S)" t)
  in
  let read =
    match p.family with
    | `Coin -> [ least "bound" p.bound 1 ]
    | `Consensus -> [ least "cap" p.cap 1 ]
    | `Lr | `Election -> []
  in
  List.find_map Fun.id
    ([ topology; least "n" p.n (case_study p.family).min_n; least "g" p.g 1;
       least "k" p.k 1 ]
     @ read)

let normalize p =
  let neutral = { p with topology = "ring"; bound = 0; cap = 0 } in
  match p.family with
  | `Lr -> ({ neutral with topology = p.topology }, 0, [||])
  | `Election -> (neutral, 0, [||])
  | `Coin -> ({ neutral with bound = p.bound }, 0, [||])
  | `Consensus ->
    ({ neutral with cap = p.cap }, consensus_f p.n, consensus_initial p.n)

(* ------------------------------------------------------------------ *)
(* Instances, and what the registry builds them from. *)

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

(* What to build: exactly the parameters an instance carries, so the
   key computed before a build and the one read off a built or loaded
   instance are the same string. *)
type build =
  | B_lr of LR.Automaton.params
  | B_lr_topo of LR.Topology.t * int * int
  | B_election of IR.Automaton.params
  | B_coin of SC.Automaton.params
  | B_consensus of BO.Automaton.params * bool array

let build_of_params p =
  let { n; g; k; _ } = p in
  match p.family, p.topology with
  | `Lr, "line" -> B_lr_topo (LR.Topology.line n, g, k)
  | `Lr, "star" -> B_lr_topo (LR.Topology.star n, g, k)
  | `Lr, _ -> B_lr { LR.Automaton.n; g; k }
  | `Election, _ -> B_election { IR.Automaton.n; g; k }
  | `Coin, _ -> B_coin { SC.Automaton.n; bound = p.bound; g; k }
  | `Consensus, _ ->
    B_consensus
      ( { BO.Automaton.n; f = consensus_f n; cap = p.cap; g; k },
        consensus_initial n )

let build_of_instance = function
  | Lr i -> B_lr i.LR.Proof.params
  | Lr_topo i -> B_lr_topo (i.LR.Proof.topo, i.LR.Proof.tg, i.LR.Proof.tk)
  | Election i -> B_election i.IR.Proof.params
  | Coin i -> B_coin i.SC.Proof.params
  | Consensus i -> B_consensus (i.BO.Proof.params, i.BO.Proof.initial)

let opt_int = function None -> "" | Some m -> string_of_int m

let key ~max_states ~sym build =
  let budget =
    Printf.sprintf "max_states=%s&sym=%s" (opt_int max_states)
      (Sym.mode_to_string sym)
  in
  match build with
  | B_lr { LR.Automaton.n; g; k } ->
    Printf.sprintf "lr?n=%d&g=%d&k=%d&%s" n g k budget
  | B_lr_topo (topo, g, k) ->
    Printf.sprintf "lr-topo?topo=%s&g=%d&k=%d&%s" (LR.Topology.name topo) g
      k budget
  | B_election { IR.Automaton.n; g; k } ->
    Printf.sprintf "election?n=%d&g=%d&k=%d&%s" n g k budget
  | B_coin { SC.Automaton.n; bound; g; k } ->
    Printf.sprintf "coin?n=%d&bound=%d&g=%d&k=%d&%s" n bound g k budget
  | B_consensus ({ BO.Automaton.n; f; cap; g; k }, initial) ->
    let bits =
      String.init (Array.length initial) (fun i ->
          if initial.(i) then '1' else '0')
    in
    Printf.sprintf "consensus?n=%d&f=%d&cap=%d&initial=%s&g=%d&k=%d&%s" n f
      cap bits g k budget

let construct ?max_states ~sym = function
  | B_lr { LR.Automaton.n; g; k } ->
    Lr (LR.Proof.build ?max_states ~g ~k ~sym ~n ())
  | B_lr_topo (topo, g, k) ->
    Lr_topo (LR.Proof.build_topo ?max_states ~g ~k ~sym ~topo ())
  | B_election { IR.Automaton.n; g; k } ->
    Election (IR.Proof.build ?max_states ~g ~k ~sym ~n ())
  | B_coin { SC.Automaton.n; bound; g; k } ->
    Coin (SC.Proof.build ?max_states ~g ~k ~sym ~n ~bound ())
  | B_consensus ({ BO.Automaton.n; f; cap; g; k }, initial) ->
    Consensus (BO.Proof.build ?max_states ~g ~k ~sym ~n ~f ~cap ~initial ())

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
(* The registry.

   Every surface (prtb subcommands, the verification server, the lint
   targets, the experiment harness, the benchmarks) resolves case-study
   instances through [obtain], so within one process invocation each
   (model, parameters) pair is explored and compiled exactly once no
   matter how many surfaces touch it.

   The registry is domain-safe: [prtb serve] workers hit it
   concurrently.  One mutex guards the table and counters; builds run
   OUTSIDE the lock (so distinct keys explore in parallel) with the key
   marked in [building], and domains asking for an in-flight key wait
   on [built_cond].  The result is the build-once guarantee under
   contention: N domains requesting the same key perform exactly one
   exploration and one compile (asserted by the multi-domain hammer in
   test/test_models.ml).

   Caching is optionally bounded: [set_capacity (Some bytes)] makes the
   table an LRU with per-instance costs estimated from the compiled
   arena size.  The server wires [--cache-mb] here; the CLI default
   stays unbounded (process lifetimes are one query long). *)

let mu = Mutex.create ()
let built_cond = Condition.create ()

let builds_counter = ref 0
let hits_counter = ref 0
let evictions_counter = ref 0
let clock = ref 0
let total_cost = ref 0
let capacity_ref : int option ref = ref None

type cached = { inst : instance; cost : int; mutable last : int }

let table : (string, cached) Hashtbl.t = Hashtbl.create 32
let building : (string, unit) Hashtbl.t = Hashtbl.create 8

let next_tick () =
  incr clock;
  !clock

(* Called with [mu] held. *)
let evict_over_capacity () =
  match !capacity_ref with
  | None -> ()
  | Some cap ->
    while !total_cost > cap && Hashtbl.length table > 0 do
      let oldest =
        Hashtbl.fold
          (fun key e acc ->
             match acc with
             | Some (_, e') when e'.last <= e.last -> acc
             | Some _ | None -> Some (key, e))
          table None
      in
      match oldest with
      | None -> ()
      | Some (key, e) ->
        Hashtbl.remove table key;
        total_cost := !total_cost - e.cost;
        incr evictions_counter
    done

let set_capacity cap =
  Mutex.lock mu;
  capacity_ref := cap;
  evict_over_capacity ();
  Mutex.unlock mu

(* Rough retained size of an instance: CSR rows, the interned state
   values and the memo overhead, all order-of-magnitude -- the LRU
   needs proportionality, not precision. *)
let cost inst =
  with_arena inst
    { visit =
        (fun arena _ _ -> 4096 + (512 * Mdp.Arena.num_states arena)) }

(* Called with [mu] held. *)
let insert key inst =
  let c = cost inst in
  Hashtbl.replace table key { inst; cost = c; last = next_tick () };
  total_cost := !total_cost + c;
  evict_over_capacity ()

let obtain ?max_states ~sym build =
  let key = key ~max_states ~sym build in
  Mutex.lock mu;
  let rec go () =
    match Hashtbl.find_opt table key with
    | Some e ->
      incr hits_counter;
      e.last <- next_tick ();
      Mutex.unlock mu;
      e.inst
    | None ->
      if Hashtbl.mem building key then begin
        Condition.wait built_cond mu;
        go ()
      end
      else begin
        Hashtbl.add building key ();
        Mutex.unlock mu;
        let result =
          try Ok (construct ?max_states ~sym build)
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
          insert key inst;
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
let seed ?max_states ~sym build inst =
  let key = key ~max_states ~sym build in
  Mutex.lock mu;
  let fresh = not (Hashtbl.mem table key || Hashtbl.mem building key) in
  if fresh then insert key inst;
  Mutex.unlock mu;
  fresh

let resolve ?max_states ?(sym = Sym.Off) p =
  obtain ?max_states ~sym (build_of_params p)

let preload ?max_states ~sym inst =
  seed ?max_states ~sym (build_of_instance inst) inst

(* The typed builders: [obtain] of a [B_x] build always yields an [X]. *)

let lr ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~n () =
  match obtain ?max_states ~sym (B_lr { n; g; k }) with
  | Lr i -> i
  | _ -> assert false

let lr_topo ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~topo () =
  match obtain ?max_states ~sym (B_lr_topo (topo, g, k)) with
  | Lr_topo i -> i
  | _ -> assert false

let election ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~n () =
  match obtain ?max_states ~sym (B_election { n; g; k }) with
  | Election i -> i
  | _ -> assert false

let coin ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~n ~bound () =
  match obtain ?max_states ~sym (B_coin { n; bound; g; k }) with
  | Coin i -> i
  | _ -> assert false

let consensus ?max_states ?(g = 1) ?(k = 1) ?(sym = Sym.Off) ~n ~f ~cap
    ~initial () =
  match obtain ?max_states ~sym (B_consensus ({ n; f; cap; g; k }, initial))
  with
  | Consensus i -> i
  | _ -> assert false

let preload_lr ?max_states ~g ~k ~sym ~n i =
  seed ?max_states ~sym (B_lr { n; g; k }) (Lr i)

let preload_lr_topo ?max_states ~g ~k ~sym ~topo i =
  seed ?max_states ~sym (B_lr_topo (topo, g, k)) (Lr_topo i)

let preload_election ?max_states ~g ~k ~sym ~n i =
  seed ?max_states ~sym (B_election { n; g; k }) (Election i)

let preload_coin ?max_states ~g ~k ~sym ~n ~bound i =
  seed ?max_states ~sym (B_coin { n; bound; g; k }) (Coin i)

let preload_consensus ?max_states ~g ~k ~sym ~n ~f ~cap ~initial i =
  seed ?max_states ~sym (B_consensus ({ n; f; cap; g; k }, initial))
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
  let s =
    { explorations = Mdp.Explore.explorations ();
      compiles = Mdp.Arena.compiles ();
      builds = !builds_counter;
      cache_hits = !hits_counter;
      evictions = !evictions_counter;
      cached_entries = Hashtbl.length table;
      cached_bytes = !total_cost }
  in
  Mutex.unlock mu;
  s

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

let params_json p =
  [ ("n", J.Int p.n); ("g", J.Int p.g); ("k", J.Int p.k) ]
  @
  match p.family with
  | `Lr -> [ ("topology", J.Str p.topology) ]
  | `Coin -> [ ("bound", J.Int p.bound) ]
  | `Consensus -> [ ("cap", J.Int p.cap) ]
  | `Election -> []

let lr_arrow_json (a : LR.Proof.arrow) =
  J.Obj
    [ ("label", J.Str a.LR.Proof.label);
      ("pre", J.Str (Core.Pred.name a.LR.Proof.pre));
      ("post", J.Str (Core.Pred.name a.LR.Proof.post));
      ("time", rat a.LR.Proof.time);
      ("prob", rat a.LR.Proof.prob);
      ("attained", rat a.LR.Proof.attained);
      ("holds", J.Bool (a.LR.Proof.claim <> None)) ]

let ladder_arrow_json ~label ~time ~prob ~attained ~holds =
  J.Obj
    [ ("label", J.Str label); ("time", rat time); ("prob", rat prob);
      ("attained", rat attained); ("holds", J.Bool holds) ]

let check_fields inst =
  let states = ("states", J.Int (body_states inst)) in
  match inst with
  | Lr i ->
    let arrows = LR.Proof.arrows i in
    [ states;
      ("invariant", holds (LR.Invariant.check i.LR.Proof.expl));
      ("arrows", J.Arr (List.map lr_arrow_json arrows));
      ("composed", composed_json (LR.Proof.compose_arrows i arrows));
      ("direct_bound", rat (LR.Proof.direct_bound i));
      ( "expected_bound",
        rat (Core.Expected.value (LR.Proof.expected_bound ())) );
      ("max_expected_time", J.Num (LR.Proof.max_expected_time i)) ]
  | Lr_topo i ->
    let arrows = LR.Proof.arrows_topo i in
    [ states;
      ("invariant", holds (LR.Proof.invariant_topo i));
      ("arrows", J.Arr (List.map lr_arrow_json arrows));
      ("composed", composed_json (LR.Proof.compose_arrows_topo i arrows));
      ("direct_bound", rat (LR.Proof.direct_bound_topo i));
      ("max_expected_time", J.Num (LR.Proof.max_expected_time_topo i)) ]
  | Election i ->
    let arrow (a : IR.Proof.arrow) =
      ladder_arrow_json ~label:a.IR.Proof.label ~time:a.IR.Proof.time
        ~prob:a.IR.Proof.prob ~attained:a.IR.Proof.attained
        ~holds:(a.IR.Proof.claim <> None)
    in
    let arrows = IR.Proof.arrows i in
    [ states;
      ("arrows", J.Arr (List.map arrow arrows));
      ("composed", composed_json (IR.Proof.compose_arrows arrows));
      ( "expected_bound",
        rat
          (Core.Expected.value
             (IR.Proof.expected_bound ~n:i.IR.Proof.params.IR.Automaton.n)) );
      ("max_expected_time", J.Num (IR.Proof.max_expected_time i)) ]
  | Coin i ->
    let arrow (a : SC.Proof.arrow) =
      ladder_arrow_json ~label:a.SC.Proof.label ~time:a.SC.Proof.time
        ~prob:a.SC.Proof.prob ~attained:a.SC.Proof.attained
        ~holds:(a.SC.Proof.claim <> None)
    in
    let arrows = SC.Proof.arrows i in
    [ states;
      ("arrows", J.Arr (List.map arrow arrows));
      ("composed", composed_json (SC.Proof.compose_arrows arrows));
      ("direct_bound", rat (SC.Proof.direct_bound i));
      ("expected_exact", J.Num (SC.Proof.expected_exact i));
      ("expected_theory", J.Num (SC.Proof.expected_theory i)) ]
  | Consensus i ->
    let { BO.Automaton.f; cap; _ } = i.BO.Proof.params in
    let curve =
      BO.Proof.decision_curve i ~rounds:(List.init cap (fun r -> r + 1))
    in
    [ states;
      ("f", J.Int f);
      ("agreement", holds (BO.Proof.agreement_violation i));
      ( "decision_curve",
        J.Arr
          (List.mapi
             (fun idx p ->
                J.Obj [ ("rounds", J.Int (idx + 1)); ("min_prob", rat p) ])
             curve) ) ]

(* ------------------------------------------------------------------ *)
(* Certificates. *)

let leaf_params p =
  let s = string_of_int in
  match p.family with
  | `Lr -> [ ("g", s p.g); ("k", s p.k); ("topology", p.topology) ]
  | `Election -> [ ("g", s p.g); ("k", s p.k) ]
  | `Coin -> [ ("bound", s p.bound); ("g", s p.g); ("k", s p.k) ]
  | `Consensus ->
    [ ("cap", s p.cap); ("f", s (consensus_f p.n)); ("g", s p.g);
      ("k", s p.k) ]

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

(* The ladder rungs as [label attained (verdict)] lines, then the
   composition. *)
let print_ladder width rungs composed =
  List.iter
    (fun (label, attained, holds) ->
       Format.printf "%-*s attained %s (%s)@." width label
         (Q.to_string attained)
         (if holds then "holds" else "FAILS"))
    rungs;
  match composed with
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
    List.iter
      (fun a ->
         Format.printf "%-5s %s -%s->_%s %s : attained %s (%s)@."
           a.LR.Proof.label
           (Core.Pred.name a.LR.Proof.pre)
           (Q.to_string a.LR.Proof.time) (Q.to_string a.LR.Proof.prob)
           (Core.Pred.name a.LR.Proof.post)
           (Q.to_string a.LR.Proof.attained)
           (if a.LR.Proof.claim <> None then "holds" else "FAILS"))
      arrows;
    (match LR.Proof.compose_arrows i arrows with
     | Ok claim ->
       Format.printf "@.composed: %a@.@.%a@." Core.Claim.pp claim
         Core.Claim.pp_derivation claim
     | Error e -> Printf.printf "composition failed: %s\n" e);
    Format.printf "@.expected-time derivation:@.%a@." Core.Expected.pp
      (LR.Proof.expected_bound ());
    Printf.printf "measured worst-case expected time: %.3f\n"
      (LR.Proof.max_expected_time i)
  | Lr_topo i ->
    lemma_6_1 " (generalized)" (LR.Proof.invariant_topo i);
    let arrows = LR.Proof.arrows_topo i in
    print_ladder 5
      (List.map
         (fun a ->
            (a.LR.Proof.label, a.LR.Proof.attained, a.LR.Proof.claim <> None))
         arrows)
      (LR.Proof.compose_arrows_topo i arrows);
    Printf.printf "direct 13-unit minimum: %s; worst expected time: %.3f\n"
      (Q.to_string (LR.Proof.direct_bound_topo i))
      (LR.Proof.max_expected_time_topo i)
  | Election i ->
    let arrows = IR.Proof.arrows i in
    print_ladder 4
      (List.map
         (fun a ->
            (a.IR.Proof.label, a.IR.Proof.attained, a.IR.Proof.claim <> None))
         arrows)
      (IR.Proof.compose_arrows arrows);
    Printf.printf "expected bound: %s; measured worst case: %.3f\n"
      (Q.to_string
         (Core.Expected.value
            (IR.Proof.expected_bound ~n:i.IR.Proof.params.IR.Automaton.n)))
      (IR.Proof.max_expected_time i)
  | Coin i ->
    let arrows = SC.Proof.arrows i in
    print_ladder 4
      (List.map
         (fun a ->
            (a.SC.Proof.label, a.SC.Proof.attained, a.SC.Proof.claim <> None))
         arrows)
      (SC.Proof.compose_arrows arrows);
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
let report ?sym p =
  (match build_of_params p with
   | B_lr { LR.Automaton.n; g; k } ->
     Printf.printf "Lehmann-Rabin, n=%d g=%d k=%d\n%!" n g k
   | B_lr_topo (topo, g, k) ->
     Printf.printf "Lehmann-Rabin on %s, g=%d k=%d\n%!"
       (LR.Topology.name topo) g k
   | B_election { IR.Automaton.n; _ } ->
     Printf.printf "Leader election, n=%d\n%!" n
   | B_coin { SC.Automaton.n; bound; _ } ->
     Printf.printf "Shared coin, n=%d barrier=±%d\n%!" n bound
   | B_consensus ({ BO.Automaton.n; f; cap; _ }, _) ->
     Printf.printf
       "Ben-Or consensus, n=%d f=%d cap=%d rounds, mixed start\n%!" n f cap);
  print_body (resolve ?sym p)

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
  let sim setup ~target ~reach ~horizon time_report =
    Simulation { setup; target; reach; horizon; time_report }
  in
  (* Every family but lr runs the uniform scheduler only. *)
  let uniform pa ~duration ~start =
    if scheduler = "uniform" then
      Ok { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
           duration; start }
    else
      Error
        (Printf.sprintf "scheduler %S applies to the lr model only" scheduler)
  in
  let mean = Proba.Stat.Summary.mean in
  match build_of_params p with
  | B_lr_topo _ ->
    Error
      (Printf.sprintf "no Monte Carlo setup for the %s topology" p.topology)
  | B_lr ({ LR.Automaton.n; g; k } as params) ->
    let pa = LR.Automaton.make params in
    (match List.assoc_opt scheduler (LR.Schedulers.all pa) with
     | None -> Error (Printf.sprintf "unknown scheduler %S" scheduler)
     | Some sched ->
       Ok
         (sim
            { Sim.Monte_carlo.pa; scheduler = sched;
              duration = LR.Automaton.duration;
              start = LR.State.all_trying ~n ~g ~k }
            ~target:lr_target ~reach:"some process critical"
            ~horizon:(13 * g)
            (fun ~trials ~missed s ->
               let lo, hi = Proba.Stat.Summary.mean_ci s in
               Printf.sprintf
                 "E[time to critical] ~ %.3f  (95%% CI [%.3f, %.3f], %d \
                  trials, %d missed, scheduler %s; paper bound 63)\n"
                 (mean s) lo hi trials missed scheduler)))
  | B_election ({ IR.Automaton.n; g; _ } as params) ->
    uniform (IR.Automaton.make params) ~duration:IR.Automaton.duration
      ~start:(IR.Automaton.start params)
    |> Result.map (fun setup ->
        sim setup ~target:IR.Automaton.leader_elected ~reach:"leader elected"
          ~horizon:(2 * n * g)
          (fun ~trials ~missed s ->
             Printf.sprintf
               "E[election time] ~ %.3f  (%d trials, %d missed; derived \
                bound %d)\n"
               (mean s) trials missed
               (2 * (n - 1))))
  | B_coin ({ SC.Automaton.bound; g; _ } as params) ->
    uniform (SC.Automaton.make params) ~duration:SC.Automaton.duration
      ~start:(SC.Automaton.start params)
    |> Result.map (fun setup ->
        sim setup ~target:(SC.Automaton.decided params) ~reach:"decided"
          ~horizon:(4 * bound * bound * g)
          (fun ~trials ~missed s ->
             Printf.sprintf
               "E[decision time] ~ %.3f  (%d trials, %d missed; B^2/n = \
                %.3f)\n"
               (mean s) trials missed (SC.Proof.theory params)))
  | B_consensus (({ BO.Automaton.cap; g; _ } as params), initial) ->
    uniform
      (BO.Automaton.make ~initial params)
      ~duration:BO.Automaton.duration
      ~start:(BO.Automaton.start params initial)
    |> Result.map (fun setup ->
        sim setup ~target:BO.Automaton.some_decided
          ~reach:"some process decided" ~horizon:(4 * cap * g)
          (fun ~trials ~missed s ->
             Printf.sprintf
               "E[decision time] ~ %.3f  (%d trials, %d missed; mixed \
                start, uniform scheduler)\n"
               (mean s) trials missed))

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
let claims ~label ~claim arrows composed =
  List.filter_map
    (fun a -> Option.map (fun c -> (label a, c)) (claim a))
    arrows
  @ match composed with Ok c -> [ ("composed", c) ] | Error _ -> []

let lint_case name p ~max_states ?sym () =
  let run ~is_tick ~symmetry ~claims arena expl cert =
    Analysis.run_explored ~arena
      (Analysis.config ~name ~is_tick ~claims ~max_states ~symmetry
         ~sym_reduced:(cert <> None) (Mdp.Explore.automaton expl))
      expl
  in
  let lr_claims arrows =
    claims arrows ~label:(fun a -> a.LR.Proof.label)
      ~claim:(fun a -> a.LR.Proof.claim)
  in
  match resolve ~max_states ?sym p with
  | Lr i ->
    let arrows = LR.Proof.arrows i in
    run ~is_tick:LR.Automaton.is_tick
      ~symmetry:(LR.Symmetry.ring ~n:i.LR.Proof.params.LR.Automaton.n ())
      ~claims:(lr_claims arrows (LR.Proof.compose_arrows i arrows))
      i.LR.Proof.arena i.LR.Proof.expl i.LR.Proof.sym
  | Lr_topo i ->
    let arrows = LR.Proof.arrows_topo i in
    run ~is_tick:LR.Automaton.is_tick
      ~symmetry:(LR.Symmetry.spec i.LR.Proof.topo)
      ~claims:(lr_claims arrows (LR.Proof.compose_arrows_topo i arrows))
      i.LR.Proof.tarena i.LR.Proof.texpl i.LR.Proof.tsym
  | Election i ->
    let arrows = IR.Proof.arrows i in
    run ~is_tick:IR.Automaton.is_tick
      ~symmetry:(IR.Symmetry.spec i.IR.Proof.params)
      ~claims:
        (claims arrows (IR.Proof.compose_arrows arrows)
           ~label:(fun a -> a.IR.Proof.label)
           ~claim:(fun a -> a.IR.Proof.claim))
      i.IR.Proof.arena i.IR.Proof.expl i.IR.Proof.sym
  | Coin i ->
    let arrows = SC.Proof.arrows i in
    run ~is_tick:SC.Automaton.is_tick
      ~symmetry:(SC.Symmetry.spec i.SC.Proof.params)
      ~claims:
        (claims arrows (SC.Proof.compose_arrows arrows)
           ~label:(fun a -> a.SC.Proof.label)
           ~claim:(fun a -> a.SC.Proof.claim))
      i.SC.Proof.arena i.SC.Proof.expl i.SC.Proof.sym
  | Consensus i ->
    let { BO.Automaton.n; cap; _ } = i.BO.Proof.params in
    let arrow =
      BO.Proof.decision_arrow i ~rounds:cap ~prob:(Q.pow Q.half n)
    in
    run ~is_tick:BO.Automaton.is_tick
      ~symmetry:(BO.Symmetry.spec i.BO.Proof.params ~initial:i.BO.Proof.initial)
      ~claims:
        (claims [ arrow ] (Error "no composition")
           ~label:(fun a -> a.BO.Proof.label)
           ~claim:(fun a -> a.BO.Proof.claim))
      i.BO.Proof.arena i.BO.Proof.expl i.BO.Proof.sym

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
  let d = Faults.Lr.derive ~max_states config in
  Analysis.run
    (Analysis.config ~name:"lr-crash" ~is_tick:Faults.Lr.is_tick
       ~claims:
         (claims
            [ d.Faults.Lr.arrow1; d.Faults.Lr.arrow2 ]
            d.Faults.Lr.composed
            ~label:(fun (a : Faults.Lr.arrow) -> a.Faults.Lr.label)
            ~claim:(fun a -> a.Faults.Lr.claim))
       ~fault_view:
         (Faults.Inject.faulted,
          Faults.Inject.effective_proc Faults.Lr.proc_of_action)
       ~max_states
       (Faults.Lr.make config))

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
