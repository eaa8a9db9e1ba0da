(* Tests for the model registry's domain safety and LRU accounting:
   domains hammering the same key must trigger exactly one exploration
   and one arena compile (the waiters block on the build-in-progress
   marker and come back as cache hits), and a bounded registry must
   evict by recency.  Counters are process-global, so every test reads
   deltas against a snapshot rather than absolute values. *)

module LR = Lehmann_rabin

let snapshot () = Models.stats ()

let delta (a : Models.stats) (b : Models.stats) =
  ( b.Models.explorations - a.Models.explorations,
    b.Models.compiles - a.Models.compiles,
    b.Models.builds - a.Models.builds,
    b.Models.cache_hits - a.Models.cache_hits )

(* Modest domain counts: the CI container has one core, and the point
   is interleaving under the registry lock, not throughput. *)
let hammer_domains = 4

let test_hammer_one_key () =
  let before = snapshot () in
  let barrier = Atomic.make 0 in
  let spawned =
    List.init hammer_domains (fun _ ->
        Domain.spawn (fun () ->
            (* Line the domains up so the build races for real. *)
            Atomic.incr barrier;
            while Atomic.get barrier < hammer_domains do
              Domain.cpu_relax ()
            done;
            let inst = Models.lr ~n:3 ~g:1 ~k:1 () in
            Mdp.Arena.num_states inst.LR.Proof.arena))
  in
  let states = List.map Domain.join spawned in
  let explorations, compiles, builds, hits = delta before (snapshot ()) in
  Alcotest.(check int) "one exploration" 1 explorations;
  Alcotest.(check int) "one compile" 1 compiles;
  Alcotest.(check int) "one build" 1 builds;
  Alcotest.(check int) "rest are hits" (hammer_domains - 1) hits;
  (match states with
   | s :: rest ->
     List.iter (Alcotest.(check int) "same instance" s) rest
   | [] -> Alcotest.fail "no domains ran")

let test_hammer_distinct_keys () =
  (* Distinct keys must not serialize behind one another's builds, and
     each key still builds exactly once. *)
  let before = snapshot () in
  let spawned =
    List.init hammer_domains (fun i ->
        Domain.spawn (fun () ->
            let n = 2 + (i mod 2) in
            ignore (Models.election ~n ())))
  in
  List.iter Domain.join spawned;
  let explorations, compiles, builds, hits = delta before (snapshot ()) in
  Alcotest.(check int) "two explorations" 2 explorations;
  Alcotest.(check int) "two compiles" 2 compiles;
  Alcotest.(check int) "two builds" 2 builds;
  Alcotest.(check int) "rest are hits" (hammer_domains - 2) hits

let test_repeat_is_hit () =
  let before = snapshot () in
  ignore (Models.coin ~n:2 ~bound:2 ());
  ignore (Models.coin ~n:2 ~bound:2 ());
  ignore (Models.coin ~n:2 ~bound:3 ());
  let explorations, compiles, builds, hits = delta before (snapshot ()) in
  Alcotest.(check int) "two explorations" 2 explorations;
  Alcotest.(check int) "two compiles" 2 compiles;
  Alcotest.(check int) "two builds" 2 builds;
  Alcotest.(check int) "one hit" 1 hits

let test_eviction_by_capacity () =
  let before = snapshot () in
  (* Tight capacity: barely fits one small instance, so the second
     build must push the first out. *)
  Models.set_capacity (Some 1);
  Fun.protect
    ~finally:(fun () -> Models.set_capacity None)
    (fun () ->
       ignore (Models.lr ~n:2 ());
       ignore (Models.election ~n:2 ());
       let s = snapshot () in
       let evictions = s.Models.evictions - before.Models.evictions in
       Alcotest.(check bool) "evictions happened" true (evictions >= 1);
       (* Each entry overflows the 1-byte capacity on insert, so the
          registry ends the sequence empty and a re-request rebuilds. *)
       let before_rebuild = snapshot () in
       ignore (Models.lr ~n:2 ());
       let _, _, builds, hits = delta before_rebuild (snapshot ()) in
       Alcotest.(check int) "rebuilt after eviction" 1 builds;
       Alcotest.(check int) "no hit" 0 hits)

let test_unbounded_keeps_entries () =
  (* With the bound lifted (the CLI default), repeats keep hitting. *)
  let before = snapshot () in
  ignore (Models.lr ~n:2 ());
  ignore (Models.lr ~n:2 ());
  let _, _, builds, hits = delta before (snapshot ()) in
  Alcotest.(check int) "one build" 1 builds;
  Alcotest.(check int) "one hit" 1 hits

(* The text report honours a state ceiling, and a refused build leaves
   nothing in the registry. *)
let test_report_state_ceiling () =
  let before = snapshot () in
  (match
     Models.report ~max_states:100
       { Models.family = `Lr; n = 3; g = 1; k = 1; topology = "ring";
         bound = 0; cap = 0 }
   with
   | () -> Alcotest.fail "lr n=3 fits in 100 states"
   | exception Mdp.Explore.Too_many_states _ -> ());
  let after = snapshot () in
  Alcotest.(check int) "no build" before.Models.builds after.Models.builds;
  Alcotest.(check int) "no entry kept" before.Models.cached_entries
    after.Models.cached_entries

let test_race_target_in_registry () =
  (* The Example 4.1 automaton lives in the registry now (it broke the
     models <- experiments dependency cycle); its lint entry must be
     listed and clean. *)
  match Models.find_opt "example:race" with
  | None -> Alcotest.fail "example:race not registered"
  | Some entry ->
    let report = entry.Models.lint ~max_states:100_000 () in
    Alcotest.(check int) "no errors" 0 (Analysis.Report.errors report);
    Alcotest.(check bool) "Race is exposed" true
      (Core.Pred.mem Models.Race.p_heads Models.Race.start = false)

(* ----------------------------------------------------------------- *)
(* The family helpers' bytes.  One row per family, lr once per
   topology, each with a non-default value in every field the family
   reads and off-neutral values in the fields it does not. *)

let params family ?(topology = "ring") ?(bound = 0) ?(cap = 0) ~n ~g ~k () =
  { Models.family; n; g; k; topology; bound; cap }

let bits a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

let normalized p =
  let { Models.params = q; f; initial } = Models.normalize p in
  Printf.sprintf "%s n=%d g=%d k=%d topology=%s bound=%d cap=%d f=%d initial=%s"
    (Models.name q.Models.family) q.Models.n q.Models.g q.Models.k
    q.Models.topology q.Models.bound q.Models.cap f (bits initial)

let leaf p =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) (Models.leaf_params p))

(* The heading [Models.report] prints before its build: the build is
   refused at one state, so nothing else reaches stdout. *)
let heading p =
  let path = Filename.temp_file "prtb-heading" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let refused =
    match Models.report ~max_states:1 p with
    | () -> false
    | exception Mdp.Explore.Too_many_states _ -> true
  in
  flush stdout;
  Unix.dup2 saved Unix.stdout;
  Unix.close saved;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "build refused at one state" true refused;
  text

let family_rows =
  [ ( params `Lr ~n:2 ~g:2 ~k:3 ~bound:7 ~cap:9 (),
      "lr n=2 g=2 k=3 topology=ring bound=0 cap=0 f=0 initial=",
      {|{"n":2,"g":2,"k":3,"topology":"ring"}|},
      "g=2,k=3,topology=ring",
      "lr n=2 g=2 k=3 sym=off (1940 states)",
      "Lehmann-Rabin, n=2 g=2 k=3\n" );
    ( params `Lr ~topology:"line" ~n:2 ~g:2 ~k:3 ~bound:7 ~cap:9 (),
      "lr n=2 g=2 k=3 topology=line bound=0 cap=0 f=0 initial=",
      {|{"n":2,"g":2,"k":3,"topology":"line"}|},
      "g=2,k=3,topology=line",
      "lr n=2 g=2 k=3 topology=line sym=off (1899 states)",
      "Lehmann-Rabin on line(2), g=2 k=3\n" );
    ( params `Lr ~topology:"star" ~n:2 ~g:3 ~k:2 ~bound:7 ~cap:9 (),
      "lr n=2 g=3 k=2 topology=star bound=0 cap=0 f=0 initial=",
      {|{"n":2,"g":3,"k":2,"topology":"star"}|},
      "g=3,k=2,topology=star",
      "lr n=2 g=3 k=2 topology=star sym=off (2361 states)",
      "Lehmann-Rabin on star(2), g=3 k=2\n" );
    ( params `Election ~n:3 ~g:2 ~k:3 ~bound:7 ~cap:9 (),
      "election n=3 g=2 k=3 topology=ring bound=0 cap=0 f=0 initial=",
      {|{"n":3,"g":2,"k":3}|},
      "g=2,k=3",
      "election n=3 g=2 k=3 sym=off (94 states)",
      "Leader election, n=3\n" );
    ( params `Coin ~n:3 ~bound:2 ~g:2 ~k:3 ~cap:9 (),
      "coin n=3 g=2 k=3 topology=ring bound=2 cap=0 f=0 initial=",
      {|{"n":3,"g":2,"k":3,"bound":2}|},
      "bound=2,g=2,k=3",
      "coin n=3 g=2 k=3 bound=2 sym=off (432 states)",
      "Shared coin, n=3 barrier=±2\n" );
    ( params `Consensus ~n:3 ~cap:1 ~g:2 ~k:3 ~bound:7 (),
      "consensus n=3 g=2 k=3 topology=ring bound=0 cap=1 f=1 initial=001",
      {|{"n":3,"g":2,"k":3,"cap":1}|},
      "cap=1,f=1,g=2,k=3",
      "consensus n=3 g=2 k=3 f=1 cap=1 initial=001 sym=off (2427 states)",
      "Ben-Or consensus, n=3 f=1 cap=1 rounds, mixed start\n" ) ]

let test_family_helpers () =
  List.iter
    (fun (p, norm, json, leaf_s, described, head) ->
       let name = Models.name p.Models.family ^ "/" ^ p.Models.topology in
       Alcotest.(check (option (pair string string)))
         (name ^ ": accepted") None (Models.invalid p);
       Alcotest.(check string) (name ^ ": normalize") norm (normalized p);
       Alcotest.(check string) (name ^ ": params_json") json
         (Analysis.Json.to_string (Analysis.Json.Obj (Models.params_json p)));
       Alcotest.(check string) (name ^ ": leaf_params") leaf_s (leaf p);
       Alcotest.(check string) (name ^ ": describe") described
         (Snapshot.Store.describe
            (Snapshot.Store.config_of ~sym:Analysis.Symmetry.Off p)
            (Models.resolve p));
       Alcotest.(check string) (name ^ ": report heading") head (heading p))
    family_rows

(* Every refusal [Models.invalid] can give, topology cases included. *)
let test_invalid_refusals () =
  List.iter
    (fun (p, expect) ->
       Alcotest.(check (option (pair string string)))
         (Printf.sprintf "%s n=%d" (Models.name p.Models.family) p.Models.n)
         (Some expect) (Models.invalid p))
    [ ( params `Lr ~topology:"torus" ~n:3 ~g:1 ~k:1 (),
        ("topology", {|must be ring, line or star (got "torus")|}) );
      ( params `Election ~topology:"line" ~n:3 ~g:1 ~k:1 (),
        ("topology", {|applies to the lr model only (got "line")|}) );
      ( params `Coin ~topology:"star" ~bound:2 ~n:3 ~g:1 ~k:1 (),
        ("topology", {|applies to the lr model only (got "star")|}) );
      ( params `Consensus ~topology:"ring3" ~cap:2 ~n:3 ~g:1 ~k:1 (),
        ("topology", {|applies to the lr model only (got "ring3")|}) );
      ( params `Lr ~topology:"torus" ~n:0 ~g:0 ~k:0 (),
        ("topology", {|must be ring, line or star (got "torus")|}) );
      (params `Lr ~n:1 ~g:1 ~k:1 (), ("n", "must be at least 2 for lr (got 1)"));
      ( params `Lr ~topology:"line" ~n:1 ~g:1 ~k:1 (),
        ("n", "must be at least 2 for lr (got 1)") );
      ( params `Election ~n:1 ~g:1 ~k:1 (),
        ("n", "must be at least 2 for election (got 1)") );
      ( params `Coin ~bound:1 ~n:0 ~g:1 ~k:1 (),
        ("n", "must be at least 1 for coin (got 0)") );
      ( params `Consensus ~cap:1 ~n:0 ~g:1 ~k:1 (),
        ("n", "must be at least 1 for consensus (got 0)") );
      (params `Lr ~n:2 ~g:0 ~k:0 (), ("g", "must be at least 1 for lr (got 0)"));
      ( params `Election ~n:2 ~g:1 ~k:(-1) (),
        ("k", "must be at least 1 for election (got -1)") );
      ( params `Coin ~bound:0 ~n:1 ~g:1 ~k:1 (),
        ("bound", "must be at least 1 for coin (got 0)") );
      ( params `Consensus ~cap:0 ~n:1 ~g:1 ~k:1 (),
        ("cap", "must be at least 1 for consensus (got 0)") );
      (* A field a family does not read is not checked. *)
      ( params `Coin ~bound:0 ~cap:0 ~n:1 ~g:1 ~k:0 (),
        ("k", "must be at least 1 for coin (got 0)") );
      ( params `Lr ~n:99 ~g:1 ~k:1 (),
        ("n", "must be at most 5 for lr (got 99)") );
      ( params `Lr ~topology:"star" ~n:6 ~g:1 ~k:1 (),
        ("n", "must be at most 5 for lr (got 6)") );
      ( params `Election ~n:11 ~g:1 ~k:1 (),
        ("n", "must be at most 10 for election (got 11)") );
      ( params `Coin ~bound:4 ~n:14 ~g:1 ~k:1 (),
        ("n", "must be at most 13 for coin (got 14)") );
      ( params `Consensus ~cap:2 ~n:5 ~g:1 ~k:1 (),
        ("n", "must be at most 4 for consensus (got 5)") ) ]

(* Each family's largest checkable n is admitted; Monte Carlo
   ([~explored:false]) admits any n the automaton takes up to the
   family's own ceiling, and refuses one more by name. *)
let test_largest_n () =
  List.iter
    (fun (family, n, ceiling) ->
       let name = Models.name family in
       let sim n = Models.invalid ~explored:false (Models.sim_params family ~n) in
       Alcotest.(check (option (pair string string)))
         (Printf.sprintf "%s n=%d admitted" name n) None
         (Models.invalid (Models.sim_params family ~n));
       Alcotest.(check (option (pair string string)))
         (Printf.sprintf "%s n=%d simulates" name ceiling) None (sim ceiling);
       Alcotest.(check (option (pair string string)))
         (Printf.sprintf "%s n=%d does not simulate" name (ceiling + 1))
         (Some
            ( "n",
              Printf.sprintf "must be at most %d for %s Monte Carlo (got %d)"
                ceiling name (ceiling + 1) ))
         (sim (ceiling + 1)))
    [ (`Lr, 5, 100); (`Election, 10, 62); (`Coin, 13, 200); (`Consensus, 4, 7) ]

let () =
  Alcotest.run "models"
    [ ( "domain safety",
        [ Alcotest.test_case "hammer one key" `Quick test_hammer_one_key;
          Alcotest.test_case "hammer distinct keys" `Quick
            test_hammer_distinct_keys;
          Alcotest.test_case "repeat is a hit" `Quick test_repeat_is_hit ] );
      ( "lru",
        [ Alcotest.test_case "eviction by capacity" `Quick
            test_eviction_by_capacity;
          Alcotest.test_case "unbounded keeps entries" `Quick
            test_unbounded_keeps_entries ] );
      ( "registry",
        [ Alcotest.test_case "example:race target" `Quick
            test_race_target_in_registry;
          Alcotest.test_case "report honours max_states" `Quick
            test_report_state_ceiling ] );
      ( "case-study table",
        [ Alcotest.test_case "family helpers' bytes" `Quick
            test_family_helpers;
          Alcotest.test_case "invalid refusals" `Quick
            test_invalid_refusals;
          Alcotest.test_case "largest n" `Quick test_largest_n ] ) ]
