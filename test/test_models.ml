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
            test_report_state_ceiling ] ) ]
