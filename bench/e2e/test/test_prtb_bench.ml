(* prtb_bench's own arithmetic: percentile and spread rules,
   host normalization, span self times, and the trace file format. *)

module J = Analysis.Json

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps
let check_float msg want got = Alcotest.(check (float 1e-9)) msg want got
let range a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

let percentile_rule () =
  Alcotest.(check int) "p90 of 100 is the 90th" 90 (Stats.rank ~pct:90 100);
  Alcotest.(check int) "ten beyond p90 of 100" 10 (Stats.beyond ~pct:90 100);
  Alcotest.(check int) "nine beyond p90 of 99" 9 (Stats.beyond ~pct:90 99);
  Alcotest.(check int) "p50 of 7 is the 4th" 4 (Stats.rank ~pct:50 7);
  check_float "p90 of 1..100" 90. (Stats.percentile ~pct:90 (range 1 100));
  check_float "p50 of 1..10, unsorted" 5.
    (Stats.percentile ~pct:50 (List.rev (range 1 10)));
  check_float "p90 of one sample" 3. (Stats.percentile ~pct:90 [ 3. ]);
  check_float "median of an even count" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

(* Reference values from a direct evaluation of the Harrell-Davis sum
   with the regularized incomplete beta function. *)
let harrell_davis () =
  let hd pct xs = Stats.harrell_davis ~pct xs in
  Alcotest.(check (float 1e-9)) "median of 1..10" 5.5 (hd 50 (range 1 10));
  Alcotest.(check (float 1e-9)) "p90 of 1..10" 9.435115176660435 (hd 90 (range 1 10));
  Alcotest.(check (float 1e-6)) "an outlier pulls in proportion" 8.5024
    (hd 50 [ 1.; 2.; 3.; 4.; 100. ]);
  check_float "one sample" 3. (hd 90 [ 3. ]);
  (* Moving one query across the gap between two clusters moves the
     estimate by a fraction of the gap, where the sample median jumps
     by all of it. *)
  let fast = List.init 17 (fun _ -> 0.01) and slow = List.init 17 (fun _ -> 0.5) in
  let a = fast @ [ 0.01 ] @ slow and b = fast @ [ 0.5 ] @ slow in
  Alcotest.(check bool) "sample median jumps" true
    (Stats.percentile ~pct:50 b -. Stats.percentile ~pct:50 a > 0.4);
  Alcotest.(check bool) "estimate moves a little" true (hd 50 b -. hd 50 a < 0.1)

(* Reference values from Python's statistics.quantiles(data, n=4). *)
let quartile_spread () =
  let q = Stats.quartiles in
  let eq3 msg (a, b, c) (x, y, z) =
    Alcotest.(check bool) msg true (close a x && close b y && close c z)
  in
  eq3 "1..10" (2.75, 5.5, 8.25) (q (range 1 10));
  eq3 "two samples extrapolate" (0.5, 2.0, 3.5) (q [ 3.; 1. ]);
  eq3 "five timings" (0.295, 0.31, 0.34) (q [ 0.31; 0.30; 0.33; 0.29; 0.35 ]);
  check_float "spread is IQR over median" ((0.34 -. 0.295) /. 0.31)
    (Stats.spread [ 0.31; 0.30; 0.33; 0.29; 0.35 ])

let normalization () =
  (* Slow phases only add time: the fast quartile of these kernel times
     is 0.2 s against a nominal 0.1 s, so the host ran at half speed
     and timings halve while rates double.  The Harrell-Davis quartile
     weighs the slow samples a little (reference value from a direct
     evaluation of its sum). *)
  let calibs = [ 0.3; 0.2; 0.4; 0.2; 0.35; 0.2; 0.3; 0.2 ] in
  check_float "fast quartile" 0.20533623529833395 (Stats.fast calibs);
  let factor = Stats.factor ~nominal:0.1 (List.init 10 (fun _ -> 0.2)) in
  check_float "factor" 0.5 factor;
  check_float "a duration" 2.0 (Stats.normalize ~factor 4.0);
  check_float "a rate" 200. (Stats.normalize_rate ~factor 100.);
  check_float "factor from noisy kernels" (0.1 /. 0.20533623529833395)
    (Stats.factor ~nominal:0.1 calibs)

let span ?(pid = 0) ?(tid = 0) id parent name start_ns dur_ns =
  { Spans.pid; tid; id; parent; name; start_ns; dur_ns }

(* A sweep root with two client threads' requests overlapping under
   it, one of which has a nested child and one that overruns the
   root's end. *)
let sweep =
  [ span 0 (-1) "sweep" 0 100;
    span ~tid:1 1 0 "client.request" 10 30;
    span ~tid:2 2 0 "client.request" 30 30;
    span ~tid:1 3 1 "decode" 15 5;
    span ~tid:2 4 0 "client.request" 90 20;
    (* same ids in another process must not mix with the above *)
    span ~pid:1 0 (-1) "query" 0 50;
    span ~pid:1 1 0 "explore" 0 40 ]

let self_times () =
  let self name_id =
    snd (List.find (fun ((s : Spans.span), _) -> (s.pid, s.id) = name_id) (Spans.self_times sweep))
  in
  (* root: 100 minus the union [10,60) + [90,100) *)
  Alcotest.(check int) "root, overlap counted once, overrun clipped" 40 (self (0, 0));
  Alcotest.(check int) "request with a child" 25 (self (0, 1));
  Alcotest.(check int) "leaf" 30 (self (0, 2));
  Alcotest.(check int) "other process" 10 (self (1, 0));
  let by_name = Spans.self_by_name sweep in
  Alcotest.(check int) "per name" (25 + 30 + 20) (Hashtbl.find by_name "client.request");
  let cov = List.map (fun ((s : Spans.span), c) -> ((s.pid, s.name), c)) (Spans.coverage sweep) in
  check_float "sweep coverage" 0.6 (List.assoc (0, "sweep") cov);
  check_float "query coverage" 0.8 (List.assoc (1, "query") cov);
  Alcotest.(check int) "only roots" 2 (List.length cov)

let recorder () =
  let tr = Spans.create ~pid:7 () in
  Spans.with_span tr "outer" (fun () ->
      Spans.with_span tr "inner" (fun () -> ignore (Sys.opaque_identity (range 1 1000))));
  match Spans.spans tr with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner first" "inner" inner.Spans.name;
    Alcotest.(check int) "nested" outer.Spans.id inner.Spans.parent;
    Alcotest.(check int) "root" (-1) outer.Spans.parent;
    Alcotest.(check int) "pid" 7 outer.Spans.pid;
    Alcotest.(check bool) "inside" true
      (inner.Spans.start_ns >= outer.Spans.start_ns
       && inner.Spans.start_ns + inner.Spans.dur_ns
          <= outer.Spans.start_ns + outer.Spans.dur_ns)
  | _ -> Alcotest.fail "two spans expected"

let round_trip () =
  let absolute =
    List.map
      (fun (s : Spans.span) -> { s with start_ns = s.start_ns + 1_234_567_890_123_456 })
      sweep
  in
  let parse j =
    match J.of_string (J.to_string j) with
    | Error e -> Alcotest.fail ("not JSON: " ^ e)
    | Ok j -> (
        match Spans.of_json j with
        | Ok spans -> (j, spans)
        | Error e -> Alcotest.fail ("not a trace: " ^ e))
  in
  let j, back = parse (Spans.to_json ~base_ns:0 absolute) in
  Alcotest.(check bool) "absolute times survive" true (back = absolute);
  (match J.member "traceEvents" j with
   | Some (J.Arr (ev :: _)) ->
     Alcotest.(check bool) "complete events" true (J.member "ph" ev = Some (J.Str "X"))
   | _ -> Alcotest.fail "no traceEvents");
  let _, rebased = parse (Spans.to_json absolute) in
  Alcotest.(check bool) "rebased to the earliest span" true (rebased = sweep);
  Alcotest.(check bool) "bad event refused" true
    (Result.is_error (Spans.of_json (J.Arr [ J.Obj [ ("name", J.Str "x") ] ])))

let () =
  Alcotest.run "prtb_bench"
    [ ( "stats",
        [ Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "Harrell-Davis" `Quick harrell_davis;
          Alcotest.test_case "quartile spread" `Quick quartile_spread;
          Alcotest.test_case "normalization" `Quick normalization ] );
      ( "spans",
        [ Alcotest.test_case "self times" `Quick self_times;
          Alcotest.test_case "recorder" `Quick recorder;
          Alcotest.test_case "trace round trip" `Quick round_trip ] ) ]
