(* prtb_bench: the end-to-end benchmark of prtb (see README.md).

     prtb_bench --workload NAME --seed N --seconds S --trace 0|1
       [--prtb PATH] [--out DIR]
     prtb_bench golden [--prtb PATH]

   --trace 0 measures the real CLI and daemon from outside and prints
   the end-to-end metrics; --trace 1 runs the traced phase and prints
   the per-layer metrics.  --workload all runs every workload in both
   phases.  Every metric is printed by name, unit and workload, a
   results file and a Chrome trace go to DIR (default .prtb_bench),
   and the last line of standard output is one JSON object
   {correct, attempted, failed, metrics}.  The exit code is nonzero
   when any output check failed. *)

module J = Analysis.Json
module W = Workloads

let workloads = [ "cli-small"; "cli-lr4-sym"; "serve-hot"; "serve-sweep" ]

(* A run must end within 180 s; stop everything short of
   it rather than leave children behind. *)
let watchdog_s = 170.

let usage () =
  prerr_endline
    "usage: prtb_bench --workload cli-small|cli-lr4-sym|serve-hot|serve-sweep|all\n\
    \                  --seed N --seconds S --trace 0|1 [--prtb PATH] [--out DIR]\n\
    \       prtb_bench golden [--prtb PATH]";
  exit 2

let untraced ctx = function
  | "cli-small" -> W.cli_workload ctx Keys.cli_small
  | "cli-lr4-sym" -> W.cli_workload ctx [ Keys.lr4 ]
  | "serve-hot" -> W.serve_hot ctx
  | _ -> W.serve_sweep ctx

let metric_json (m : W.metric) = J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit) ]

let run_one ~prtb ~out_dir ~seed ~seconds ~trace workload =
  let ctx =
    { W.prtb; self = Sys.executable_name; golden = Golden.load Golden.path; seed;
      seconds; out_dir; calibs = ref []; pass_s = ref []; attempted = Atomic.make 0;
      failed = Atomic.make 0; violations = ref [] }
  in
  let phase = if trace then "traced" else "untraced" in
  Printf.printf "prtb_bench: %s, %s phase, seed %d, %.0f s\n%!" workload phase seed seconds;
  let metrics, spans =
    if trace then Traced.run ctx workload else (untraced ctx workload, [])
  in
  let calibs = !(ctx.W.calibs) in
  Printf.printf "%-12s %-30s %14s %-6s %14s %7s\n" "workload" "metric" "value" "unit"
    "raw" "samples";
  (* A percentile means something only with at least ten samples
     beyond it. *)
  let note (m : W.metric) =
    if m.name = "latency_p90_s" && Stats.beyond ~pct:90 m.samples < 10 then
      "  (fewer than 10 samples beyond p90)"
    else ""
  in
  List.iter
    (fun (m : W.metric) ->
       Printf.printf "%-12s %-30s %14.6g %-6s %14.6g %7d%s\n" workload m.name m.value m.unit
         m.raw m.samples (note m))
    metrics;
  Printf.printf
    "host.calib_s: fast quartile %.4f s over %d runs (spread %.3f; nominal %.4f s)\n"
    (Stats.fast calibs) (List.length calibs)
    (if List.length calibs >= 2 then Stats.spread calibs else 0.)
    Calib.nominal_s;
  let attempted = Atomic.get ctx.W.attempted and failed = Atomic.get ctx.W.failed in
  let correct =
    failed = 0 && !(ctx.W.violations) = []
    && List.for_all (fun (m : W.metric) -> Float.is_finite m.value) metrics
  in
  let base = Filename.concat out_dir (workload ^ "-" ^ phase) in
  if spans <> [] then begin
    Out_channel.with_open_text (base ^ ".trace.json") (fun oc ->
        output_string oc (J.to_string (Spans.to_json spans)));
    let coverage = Spans.coverage spans in
    Printf.printf "trace: %d spans in %s.trace.json, %d roots\n" (List.length spans) base
      (List.length coverage)
  end;
  Out_channel.with_open_text (base ^ ".json") (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              [ ("workload", J.Str workload); ("phase", J.Str phase);
                ("seed", J.Int seed); ("seconds", J.Num seconds);
                ("correct", J.Bool correct); ("attempted", J.Int attempted);
                ("failed", J.Int failed);
                ("violations", J.Arr (List.map (fun v -> J.Str v) !(ctx.W.violations)));
                ("calib_s", J.Arr (List.rev_map (fun c -> J.Num c) calibs));
                ("calib_nominal_s", J.Num Calib.nominal_s);
                ("factor", J.Num (W.factor ctx));
                ("pass_s", J.Arr (List.rev_map (fun c -> J.Num c) !(ctx.W.pass_s)));
                ( "metrics",
                  J.Arr
                    (List.map
                       (fun (m : W.metric) ->
                          J.Obj
                            [ ("name", J.Str m.name); ("unit", J.Str m.unit);
                              ("value", J.Num m.value); ("raw", J.Num m.raw);
                              ("samples", J.Int m.samples) ])
                       metrics) ) ]));
      output_char oc '\n');
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct); ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj (List.map (fun (m : W.metric) -> (m.name, metric_json m)) metrics)) ]));
  correct

(* `prtb_bench golden`: the CLI's body for every query of the universe,
   written to golden.tsv. *)
let golden prtb =
  let rows =
    List.map
      (fun q ->
         let out, st, _ = Proc.run prtb (Keys.cli_args q) in
         if not (Proc.ok st) then begin
           Printf.eprintf "prtb %s: %s\n" (Keys.to_string q) (Proc.describe st);
           exit 1
         end;
         (q, Golden.cli_body out))
      Keys.universe
  in
  Golden.write Golden.path rows;
  Printf.printf "wrote %s: %d queries\n" Golden.path (List.length rows)

let main () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  let rec flags acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      flags ((flag, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opt flags name default = Option.value (List.assoc_opt name flags) ~default in
  let int_opt flags name default =
    match int_of_string_opt (opt flags name (string_of_int default)) with
    | Some v -> v
    | None -> usage ()
  in
  let default_prtb = "_build/default/bin/prtb.exe" in
  match args with
  | [ "calib" ] -> Calib.run ()
  | "trace-queries" :: rest ->
    let rec parse untraced dir = function
      | "--untraced" :: rest -> parse true dir rest
      | "--snapshot-dir" :: d :: rest -> parse untraced (Some d) rest
      | keys ->
        let keys =
          List.map
            (fun s -> match Keys.find s with Some q -> q | None -> failwith ("unknown query " ^ s))
            keys
        in
        Traced.queries ~untraced ~snapshot_dir:dir keys
    in
    parse false None rest
  | "trace-hot" :: rest -> Traced.hot ~seed:(int_opt (flags [] rest) "--seed" 1994)
  | "golden" :: rest -> golden (opt (flags [] rest) "--prtb" default_prtb)
  | _ ->
    let flags = flags [] args in
    let prtb = opt flags "--prtb" default_prtb in
    let out_dir = opt flags "--out" ".prtb_bench" in
    let seed = int_opt flags "--seed" 1994 in
    let seconds = float_of_int (int_opt flags "--seconds" 20) in
    let workload = opt flags "--workload" "all" in
    let phases =
      match opt flags "--trace" "both" with
      | "0" -> [ false ]
      | "1" -> [ true ]
      | "both" -> [ false; true ]
      | _ -> usage ()
    in
    let chosen =
      if workload = "all" then workloads
      else if List.mem workload workloads then [ workload ]
      else usage ()
    in
    if not (Sys.file_exists prtb) then begin
      Printf.eprintf "prtb_bench: no prtb binary at %s\n" prtb;
      exit 2
    end;
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    ignore
      (Thread.create
         (fun () ->
            Thread.delay (watchdog_s *. float_of_int (List.length chosen * List.length phases));
            Proc.kill_all ();
            prerr_endline "prtb_bench: watchdog: out of time, children killed";
            exit 3)
         ());
    let ok =
      List.for_all Fun.id
        (List.concat_map
           (fun w ->
              List.map (fun trace -> run_one ~prtb ~out_dir ~seed ~seconds ~trace w) phases)
           chosen)
    in
    exit (if ok then 0 else 1)

let () =
  try main ()
  with e ->
    Proc.kill_all ();
    Printf.eprintf "prtb_bench: %s\n%!" (Printexc.to_string e);
    exit 2
