(* prtb: Probabilistic Real-Time Bounds -- command-line front end.

   Subcommands:
     prtb experiments   regenerate the experiment tables (E1-E9)
     prtb check         run the exhaustive checker on a case study
     prtb simulate      Monte Carlo runs under a chosen scheduler *)

module Q = Proba.Rational
module LR = Lehmann_rabin

open Cmdliner

(* A run-time refusal -- the command ran and its answer is no -- prints
   what cmdliner prints for an error and exits 1; cmdliner's 124 stays
   for usage errors and refused flag or parameter values. *)
let refuse msg =
  Format.eprintf "prtb: @[<v>%a@]@."
    (Format.pp_print_list Format.pp_print_string)
    (String.split_on_char '\n' msg);
  exit 1

(* A [Sys_error] writing [path], its message naming the file. *)
let cannot_write path msg =
  refuse
    (if String.starts_with ~prefix:path msg then msg
     else Printf.sprintf "%s: %s" path msg)

let not_certified msg =
  refuse
    (Printf.sprintf
       "--sym on: the declared symmetry group failed to certify:\n%s" msg)

(* ----------------------------------------------------------------- *)
(* --deadline: wall allowance in milliseconds *)

let deadline_conv =
  Arg.conv
    ( (fun s ->
         match Core.Budget.parse_wall s with
         | Ok w when w > 0.0 ->
           Ok (int_of_float (Float.ceil (w *. 1000.0)))
         | Ok _ -> Error (`Msg "deadline must be positive")
         | Error e -> Error (`Msg e)),
      fun fmt ms -> Format.fprintf fmt "%dms" ms )

let deadline_arg ~doc =
  Arg.(value & opt (some deadline_conv) None
       & info [ "deadline" ] ~docv:"DUR" ~doc)

(* ----------------------------------------------------------------- *)
(* --stats: registry work accounting *)

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"After the command, print how much exploration and \
                 compilation work the model registry actually performed, \
                 and how many tick layers the reach engine solved (CI \
                 asserts [prtb check lr --stats] reports one exploration, \
                 one arena compile and 18 tick layers).")

let report_stats enabled =
  if enabled then begin
    Format.printf "%a@." Models.pp_stats (Models.stats ());
    Format.printf "reach: tick layers: %d@."
      (Mdp.Finite_horizon.layers_solved ())
  end

(* ----------------------------------------------------------------- *)
(* experiments *)

let experiments_cmd =
  let profile =
    let quick =
      Arg.(value & flag
           & info [ "quick" ] ~doc:"Smaller instances (smoke test).")
    in
    let full =
      Arg.(value & flag
           & info [ "full" ]
               ~doc:"Add n=4 exhaustive checking and larger simulations \
                     (takes minutes).")
    in
    Term.(const (fun q f ->
        if f then Experiments.Harness.full
        else if q then Experiments.Harness.quick
        else Experiments.Harness.default)
          $ quick $ full)
  in
  let only =
    Arg.(value & pos_all string []
         & info [] ~docv:"ID"
             ~doc:"Experiment ids to run (e1..e13); all when omitted.")
  in
  let run config ids =
    let ctx = Experiments.Harness.make_ctx config in
    match ids with
    | [] -> Ok (Experiments.Harness.run_all ctx)
    | ids ->
      let find id =
        List.assoc_opt (String.lowercase_ascii id)
          Experiments.Harness.experiments
      in
      (* An unknown id is a usage error before any experiment runs. *)
      (match List.find_opt (fun id -> Option.is_none (find id)) ids with
       | Some id -> Error (`Msg (Printf.sprintf "unknown experiment %S" id))
       | None -> Ok (List.iter (fun id -> Option.get (find id) ctx) ids))
  in
  let term = Term.(term_result (const run $ profile $ only)) in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's result tables (see EXPERIMENTS.md).")
    term

(* ----------------------------------------------------------------- *)
(* check *)

let n_arg ~default =
  Arg.(value & opt int default
       & info [ "n" ] ~docv:"N" ~doc:"Ring size (number of processes).")

let g_arg =
  Arg.(value & opt int 1
       & info [ "g" ] ~docv:"G"
           ~doc:"Digital-clock granularity (slots per time unit).")

let k_arg =
  Arg.(value & opt int 1
       & info [ "k" ] ~docv:"K"
           ~doc:"Adversary step budget per process per slot.")

let sym_arg =
  Arg.(value
       & opt (enum [ ("auto", Analysis.Symmetry.Auto);
                     ("on", Analysis.Symmetry.On);
                     ("off", Analysis.Symmetry.Off) ])
           Analysis.Symmetry.Off
       & info [ "sym" ] ~docv:"MODE"
           ~doc:"Orbit-reduced exploration under the model's declared \
                 symmetry group: $(b,on) verifies the generators (PA030) \
                 and the proof predicates (PA031) and explores the orbit \
                 quotient, failing if certification breaks; $(b,auto) \
                 falls back to the unreduced space instead of failing; \
                 $(b,off) (default) never reduces.  Verdicts are \
                 identical either way -- only the state count shrinks.")

let plane_arg =
  Arg.(value
       & opt (enum [ ("interval", Mdp.Plane.Interval);
                     ("exact", Mdp.Plane.Exact) ])
           Mdp.Plane.Interval
       & info [ "plane" ] ~docv:"PLANE"
           ~doc:"Probability-plane label of the query: $(b,interval) \
                 (default) or $(b,exact).  It selects nothing: every \
                 reach engine computes in exact rationals, so reports \
                 and --format json are byte-identical either way.  \
                 --emit-cert records it in each certificate leaf, as \
                 $(b,prtb serve) records its $(b,plane) field.")

let check_lr_faults n g k faults budget release seed =
  Printf.printf
    "Lehmann-Rabin, n=%d g=%d k=%d, faults %s, release=%b, budget %s\n%!"
    n g k (Faults.Fault.to_string faults) release
    (Core.Budget.to_string budget);
  let config =
    { Faults.Lr.params = { LR.Automaton.n; g; k }; faults; release }
  in
  let verdict = Faults.Lr.check_budgeted ~budget ~seed config in
  Format.printf "T∧live -13->_{1/8} C∧live:@.  %a@." Faults.Lr.pp_verdict
    verdict;
  match verdict with
  | Faults.Lr.Estimate _ -> ()
  | Faults.Lr.Exact { inst; _ } ->
    (* The whole wrapped space fit the budget, so the two-arrow
       derivation (the same arena, two more backward inductions) is
       affordable; show the degraded constants it certifies. *)
    let d = Faults.Lr.derivation inst in
    Printf.printf "degraded derivation over %d states:\n"
      d.Faults.Lr.states;
    List.iter
      (fun (a : Faults.Lr.arrow) ->
         Format.printf "  %-28s attained %s (%s)@." a.Mdp.Checker.label
           (Q.to_string a.Mdp.Checker.attained)
           (match a.Mdp.Checker.claim with
            | Some _ -> "certified at that bound"
            | None -> "NOT certified"))
      [ d.Faults.Lr.arrow1; d.Faults.Lr.arrow2 ];
    (match d.Faults.Lr.composed with
     | Ok claim -> Format.printf "  composed: %a@." Core.Claim.pp claim
     | Error e -> Printf.printf "  composition failed: %s\n" e);
    Printf.printf "  direct 13-unit minimum: %s\n"
      (Q.to_string d.Faults.Lr.direct)

let system_arg =
  let parse s =
    match Models.of_name s with
    | Some family -> Ok family
    | None -> Error (`Msg (Printf.sprintf "unknown system %S" s))
  in
  let print fmt s = Format.pp_print_string fmt (Models.name s) in
  Arg.(required
       & pos 0 (some (conv (parse, print))) None
       & info [] ~docv:"SYSTEM"
           ~doc:"lr (dining philosophers), election, coin, or consensus.")

let topology_arg =
  Arg.(value & opt (some string) None
       & info [ "topology" ] ~docv:"SHAPE"
           ~doc:"For lr: ring (default), line, or star.")

let bound_arg =
  Arg.(value & opt int 4
       & info [ "bound" ] ~docv:"B" ~doc:"For coin: the decision barrier.")

let cap_arg =
  Arg.(value & opt int 2
       & info [ "cap" ] ~docv:"R"
           ~doc:"For consensus: number of rounds modelled.")

let faults_arg =
  let fault_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Faults.Fault.of_string s)),
        Faults.Fault.pp )
  in
  Arg.(value & opt (some fault_conv) None
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Fault budget to inject, e.g. crash:1 or crash:1,loss:2 \
                 (kinds: crash, loss, stuck).  Currently modelled for the \
                 lr ring; re-derives the degraded time bound.")

let budget_arg =
  let budget_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Core.Budget.of_string s)),
        Core.Budget.pp )
  in
  Arg.(value & opt (some budget_conv) None
       & info [ "budget" ] ~docv:"SPEC"
           ~doc:"With --faults: verification budget, e.g. \
                 states:100000,wall:30s.  When exact exploration does not \
                 fit, the checker degrades to a Monte Carlo estimate \
                 instead of failing.")

(* [--budget], [--release] and [--seed] read as [None] when absent, so
   a run without --faults can refuse them by name. *)
let release_arg =
  Arg.(value & opt (some bool) None
       & info [ "release" ] ~docv:"BOOL"
           ~doc:"With --faults: whether crashed processes free their held \
                 resources (default true).  With --release=false a crashed \
                 philosopher keeps its forks and the degraded bound \
                 collapses to 0.")

let check_seed_arg =
  Arg.(value & opt (some int) None
       & info [ "seed" ] ~docv:"S"
           ~doc:"With --faults: PRNG seed for the Monte Carlo fallback \
                 (default 1994).")

let check_format_arg =
  Arg.(value
       & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format.  $(b,json) prints exactly the body \
                 $(b,prtb serve) answers on /check for the same \
                 parameters (byte for byte); $(b,text) is the \
                 human-readable report.")

(* The parameters as given, refused naming the flag when the family
   does not accept them ([Models.invalid]) -- before anything builds. *)
let valid ?explored (p : Models.params) =
  match Models.invalid ?explored p with
  | None -> p
  | Some (field, problem) ->
    failwith
      (Printf.sprintf "%s%s %s"
         (if String.length field = 1 then "-" else "--")
         field problem)

let cli_params system n g k topology bound cap =
  valid
    { Models.family = system; n; g; k;
      topology = Option.value topology ~default:"ring"; bound; cap }

(* The served and CLI JSON bodies are bit-identical because both print
   [Server.Service.check_json] (and [cert_json] for certificates);
   test/test_server.ml holds the two byte-for-byte equal. *)
let cli_check_query (p : Models.params) sym plane deadline =
  { Server.Protocol.model = p.Models.family; n = p.Models.n; g = p.Models.g;
    k = p.Models.k; topology = p.Models.topology; bound = p.Models.bound;
    cap = p.Models.cap; max_states = None;
    sym = Analysis.Symmetry.mode_to_string sym;
    plane = Mdp.Plane.to_string plane;
    deadline_ms = deadline }

(* --emit-cert prints the /cert body.  A non-certificate header
   (uncertified, exhausted, ...) still prints -- same bytes the server
   would serve -- but exits 1 so scripts cannot mistake it for a
   certificate. *)
let emit_cert_json q =
  let body = Server.Service.cert_json q in
  print_endline (Analysis.Json.to_string body);
  match body with
  | Analysis.Json.Obj fields
    when List.mem_assoc "verdict" fields ->
    refuse "no certificate was emitted (see the body's verdict field)"
  | _ -> ()

(* Text mode arms the same ambient deadline the server uses; when the
   engines' poll points cut the run mid-sweep we print a structured
   degraded verdict and exit 0, mirroring the served SRV122 body. *)
let under_cli_deadline deadline f =
  Server.Service.under_deadline deadline f ~expired:(fun ms reason ->
      Printf.printf
        "verdict: deadline-exceeded (SRV122, deadline_ms=%d)\n\
         %s\n\
         the exact verification was abandoned mid-sweep; raise \
         --deadline for the exact verdict\n"
        ms reason)

let emit_cert_arg =
  Arg.(value & flag
       & info [ "emit-cert" ]
           ~doc:"Instead of a report, print the proof certificate: the \
                 composed claim's whole derivation as a versioned DAG \
                 whose leaves carry the arena fingerprint and the full \
                 configuration (exactly the body $(b,prtb serve) answers \
                 on /cert, byte for byte).  Feed it to $(b,prtb \
                 verify-cert).  Incompatible with --faults.")

let check_cmd =
  let run stats format plane emit_cert system n g k topology bound cap sym
      faults budget release seed deadline =
    (* Usage errors exit 124 before anything runs; refusals after it, 1. *)
    match
      let p = cli_params system n g k topology bound cap in
      let query () = cli_check_query p sym plane deadline in
      List.iter
        (fun (flag, given) ->
           if given && faults = None then
             failwith (flag ^ " applies to --faults runs only; drop it"))
        [ ("--budget", budget <> None); ("--release", release <> None);
          ("--seed", seed <> None) ];
      match format, emit_cert, faults with
      | _, true, Some _ ->
        failwith "--emit-cert does not cover --faults runs; drop one"
      | _, true, None -> fun () -> emit_cert_json (query ())
      | `Json, false, Some _ ->
        failwith "--format json does not cover --faults runs; drop one"
      | `Json, false, None ->
        fun () ->
          print_endline
            (Analysis.Json.to_string (Server.Service.check_json (query ())))
      | `Text, false, Some f ->
        if system <> `Lr then
          failwith
            "fault injection is currently modelled for the lr system only";
        if p.Models.topology <> "ring" then
          failwith
            (Printf.sprintf
               "fault injection is modelled on the ring topology only \
                (got %S)"
               p.Models.topology);
        fun () ->
          under_cli_deadline deadline (fun () ->
              check_lr_faults n g k f
                (Option.value budget ~default:Core.Budget.unlimited)
                (Option.value release ~default:true)
                (Option.value seed ~default:1994))
      | `Text, false, None ->
        fun () ->
          under_cli_deadline deadline (fun () ->
              Models.report ~max_states:Server.Service.default_max_states ~sym
                p)
    with
    | exception Failure msg -> Error (`Msg msg)
    | check ->
      (try check () with
       | Failure msg -> refuse msg
       | Analysis.Symmetry.Not_certified msg -> not_certified msg
       | Mdp.Explore.Too_many_states m ->
         (* Only fault-free runs explore under this ceiling, so the
            advice keeps the question: a smaller instance, or the
            orbit quotient of the same one. *)
         refuse
           (Printf.sprintf
              "exploration stopped after interning %d states (ceiling \
               %d); shrink the instance%s"
              m Server.Service.default_max_states
              (if sym = Analysis.Symmetry.On then ""
               else " or rerun with --sym on")));
      report_stats stats;
      Ok ()
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Exhaustively verify the phase statements of a case study; \
             with --faults, re-derive the degraded bound under an exact \
             fault budget, falling back to simulation when --budget is \
             exceeded.")
    Term.(term_result
            (const run $ stats_arg $ check_format_arg
             $ plane_arg $ emit_cert_arg
             $ system_arg $ n_arg ~default:3 $ g_arg $ k_arg $ topology_arg
             $ bound_arg $ cap_arg $ sym_arg $ faults_arg $ budget_arg
             $ release_arg $ check_seed_arg
             $ deadline_arg
                 ~doc:"Wall deadline for the whole check, e.g. 50ms or \
                       2s.  When it fires mid-sweep the command prints a \
                       structured deadline-exceeded verdict (the JSON \
                       format answers the same SRV122 body $(b,prtb \
                       serve) would) and exits 0."))

(* ----------------------------------------------------------------- *)
(* verify-cert *)

let verify_cert_cmd =
  let run file =
    let body =
      try
        if file = "-" then In_channel.input_all stdin
        else In_channel.with_open_bin file In_channel.input_all
      with Sys_error msg -> (
        Printf.eprintf "error: %s\n%!" msg;
        exit 1)
    in
    match Cert.Node.of_string body with
    | Error msg ->
      Printf.eprintf "invalid certificate: %s\n%!" msg;
      exit 1
    | Ok cert ->
      (match Cert.Verify.run cert with
       | Error e ->
         Printf.eprintf "invalid certificate: %s\n%!"
           (Cert.Verify.error_to_string e);
         exit 1
       | Ok s ->
         Printf.printf
           "certificate: OK (model %s, digest %s)\n\
            claim: %s\n\
            nodes: %d (%d checked leaves, %d assumptions)\n\
            fully verified: %s\n"
           cert.Cert.Node.model cert.Cert.Node.digest s.Cert.Verify.root_claim
           s.Cert.Verify.nodes s.Cert.Verify.leaves s.Cert.Verify.axioms
           (if s.Cert.Verify.fully_verified then "yes"
            else "no (assumption leaves remain)");
         Ok ())
  in
  let file_arg =
    Arg.(required
         & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"Certificate file as printed by $(b,prtb check \
                   --emit-cert) or served on /cert; $(b,-) reads stdin.")
  in
  Cmd.v
    (Cmd.info "verify-cert"
       ~doc:"Independently re-check a proof certificate without \
             re-exploring any state space: recompute every node hash and \
             the certificate digest, and re-run the arithmetic and side \
             conditions of every rule application (composition, union, \
             weakening) with a second implementation of the paper's \
             rules.  Exits 1 naming the failing node on any mismatch -- \
             a single flipped byte anywhere in the DAG is detected.")
    Term.(term_result (const run $ file_arg))

(* ----------------------------------------------------------------- *)
(* compile *)

(* [prtb compile] resolves through the same registry the server uses
   for the same query, so the snapshotted arena (and its fingerprint)
   is bit-identical to what [prtb serve] would compile on demand. *)
let compile_cmd =
  let output =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Snapshot file to write (conventionally $(b,.prtba)); \
                   written atomically via a temp file + rename.")
  in
  let max_states =
    Arg.(value & opt (some int) None
         & info [ "max-states" ] ~docv:"N"
             ~doc:"Exploration ceiling while compiling.  Part of the \
                   registry key: give $(b,prtb serve --snapshot-dir) \
                   workers the same --max-states or the preloaded entry \
                   is keyed correctly anyway (the daemon's ceiling is \
                   applied at preload time).")
  in
  let run stats system n g k topology bound cap sym max_states output =
    (* As in [check]: usage errors exit 124 before anything runs. *)
    match cli_params system n g k topology bound cap with
    | exception Failure msg -> Error (`Msg msg)
    | p ->
      (try
         let loaded = Models.resolve ?max_states ~sym p in
         let config = Snapshot.Store.config_of ~sym p in
         Snapshot.Store.save ~path:output config loaded;
         Printf.printf "wrote %s: %s\n" output
           (Snapshot.Store.describe config loaded)
       with
       | Sys_error msg -> cannot_write output msg
       | Failure msg -> refuse msg
       | Analysis.Symmetry.Not_certified msg -> not_certified msg
       | Mdp.Explore.Too_many_states m ->
         refuse
           (Printf.sprintf
              "exploration stopped after interning %d states; raise \
               --max-states"
              m));
      report_stats stats;
      Ok ()
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Explore and compile a case-study instance, then serialize \
             the compiled arena -- CSR transitions, interned states, \
             tick mask, exact probability plane, structural fingerprint \
             and the full configuration -- as a versioned $(b,.prtba) \
             snapshot.  $(b,prtb serve --snapshot-dir) preloads such \
             snapshots at startup and answers the first matching query \
             with no exploration and no compile (see docs/SNAPSHOTS.md).")
    Term.(term_result
            (const run $ stats_arg $ system_arg
             $ n_arg ~default:3 $ g_arg $ k_arg $ topology_arg $ bound_arg
             $ cap_arg $ sym_arg $ max_states $ output))

(* ----------------------------------------------------------------- *)
(* simulate *)

let simulate system n scheduler trials seed within =
  match
    Models.simulation ~scheduler
      (valid ~explored:false (Models.sim_params system ~n))
  with
  | exception Failure msg -> Error (`Msg msg)
  | Error msg -> Error (`Msg msg)
  | Ok (Models.Simulation (setup, m)) ->
    (match within with
     | Some t ->
       let prop =
         Sim.Monte_carlo.estimate_reach setup ~target:m.target ~within:t
           ~trials ~seed
       in
       let lo, hi = Proba.Stat.Proportion.wilson_ci prop in
       Printf.printf
         "P[%s within %d] ~ %.4f  (95%% CI [%.4f, %.4f], %d trials, \
          scheduler %s)\n"
         m.reach t
         (Proba.Stat.Proportion.estimate prop)
         lo hi trials scheduler
     | None ->
       let summary, missed =
         Sim.Monte_carlo.estimate_time setup ~target:m.target ~trials ~seed ()
       in
       print_string (m.time_report ~scheduler ~trials ~missed summary));
    Ok ()

let simulate_cmd =
  let scheduler =
    Arg.(value & opt string "uniform"
         & info [ "scheduler" ] ~docv:"NAME"
             ~doc:"uniform (every model), or for lr also eager, delayer, \
                   starver or round-robin.")
  in
  let trials =
    Arg.(value & opt int 2000
         & info [ "trials" ] ~docv:"T" ~doc:"Number of Monte Carlo trials.")
  in
  let seed =
    Arg.(value & opt int 1994 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")
  in
  let within =
    Arg.(value & opt (some int) None
         & info [ "within" ] ~docv:"TIME"
             ~doc:"Estimate P[reach within TIME] instead of expected time.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Monte Carlo estimation on large rings.")
    Term.(term_result
            (const simulate $ system_arg $ n_arg ~default:8
             $ scheduler $ trials $ seed $ within))

(* ----------------------------------------------------------------- *)
(* export-dot *)

(* The small instance's arena with the family's Monte Carlo target
   highlighted.  Larger graphs are not viewable: past [dot_limit]
   states the command refuses, naming both numbers. *)
let dot_limit = 2000

let export_dot system n bound output =
  match
    Models.resolve (cli_params system n 1 1 None bound 1)
  with
  | exception Failure msg -> Error (`Msg msg)
  | inst ->
    let (Models.View v) = Models.view inst in
    let states = Mdp.Arena.num_states v.arena in
    if states > dot_limit then
      refuse
        (Printf.sprintf
           "%d states exceed export-dot's %d-state limit; export a \
            smaller instance (lower -n)"
           states dot_limit);
    let dot =
      Mdp.Dot.to_string v.arena ~max_states:dot_limit ~highlight:v.target ()
    in
    (match output with
     | None -> print_string dot
     | Some path ->
       (try Out_channel.with_open_text path (fun oc -> output_string oc dot)
        with Sys_error msg -> cannot_write path msg);
       Printf.printf "wrote %s (%d states)\n" path states);
    Ok ()

let export_dot_cmd =
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "export-dot"
       ~doc:"Export a small instance's MDP as a Graphviz graph \
             (target states highlighted).")
    Term.(term_result
            (const export_dot $ system_arg $ n_arg ~default:2 $ bound_arg
             $ output))

(* ----------------------------------------------------------------- *)
(* lint *)

let lint stats models format strict max_states sym =
  let targets =
    match models with
    | [] -> Ok Models.entries
    | names ->
      let rec pick acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest ->
          (match Models.find_opt name with
           | Some t -> pick (t :: acc) rest
           | None ->
             Error
               (`Msg
                  (Printf.sprintf "unknown lint target %S (try one of: %s)"
                     name
                     (String.concat ", "
                        (List.map (fun e -> e.Models.name) Models.entries)))))
      in
      pick [] names
  in
  match targets with
  | Error _ as e -> e
  | Ok targets ->
    let report =
      Analysis.Report.merge_all
        (List.map (fun e -> e.Models.lint ~max_states ~sym ()) targets)
    in
    (match format with
     | `Text -> Format.printf "@[<v>%a@]@." Analysis.Report.pp_text report
     | `Json ->
       print_endline (Analysis.Json.to_string (Analysis.Report.to_json report)));
    report_stats stats;
    exit (Analysis.Report.exit_code ~strict report)

let lint_cmd =
  let models =
    Arg.(value & pos_all string []
         & info [] ~docv:"MODEL"
             ~doc:(Printf.sprintf
                     "Lint targets (all when omitted): %s."
                     (String.concat ", "
                        (List.map (fun e -> e.Models.name) Models.entries))))
  in
  let format =
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: text (human-readable) or json (for CI).")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit nonzero on warnings too, not only on errors.")
  in
  let max_states =
    Arg.(value & opt int 2_000_000
         & info [ "max-states" ] ~docv:"N"
             ~doc:"Exploration bound per model (PA000 when exceeded).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify model well-formedness: probability spaces, \
             equality/hash coherence, deadlocks, action signatures, \
             zero-time cycles, tick divergence, and claim-composition \
             premises.  Exit status is nonzero when any error-severity \
             diagnostic fires (see docs/LINTS.md for the code catalogue).")
    Term.(term_result
            (const lint $ stats_arg $ models $ format $ strict $ max_states
             $ sym_arg))

(* ----------------------------------------------------------------- *)
(* serve *)

let serve_cmd =
  let d = Server.Daemon.default_config in
  let port =
    Arg.(value & opt int d.Server.Daemon.port
         & info [ "port" ] ~docv:"P"
             ~doc:"TCP port to listen on (0 picks a free one; the banner \
                   prints it).")
  in
  let host =
    Arg.(value & opt string d.Server.Daemon.host
         & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let domains =
    Arg.(value & opt int d.Server.Daemon.domains
         & info [ "domains" ] ~docv:"N"
             ~doc:"Total domains: one accept loop plus N-1 workers \
                   (minimum 2).")
  in
  let cache_mb =
    Arg.(value & opt int d.Server.Daemon.cache_mb
         & info [ "cache-mb" ] ~docv:"M"
             ~doc:"Capacity of the compiled-arena registry cache and of \
                   the finished-result cache, M MiB each.")
  in
  let accept_queue =
    Arg.(value & opt int d.Server.Daemon.accept_queue
         & info [ "accept-queue" ] ~docv:"Q"
             ~doc:"Accepted connections allowed to wait for a worker \
                   before new ones are answered 503.")
  in
  let max_states =
    Arg.(value & opt int d.Server.Daemon.max_states
         & info [ "max-states" ] ~docv:"N"
             ~doc:"Per-request exploration ceiling; hostile queries get a \
                   structured \"exhausted\" verdict instead of a wedged \
                   worker.")
  in
  let degraded_after =
    Arg.(value & opt float d.Server.Daemon.degraded_after
         & info [ "degraded-after" ] ~docv:"SECS"
             ~doc:"Age of the oldest in-flight request beyond which \
                   /health reports \"degraded\" instead of \"ok\".")
  in
  let snapshot_dir =
    Arg.(value & opt (some string) None
         & info [ "snapshot-dir" ] ~docv:"DIR"
             ~doc:"Preload every $(b,*.prtba) arena snapshot in DIR \
                   (written by $(b,prtb compile)) into the model \
                   registry before accepting connections, so the first \
                   query for a snapshotted instance is a registry hit \
                   -- /stats reports explorations: 0, compiles: 0.  \
                   Stale or tampered snapshots are refused with a \
                   warning and the daemon still starts.")
  in
  let run host port domains cache_mb accept_queue max_states deadline
      degraded_after snapshot_dir =
    if domains < 2 then
      Error (`Msg "serve needs --domains >= 2 (one accepts, the rest work)")
    else begin
      Server.Daemon.run
        { d with Server.Daemon.host; port; domains; cache_mb; accept_queue;
          max_states; deadline_ms = deadline; degraded_after; snapshot_dir };
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent verification service: an HTTP daemon \
             answering /check, /simulate, /lint, /stats and /health from \
             a pool of worker domains, with LRU caching of compiled \
             arenas and finished results (see docs/SERVER.md).  SIGTERM \
             drains accepted connections and exits 0.")
    Term.(term_result
            (const run $ host $ port $ domains $ cache_mb $ accept_queue
             $ max_states
             $ deadline_arg
                 ~doc:"Server-side default deadline applied to every \
                       compute request, e.g. 500ms.  A client \
                       deadline_ms can only tighten it; on expiry the \
                       request is answered with the degraded SRV122 \
                       body instead of running to completion."
             $ degraded_after $ snapshot_dir))

(* ----------------------------------------------------------------- *)
(* chaos *)

let chaos_cmd =
  let url =
    Arg.(required & opt (some string) None
         & info [ "url" ] ~docv:"URL"
             ~doc:"Base URL of the daemon under test, e.g. \
                   http://127.0.0.1:8080/.  The path (plus query) is \
                   the valid-traffic target for the mixed scenario; it \
                   must compute a deterministic body.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S"
             ~doc:"PRNG seed; a given seed replays the same byte \
                   streams every run.")
  in
  let scenarios =
    Arg.(value & opt (some string) None
         & info [ "scenarios" ] ~docv:"LIST"
             ~doc:(Printf.sprintf
                     "Comma-separated scenario list (default all): %s."
                     (String.concat ", "
                        (List.map Server.Chaos.scenario_name
                           Server.Chaos.all_scenarios))))
  in
  let rounds =
    Arg.(value & opt int 5
         & info [ "rounds" ] ~docv:"R"
             ~doc:"Iterations per scenario.")
  in
  let clients =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"C"
             ~doc:"Concurrent domains for the mixed scenario, 2-64.")
  in
  let idle_s =
    Arg.(value & opt float 1.5
         & info [ "idle-s" ] ~docv:"SECS"
             ~doc:"Idle parking time for the idle-keepalive scenario.")
  in
  let run url seed scenarios rounds clients idle_s =
    if rounds < 1 then Error (`Msg "--rounds must be positive")
    else if clients < 2 || clients > 64 then
      Error (`Msg "--clients must be in 2-64")
    else if not (Float.is_finite idle_s && idle_s >= 0.0) then
      Error (`Msg "--idle-s must be a finite number >= 0")
    else
      match Server.Http.parse_url url with
      | Error e -> Error (`Msg e)
      | Ok u ->
        let scenarios =
          match scenarios with
          | None -> Ok Server.Chaos.all_scenarios
          | Some spec ->
            List.fold_right
              (fun part acc ->
                 match acc with
                 | Error _ as e -> e
                 | Ok rest ->
                   (match Server.Chaos.scenario_of_string part with
                    | Ok s -> Ok (s :: rest)
                    | Error e -> Error e))
              (List.filter
                 (fun p -> String.trim p <> "")
                 (String.split_on_char ',' spec))
              (Ok [])
        in
        (match scenarios with
         | Error e -> Error (`Msg e)
         | Ok [] -> Error (`Msg "--scenarios named no scenario")
         | Ok scenarios ->
           let r =
             Server.Chaos.run ~scenarios ~rounds ~clients ~idle_s ~seed u
           in
           Format.printf "%a@." Server.Chaos.pp_report r;
           if r.Server.Chaos.ok then Ok ()
           else refuse "chaos harness found failures")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Torture a running $(b,prtb serve) with a seeded adversarial \
             client: trickled headers, connections closed mid-body, \
             garbage and oversized frames, idle keep-alive squatting, \
             and garbage interleaved with valid traffic.  Exits 0 only \
             if every attempt reconciles (answered, rejected, or \
             cleanly dropped), the daemon's 5xx counter did not grow, \
             and /health returns to \"ok\" afterwards.")
    Term.(term_result
            (const run $ url $ seed $ scenarios $ rounds $ clients
             $ idle_s))

(* ----------------------------------------------------------------- *)

let () =
  let doc =
    "proving time bounds for randomized distributed algorithms \
     (Lynch-Saias-Segala, PODC'94): exhaustive checking, proof \
     composition and simulation"
  in
  let info = Cmd.info "prtb" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ experiments_cmd; check_cmd; verify_cert_cmd; compile_cmd;
         simulate_cmd; export_dot_cmd; lint_cmd; serve_cmd; chaos_cmd ]))
