(* End-to-end tests for the verification service: a real daemon on a
   real socket (port 0), exercised through [Http.Conn].

   The two load-bearing assertions from the acceptance criteria:
   served /check bodies are byte-identical to [prtb check --format
   json] for all four case studies, and a repeated query is answered
   from the result cache -- the [X-Prtb-Cache] header flips to [hit]
   and the /stats registry counters (explorations, compiles) stay
   exactly put. *)

module J = Analysis.Json
module D = Server.Daemon
module H = Server.Http

(* One shared daemon for the happy-path tests; tiny worker count, the
   CI container has one core. *)
let daemon =
  lazy
    (D.start
       { D.default_config with
         D.port = 0; domains = 3; cache_mb = 32; accept_queue = 8 })

let url target =
  { H.host = "127.0.0.1"; port = D.port (Lazy.force daemon); target }

let get ?meth ?body target =
  let conn = H.Conn.create (url target) in
  Fun.protect
    ~finally:(fun () -> H.Conn.close conn)
    (fun () ->
       match H.Conn.request conn ?meth ?body target with
       | Ok r -> r
       | Error e -> Alcotest.failf "GET %s: %s" target e)

let member_exn path json =
  List.fold_left
    (fun j k ->
       match J.member k j with
       | Some v -> v
       | None -> Alcotest.failf "missing %S in %s" k (J.to_string json))
    json path

let int_at path json =
  match member_exn path json with
  | J.Int i -> i
  | other -> Alcotest.failf "not an int: %s" (J.to_string other)

let str_at path json =
  match member_exn path json with
  | J.Str s -> s
  | other -> Alcotest.failf "not a string: %s" (J.to_string other)

let parse_body (r : Server.Http.response_msg) =
  match J.of_string r.Server.Http.resp_body with
  | Ok j -> j
  | Error e ->
    Alcotest.failf "unparsable body %S: %s" r.Server.Http.resp_body e

(* Resolve the CLI next to this test binary, so the comparison works
   from any cwd (dune runtest and dune exec differ). *)
let prtb_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "prtb.exe"))

(* A CLI run's exit code and its stdout. *)
let cli_run args =
  let cmd = Filename.quote prtb_exe ^ " " ^ args in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, out)
  | _ -> Alcotest.failf "%s was killed" cmd

let cli args =
  match cli_run args with
  | 0, out -> out
  | _ -> Alcotest.failf "prtb %s failed" args

(* A CLI run expected to fail: its exit code and its merged output. *)
let cli_failing args =
  let cmd = Filename.quote prtb_exe ^ " " ^ args ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, out)
  | _ -> Alcotest.failf "%s was killed" cmd

(* The engines' work vectors, borrowed from their domain's pool, carry
   nothing from one pass to the next.  On one domain, with regions run
   inline: the check region of a fresh lr n=3 instance, then of
   election n=5 (fewer states, so longer vectors come back), then an lr
   n=3 region cut by a 1 ms deadline while vectors are borrowed, then
   lr n=3 again.  Each body's fields end the body of a fresh [prtb
   check --format json] process, byte for byte. *)
let test_pool_reuse () =
  let fields inst = J.to_string (J.Obj (Models.check_fields inst)) in
  let lr3 () = Models.Lr (Lehmann_rabin.Proof.build ~n:3 ()) in
  let first, election, cut, again =
    Domain.join
      (Domain.spawn (fun () ->
           Parallel.Fork.mark_inline ();
           let first = fields (lr3 ()) in
           let election =
             fields (Models.Election (Itai_rodeh.Proof.build ~n:5 ()))
           in
           let inst = lr3 () in
           let clock = Core.Budget.start (Core.Budget.v ~wall:0.001 ()) in
           let cut =
             match Core.Budget.with_deadline clock (fun () -> fields inst) with
             | _ -> false
             | exception Core.Budget.Deadline_exceeded _ -> true
           in
           (first, election, cut, fields (lr3 ()))))
  in
  let ends what args got =
    let printed = String.trim (cli ("check --format json " ^ args)) in
    let tail = "," ^ String.sub got 1 (String.length got - 1) in
    if not (String.ends_with ~suffix:tail printed) then
      Alcotest.failf "%s: fields %s do not end %s" what got printed
  in
  ends "lr n=3, first" "lr -n 3" first;
  ends "election n=5, after lr" "election -n 5" election;
  Alcotest.(check bool) "the 1 ms deadline cut the region" true cut;
  ends "lr n=3, after the cut" "lr -n 3" again

(* ------------------------------------------------------------------ *)

(* At rest the body is a fixed string: nothing in flight, so the
   supervision fields are zero.  ("status" stays the first field; the
   CI smoke greps for the '"status":"ok"' prefix.) *)
let test_health () =
  let r = get "/health" in
  Alcotest.(check int) "200" 200 r.Server.Http.status;
  Alcotest.(check string) "body"
    "{\"status\":\"ok\",\"in_flight\":0,\"oldest_ms\":0}"
    r.Server.Http.resp_body

(* Acceptance: the served body and the CLI's --format json output are
   bit-identical (the CLI appends one newline to the same bytes). *)
let test_check_matches_cli () =
  List.iter
    (fun (target, args) ->
       let served = (get target).Server.Http.resp_body in
       let printed = cli ("check --format json " ^ args) in
       Alcotest.(check string)
         (Printf.sprintf "%s == prtb check %s" target args)
         printed (served ^ "\n"))
    [ ("/check?model=lr&n=3", "lr");
      ("/check?model=lr&n=3&topology=line", "lr --topology line");
      ("/check?model=election&n=3", "election");
      ("/check?model=coin&n=2&bound=2", "coin -n 2 --bound 2");
      ("/check?model=consensus&n=3&cap=2", "consensus") ]

(* Acceptance: the repeat is served from the result cache -- hit
   header, identical body, and the registry did no new exploration or
   arena compilation. *)
let test_repeat_hits_cache () =
  let target = "/check?model=coin&n=2&bound=3" in
  let first = get target in
  Alcotest.(check (option string)) "first is a miss" (Some "miss")
    (Server.Http.resp_header first "x-prtb-cache");
  let stats1 = parse_body (get "/stats") in
  let second = get target in
  Alcotest.(check (option string)) "second is a hit" (Some "hit")
    (Server.Http.resp_header second "x-prtb-cache");
  Alcotest.(check string) "same bytes" first.Server.Http.resp_body
    second.Server.Http.resp_body;
  let stats2 = parse_body (get "/stats") in
  List.iter
    (fun counter ->
       Alcotest.(check int)
         (counter ^ " unchanged by the cached reply")
         (int_at [ "registry"; counter ] stats1)
         (int_at [ "registry"; counter ] stats2))
    [ "explorations"; "compiles"; "builds" ];
  Alcotest.(check bool) "result-cache hits grew" true
    (int_at [ "results_cache"; "hits" ] stats2
     > int_at [ "results_cache"; "hits" ] stats1)

(* GET query pairs and a POST JSON body canonicalize to the same key,
   so the POST form hits the GET form's cache entry. *)
let test_post_and_get_share_cache () =
  let seed = get "/check?model=election&n=2" in
  let posted =
    get ~meth:"POST" ~body:"{\"model\":\"election\",\"n\":2}" "/check"
  in
  Alcotest.(check (option string)) "post hits get's entry" (Some "hit")
    (Server.Http.resp_header posted "x-prtb-cache");
  Alcotest.(check string) "same bytes" seed.Server.Http.resp_body
    posted.Server.Http.resp_body

(* [sym] is a cache dimension with a canonical default: omitting it and
   spelling [sym=off] share one entry, [sym=on] occupies another -- and
   the two entries hold byte-identical bodies (the orbit quotient is
   invisible in the answer, including the reported state count).  A
   client [max_states] beyond the server's ceiling clamps into the
   default entry too. *)
let test_sym_cache_dimension () =
  let base = "/check?model=consensus&n=3&cap=1" in
  let plain = get base in
  Alcotest.(check (option string)) "first query misses" (Some "miss")
    (Server.Http.resp_header plain "x-prtb-cache");
  let off = get (base ^ "&sym=off") in
  Alcotest.(check (option string)) "explicit sym=off hits the default"
    (Some "hit")
    (Server.Http.resp_header off "x-prtb-cache");
  let on = get (base ^ "&sym=on") in
  Alcotest.(check (option string)) "sym=on is a distinct key" (Some "miss")
    (Server.Http.resp_header on "x-prtb-cache");
  Alcotest.(check string) "sym=on body == sym=off body"
    off.Server.Http.resp_body on.Server.Http.resp_body;
  let clamped = get (base ^ "&max_states=999999999") in
  Alcotest.(check (option string)) "over-ceiling max_states clamps in"
    (Some "hit")
    (Server.Http.resp_header clamped "x-prtb-cache")

(* [plane] is a cache dimension with a canonical default, exactly like
   [sym]: omitting it and spelling [plane=interval] share one entry,
   [plane=exact] occupies another -- and the two /check entries hold
   byte-identical bodies (the plane never changes a verdict). *)
let test_plane_cache_dimension () =
  let base = "/check?model=coin&n=2&bound=4" in
  let plain = get base in
  Alcotest.(check (option string)) "first query misses" (Some "miss")
    (Server.Http.resp_header plain "x-prtb-cache");
  let interval = get (base ^ "&plane=interval") in
  Alcotest.(check (option string))
    "explicit plane=interval hits the default" (Some "hit")
    (Server.Http.resp_header interval "x-prtb-cache");
  let exact = get (base ^ "&plane=exact") in
  Alcotest.(check (option string)) "plane=exact is a distinct key"
    (Some "miss")
    (Server.Http.resp_header exact "x-prtb-cache");
  Alcotest.(check string) "plane=exact body == plane=interval body"
    interval.Server.Http.resp_body exact.Server.Http.resp_body;
  (* and the CLI prints the same bytes for the same plane *)
  let printed = cli "check --format json coin -n 2 --bound 4 --plane exact" in
  Alcotest.(check string) "served == prtb check --plane exact" printed
    (exact.Server.Http.resp_body ^ "\n")

(* Acceptance: served /cert bodies are bit-identical to [prtb check
   --emit-cert], the body is a well-formed certificate the independent
   verifier accepts, repeats answer from the cache -- and the exact
   plane is a distinct entry whose body differs (each leaf's recorded
   configuration names its plane). *)
let test_cert_matches_cli () =
  let served = get "/cert?model=coin&n=2&bound=2" in
  Alcotest.(check int) "200" 200 served.Server.Http.status;
  let printed = cli "check --emit-cert coin -n 2 --bound 2" in
  Alcotest.(check string) "/cert == prtb check --emit-cert" printed
    (served.Server.Http.resp_body ^ "\n");
  (match Cert.Node.of_string served.Server.Http.resp_body with
   | Error e -> Alcotest.failf "served body is not a certificate: %s" e
   | Ok cert ->
     (match Cert.Verify.run cert with
      | Ok s ->
        Alcotest.(check bool) "fully verified" true
          s.Cert.Verify.fully_verified
      | Error e ->
        Alcotest.failf "served certificate rejected: %s"
          (Cert.Verify.error_to_string e)));
  let repeat = get "/cert?model=coin&n=2&bound=2" in
  Alcotest.(check (option string)) "repeat hits the cache" (Some "hit")
    (Server.Http.resp_header repeat "x-prtb-cache");
  let exact = get "/cert?model=coin&n=2&bound=2&plane=exact" in
  Alcotest.(check (option string)) "exact plane is a distinct entry"
    (Some "miss")
    (Server.Http.resp_header exact "x-prtb-cache");
  Alcotest.(check bool) "cert bodies differ across planes" false
    (String.equal served.Server.Http.resp_body exact.Server.Http.resp_body)

(* [g] and [k] reach the registry for every model: a g=2 election
   query answers on the g=2 instance, and its certificate leaves carry
   that instance's fingerprint next to their g=2 configuration. *)
let test_g_k_reach_registry () =
  let arena = (Models.election ~g:2 ~n:3 ()).Itai_rodeh.Proof.arena in
  let g1 = (Models.election ~n:3 ()).Itai_rodeh.Proof.arena in
  Alcotest.(check bool) "g=2 is a different instance" false
    (Mdp.Arena.num_states arena = Mdp.Arena.num_states g1);
  let body = parse_body (get "/check?model=election&n=3&g=2") in
  Alcotest.(check int) "/check states" (Mdp.Arena.num_states arena)
    (int_at [ "states" ] body);
  let cert = get "/cert?model=election&n=3&g=2" in
  match Cert.Node.of_string cert.Server.Http.resp_body with
  | Error e -> Alcotest.failf "g=2 body is not a certificate: %s" e
  | Ok c ->
    let leaves =
      Array.to_list c.Cert.Node.nodes
      |> List.filter_map (fun (nd : Cert.Node.node) ->
          match nd.Cert.Node.rule with
          | Cert.Node.Checked { fingerprint; config; _ } ->
            Some (fingerprint, config)
          | _ -> None)
    in
    Alcotest.(check bool) "has checked leaves" true (leaves <> []);
    List.iter
      (fun (fp, (config : Cert.Node.leaf_config)) ->
         Alcotest.(check string) "leaf fingerprint"
           (Mdp.Arena.fingerprint arena) fp;
         Alcotest.(check (option string)) "leaf g" (Some "2")
           (List.assoc_opt "g" config.Cert.Node.params))
      leaves

(* The text report resolves consensus through the registry too. *)
let test_text_consensus_uses_registry () =
  let out = cli "check consensus --stats" in
  Alcotest.(check bool) "builds: 1" true
    (Astring.String.is_infix ~affix:"explorations: 1, compiles: 1, builds: 1"
       out)

let test_simulate_deterministic () =
  let target = "/simulate?model=election&n=3&trials=200&seed=7" in
  let a = get target in
  Alcotest.(check int) "200" 200 a.Server.Http.status;
  let b = get target in
  Alcotest.(check (option string)) "cached" (Some "hit")
    (Server.Http.resp_header b "x-prtb-cache");
  Alcotest.(check string) "seeded runs agree" a.Server.Http.resp_body
    b.Server.Http.resp_body

(* The CLI and /simulate share each family's Monte Carlo setup: a
   reach estimate for every model, the same number for the same seed
   and trials, and the same refusal of an lr-only scheduler. *)
let test_simulate_matches_cli () =
  let served =
    parse_body (get "/simulate?model=coin&n=3&within=5&trials=500")
  in
  let estimate =
    match member_exn [ "reach"; "estimate" ] served with
    | J.Num f -> f
    | other -> Alcotest.failf "not a number: %s" (J.to_string other)
  in
  let printed = cli "simulate coin -n 3 --within 5 --trials 500" in
  Alcotest.(check bool)
    (Printf.sprintf "%S carries the served estimate %.4f" printed estimate)
    true
    (Astring.String.is_infix ~affix:(Printf.sprintf "~ %.4f " estimate)
       printed);
  let code, out = cli_failing "simulate coin --scheduler eager" in
  Alcotest.(check bool) "eager on coin fails" true (code <> 0);
  Alcotest.(check bool) "names the scheduler" true
    (Astring.String.is_infix ~affix:"eager" out)

(* Parameters outside a family's range are a named usage error, not an
   uncaught exception (cmdliner's exit 125). *)
let test_cli_refuses_out_of_range () =
  let code, out = cli_failing "check lr -n 1" in
  Alcotest.(check bool) "fails" true (code <> 0);
  Alcotest.(check bool) "not an uncaught exception" true (code <> 125);
  Alcotest.(check bool) (out ^ " names -n") true
    (Astring.String.is_infix ~affix:"-n must be at least 2" out);
  (* An unknown experiment id is refused before any experiment runs. *)
  let code, out = cli_failing "experiments --quick e2 e99" in
  Alcotest.(check int) "unknown experiment: usage error" 124 code;
  Alcotest.(check bool) (out ^ " ran nothing") false
    (Astring.String.is_infix ~affix:"E2" out)

(* An n past the family's largest checkable size is refused before
   anything builds: at once on the CLI, as SRV103 when served.  Monte
   Carlo still takes it, because large rings are what it is for, up to
   the family's Monte Carlo ceiling. *)
let test_refuses_past_largest_n () =
  let t0 = Unix.gettimeofday () in
  let code, out = cli_failing "check lr -n 99" in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "usage error" 124 code;
  Alcotest.(check bool) (out ^ " names -n") true
    (Astring.String.is_infix ~affix:"-n must be at most 5 for lr (got 99)"
       out);
  Alcotest.(check bool)
    (Printf.sprintf "refused in %.3f s" elapsed) true (elapsed < 1.0);
  let before = Models.stats () in
  List.iter
    (fun target ->
       let r = get target in
       Alcotest.(check int) (target ^ " status") 400 r.Server.Http.status;
       Alcotest.(check string) (target ^ " code") "SRV103"
         (str_at [ "error"; "code" ] (parse_body r)))
    [ "/check?model=lr&n=99"; "/cert?model=lr&n=99";
      "/check?model=election&n=11" ];
  let after = Models.stats () in
  Alcotest.(check int) "no exploration" before.Models.explorations
    after.Models.explorations;
  Alcotest.(check int) "no registry build" before.Models.builds
    after.Models.builds;
  let simulate = "GET /simulate?model=lr&n=99 HTTP/1.1\r\n\r\n" in
  let req =
    match H.read_request (H.of_string simulate) with
    | `Request req -> req
    | `Eof | `Error _ -> Alcotest.fail "request did not parse"
  in
  (match Server.Protocol.of_request req with
   | Ok (Server.Protocol.Simulate s) ->
     Alcotest.(check int) "simulate n" 99 s.Server.Protocol.sim_n
   | Ok _ -> Alcotest.fail "not a simulate query"
   | Error e ->
     Alcotest.failf "simulate n=99 refused: %s" e.Server.Protocol.message);
  (* Past the family's Monte Carlo ceiling, Monte Carlo refuses too. *)
  let t0 = Unix.gettimeofday () in
  let code, out = cli_failing "simulate lr -n 1600" in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "simulate: usage error" 124 code;
  Alcotest.(check bool) (out ^ " names -n") true
    (Astring.String.is_infix
       ~affix:"-n must be at most 100 for lr Monte Carlo (got 1600)" out);
  Alcotest.(check bool)
    (Printf.sprintf "simulate refused in %.3f s" elapsed) true (elapsed < 1.0);
  let r = get "/simulate?model=lr&n=1600" in
  Alcotest.(check int) "/simulate status" 400 r.Server.Http.status;
  let j = parse_body r in
  Alcotest.(check string) "/simulate code" "SRV103"
    (str_at [ "error"; "code" ] j);
  Alcotest.(check string) "/simulate message"
    {|field "n" must be at most 100 for lr Monte Carlo (got 1600)|}
    (str_at [ "error"; "message" ] j)

(* The text report and the JSON lint report have no served twin to be
   compared against, so their bytes are pinned by digest: a rendering
   change that alters any of them must update this table on purpose.
   The exit code is not pinned: [--sym on] lints lr-line, whose group
   fails to certify, as an error. *)
let test_cli_bytes_pinned () =
  List.iter
    (fun (args, md5) ->
       Alcotest.(check string) ("prtb " ^ args) md5
         (Digest.to_hex (Digest.string (snd (cli_run args)))))
    [ ("check lr -n 3", "66309f1d6926d1e5d30a8d789ff008a5");
      ("check lr -n 3 --topology line", "4aa3b506dab9425340328a3ae5444cff");
      ("check lr -n 3 --topology star", "8fb3f75f79644da8b417ed8b5e7378e5");
      ("check lr -n 3 --sym on", "5c28e42b9c60513f2a56fe7d5b7768d7");
      ("check election -n 4", "56c41c7ba40d4c7a02d3f999d840dc76");
      ("check election -n 5 --sym on", "73b3f05e18bdc292bfd570ccf3067c9d");
      ("check coin -n 2 --bound 2", "7b69b01f57a10732f3a586ffb74c8980");
      ("check coin -n 3 --bound 3", "75c755ad6d52a6da90e0b2644b429ae9");
      ("check consensus -n 3 --cap 2", "24db3254a1f9be5217a6f3e4a60ad647");
      ("check lr -n 3 --faults crash:1", "c60389a13746e7f9891ad29fbc944d86");
      ("lint --format json", "d780930cc9183b0e94a1412b218cc9df");
      ("lint --format json --sym on", "3ab6ee6c16a8863bb52700ba5cd3b388");
      ( "simulate lr -n 4 --scheduler uniform --seed 7 --trials 300",
        "da9ee2fb954213459e130e0af3df8497" );
      ( "simulate lr -n 4 --scheduler eager --seed 7 --trials 300",
        "fe94d6c892bbf739582c6527d35ea882" );
      ( "simulate lr -n 4 --scheduler delayer --seed 7 --trials 300",
        "dc49cd652e340afae7755ee50850c2aa" );
      ( "simulate lr -n 4 --scheduler starver --seed 7 --trials 300",
        "e468c201c2e79a567664ed47443b5227" );
      ( "simulate lr -n 4 --scheduler round-robin --seed 7 --trials 300",
        "6340b618d72e671e7733695144d80134" );
      ( "simulate election -n 4 --seed 7 --trials 300",
        "f1f7781a022dfcfd532d09ba9a17767e" );
      ( "simulate coin -n 4 --seed 7 --trials 300",
        "59c13fece2c0fec05ace3e983bf3a7ae" );
      ( "simulate consensus -n 4 --seed 7 --trials 300",
        "ac9d6273aa3d0163dd4fed28b870f922" ) ]

(* The files [compile] and [export-dot] write are pinned by digest too:
   snapshot bytes carry the arena's CSR arrays, interned states and
   fingerprint, so any change to exploration order or to how the
   transition store is laid out shows here. *)
let test_cli_files_pinned () =
  let path = Filename.temp_file "prtb-pinned" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       List.iter
         (fun (args, md5) ->
            ignore (cli (args ^ " -o " ^ Filename.quote path));
            Alcotest.(check string) ("prtb " ^ args) md5
              (Digest.to_hex (Digest.file path)))
         [ ("compile lr -n 3", "dd078ccd35640303c99bcb24fa29b29a");
           ("compile lr -n 3 --sym on", "a1daaae1fca22fd00f2ef5097ce8b98e");
           ("compile lr -n 3 --topology line",
            "877bb2863eb3e234b4b2300b445cb93f");
           ("compile lr -n 3 --topology star --sym on",
            "bb283f991ead458da6c511b61101d628");
           ("compile election -n 5", "1dd035b0e3cd2e22107c69b867c610b1");
           ("compile election -n 6 --sym on",
            "bd94af51c6fe92200818db15f208c4d9");
           ("compile coin -n 2 --bound 2", "962a18fd51851797daed046f0a93bafd");
           ("compile coin -n 3 --bound 3 --sym on",
            "003dbe9ec8f326dab4cf3eb84c243565");
           ("compile consensus --cap 2", "c14af5c21d659ad1f93c67449097c192");
           ("compile consensus --cap 2 --sym on",
            "636c755771c6035f6ab79b431c4bce9c");
           ("export-dot coin -n 2 --bound 2",
            "23ce5412ac62a181f49d1ae1e64815b8");
           ("export-dot election -n 3", "d4234c463a4d8171cb8c8d023f52834d");
           ("export-dot lr -n 2", "22803393e4cc7cc36f2e70e08d5a7811") ])

(* A write that fails at run time is a refusal (exit 1) naming the
   file, and leaves no temp file behind; a mistyped flag is still a
   usage error (exit 124). *)
let test_cli_io_failures_exit_1 () =
  let dir = Filename.temp_dir "prtb-cli" "" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
       List.iter
         (fun (args, path) ->
            let code, out = cli_failing args in
            Alcotest.(check int) ("exit code of " ^ args) 1 code;
            Alcotest.(check bool) (out ^ " names " ^ path) true
              (Astring.String.is_infix ~affix:path out);
            Alcotest.(check bool) ("no temp file after " ^ args) false
              (Sys.file_exists (path ^ ".tmp")))
         [ ("compile coin -o /nonexistent/dir/x.prtba",
            "/nonexistent/dir/x.prtba");
           ("compile coin -o " ^ Filename.quote dir, dir);
           ("export-dot coin -o /nonexistent/dir/x.dot",
            "/nonexistent/dir/x.dot") ]);
  Alcotest.(check int) "check lr --bogus" 124
    (fst (cli_failing "check lr --bogus"))

(* An instance past export-dot's size limit is a refusal (exit 1, a
   [prtb:] message naming the state count and the limit), not an
   uncaught exception, and writes no file. *)
let test_export_dot_limit_refused () =
  let path = Filename.temp_file "prtb-dot" ".dot" in
  Sys.remove path;
  let code, out =
    cli_failing ("export-dot lr -n 3 -o " ^ Filename.quote path)
  in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check string) "message"
    "prtb: 8092 states exceed export-dot's 2000-state limit; export a \
     smaller instance (lower -n)\n"
    out;
  Alcotest.(check bool) "no file written" false (Sys.file_exists path)

(* The fault ladder's flags mean nothing without --faults: a check
   without it refuses each one by name (exit 124) instead of running
   the normal report. *)
let test_cli_fault_flags_need_faults () =
  List.iter
    (fun (flag, args) ->
       let code, out = cli_failing ("check coin -n 2 " ^ args) in
       Alcotest.(check int) ("exit code of " ^ args) 124 code;
       Alcotest.(check string) ("message of " ^ args)
         ("prtb: " ^ flag ^ " applies to --faults runs only; drop it\n")
         out)
    [ ("--budget", "--budget states:10");
      ("--release", "--release false");
      ("--seed", "--seed 5");
      ("--budget", "--budget states:10 --release false --seed 5");
      ("--seed", "--format json --seed 5");
      ("--release", "--emit-cert --release true") ]

let test_lint_served () =
  let r = get "/lint?target=example:race" in
  Alcotest.(check int) "200" 200 r.Server.Http.status;
  let j = parse_body r in
  Alcotest.(check string) "target" "example:race" (str_at [ "target" ] j);
  Alcotest.(check int) "no errors" 0
    (int_at [ "report"; "summary"; "errors" ] j)

let test_budget_exhausted_verdict () =
  let r = get "/check?model=lr&n=3&max_states=50" in
  Alcotest.(check int) "still a 200" 200 r.Server.Http.status;
  let j = parse_body r in
  Alcotest.(check string) "verdict" "exhausted" (str_at [ "verdict" ] j);
  Alcotest.(check string) "code" "SRV120" (str_at [ "code" ] j)

(* Acceptance: a deadlined request is answered 200 with the degraded
   SRV122 body -- a deterministic function of the query, so the same
   request twice yields the same bytes, and neither reply is cached
   (a degraded answer must never shadow the exact one).  The instance
   is sized so that even the repeat, which finds the arena the first
   request already built in the registry, cannot finish its exact
   check within 1 ms. *)
let test_deadline_degraded_deterministic () =
  let target = "/check?model=election&n=6&deadline_ms=1" in
  let a = get target in
  Alcotest.(check int) "still a 200" 200 a.Server.Http.status;
  let j = parse_body a in
  Alcotest.(check string) "verdict" "deadline-exceeded"
    (str_at [ "verdict" ] j);
  Alcotest.(check string) "code" "SRV122" (str_at [ "code" ] j);
  Alcotest.(check int) "echoes the deadline" 1 (int_at [ "deadline_ms" ] j);
  Alcotest.(check string) "estimate rung present" "monte-carlo"
    (str_at [ "estimate"; "kind" ] j);
  Alcotest.(check bool) "at least one trial" true
    (int_at [ "estimate"; "trials" ] j >= 1);
  Alcotest.(check (option string)) "degraded marker"
    (Some "SRV122")
    (Server.Http.resp_header a "x-prtb-degraded");
  let b = get target in
  Alcotest.(check string) "byte-identical on repeat"
    a.Server.Http.resp_body b.Server.Http.resp_body;
  Alcotest.(check (option string)) "degraded bodies are never cached"
    (Some "miss")
    (Server.Http.resp_header b "x-prtb-cache");
  (* and the CLI prints the same bytes for the same query *)
  let printed = cli "check election -n 6 --deadline 1ms --format json" in
  Alcotest.(check string) "served == prtb check --deadline"
    printed
    (a.Server.Http.resp_body ^ "\n")

(* A cached complete body trivially meets any deadline: deadline_ms is
   not part of the cache key, so a warmed query answers the exact body
   from cache even when the deadline could never be met live. *)
let test_deadline_cached_body_wins () =
  let warm = get "/check?model=coin&n=2&bound=2" in
  let hit = get "/check?model=coin&n=2&bound=2&deadline_ms=1" in
  Alcotest.(check (option string)) "cache hit despite deadline"
    (Some "hit")
    (Server.Http.resp_header hit "x-prtb-cache");
  Alcotest.(check string) "exact body, not SRV122"
    warm.Server.Http.resp_body hit.Server.Http.resp_body

let test_structured_errors () =
  List.iter
    (fun (target, status, code) ->
       let r = get target in
       Alcotest.(check int) (target ^ " status") status
         r.Server.Http.status;
       let j = parse_body r in
       Alcotest.(check string) (target ^ " code") code
         (str_at [ "error"; "code" ] j))
    [ ("/nope", 404, "SRV100");
      ("/check?model=quantum", 404, "SRV104");
      ("/check?model=lr&n=zero", 400, "SRV103");
      ("/check?model=lr&n=-2", 400, "SRV103");
      ("/check?model=coin&topology=line", 400, "SRV103");
      ("/simulate?model=coin&scheduler=eager", 400, "SRV103");
      ("/check?model=lr&n=1", 400, "SRV103");
      ("/check?model=election&n=1", 400, "SRV103");
      ("/cert?model=lr&n=1", 400, "SRV103");
      ("/simulate?model=lr&n=1", 400, "SRV103");
      ("/simulate?model=coin&n=3&bound=2", 400, "SRV103");
      ("/simulate?model=coin&n=3&g=3", 400, "SRV103");
      ("/simulate?model=lr&topology=star", 400, "SRV103");
      ("/lint?target=unknown", 404, "SRV104");
      ("/health?sleep_ms=90000", 400, "SRV103") ];
  (* A field /simulate does not read is refused by name, not ignored. *)
  List.iter
    (fun (target, field) ->
       let message = str_at [ "error"; "message" ] (parse_body (get target)) in
       Alcotest.(check bool) (message ^ " names " ^ field) true
         (Astring.String.is_infix ~affix:(Printf.sprintf "%S" field) message))
    [ ("/simulate?model=coin&n=3&bound=2", "bound");
      ("/simulate?model=coin&n=3&g=3", "g");
      ("/simulate?model=lr&topology=star", "topology") ];
  let r = get ~meth:"POST" ~body:"{not json" "/check" in
  Alcotest.(check int) "malformed body status" 400 r.Server.Http.status;
  let j = parse_body r in
  Alcotest.(check string) "malformed body code" "SRV102"
    (str_at [ "error"; "code" ] j)

(* A raw garbage request gets a clean 400 and a close, and the daemon
   keeps serving afterwards. *)
let test_garbage_request_line () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect fd
         (Unix.ADDR_INET
            (Unix.inet_addr_loopback, D.port (Lazy.force daemon)));
       let garbage = "\x00\x01GARBAGE\r\n\r\n" in
       ignore (Unix.write_substring fd garbage 0 (String.length garbage));
       let buf = Bytes.create 4096 in
       let n = Unix.read fd buf 0 4096 in
       let answer = Bytes.sub_string buf 0 n in
       Alcotest.(check bool) "answered 400" true
         (Astring.String.is_prefix ~affix:"HTTP/1.1 400" answer);
       Alcotest.(check bool) "SRV110 body" true
         (Astring.String.is_infix ~affix:"SRV110" answer));
  test_health ()

(* ------------------------------------------------------------------ *)
(* Chaos: the seeded adversarial client against the shared daemon. *)

module C = Server.Chaos

let chaos_url target = url target

let check_outcome name (o : C.outcome) =
  Alcotest.(check (list string)) (name ^ ": no failures") [] o.C.failures;
  Alcotest.(check int) (name ^ ": ledger reconciles") o.C.attempts
    (o.C.answered + o.C.rejected + o.C.dropped)

(* A request trickled one byte at a time is still answered 200. *)
let test_chaos_trickle () =
  check_outcome "trickle"
    (C.run_scenario ~rounds:2 ~seed:42 (chaos_url "/") C.Trickle);
  test_health ()

(* A POST abandoned mid-body is answered 4xx or cleanly dropped --
   never a 2xx, never a crash -- and the daemon keeps serving. *)
let test_chaos_midbody_close () =
  check_outcome "midbody-close"
    (C.run_scenario ~rounds:3 ~seed:42 (chaos_url "/") C.Midbody_close);
  test_health ()

(* Garbage and valid traffic interleaved from concurrent domains: the
   valid answers must be byte-identical, as if the garbage next door
   did not exist. *)
let test_chaos_mixed_valid_unharmed () =
  check_outcome "mixed"
    (C.run_scenario ~rounds:3 ~clients:4 ~seed:42
       (chaos_url "/check?model=lr&n=2") C.Mixed);
  test_health ()

(* Out-of-range [--clients] and [--idle-s] are refused by name, by the
   library and by the CLI, before any client domain or socket exists
   (nothing listens on port 1, so a slipped check would fail loudly). *)
let test_chaos_refuses_bad_settings () =
  let u = { H.host = "127.0.0.1"; port = 1; target = "/" } in
  let refused flag f =
    match f () with
    | (_ : C.report) -> Alcotest.failf "%s: accepted" flag
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (msg ^ " names " ^ flag) true
        (Astring.String.is_infix ~affix:flag msg)
  in
  List.iter
    (fun clients ->
       refused "--clients" (fun () -> C.run ~clients ~seed:1 u))
    [ -3; 0; 1; 65; 129 ];
  List.iter
    (fun idle_s -> refused "--idle-s" (fun () -> C.run ~idle_s ~seed:1 u))
    [ -0.5; Float.nan; Float.infinity ];
  List.iter
    (fun (args, flag) ->
       let code, out =
         cli_failing ("chaos --url http://127.0.0.1:1/ " ^ args)
       in
       Alcotest.(check bool) (args ^ " fails") true (code <> 0);
       Alcotest.(check bool) (out ^ " names " ^ flag) true
         (Astring.String.is_infix ~affix:flag out))
    [ ("--clients 1", "--clients"); ("--clients 200", "--clients");
      ("--idle-s=-1", "--idle-s"); ("--idle-s nan", "--idle-s") ]

(* An idle keep-alive connection parked past the connection deadline is
   dropped (the read timeout shrinks to the remaining allowance), and a
   fresh connection is served immediately afterwards.  Dedicated daemon
   with sub-second limits so the test stays quick. *)
let test_idle_keepalive_past_conn_deadline () =
  let d =
    D.start
      { D.default_config with
        D.port = 0; domains = 2; cache_mb = 8;
        read_timeout = 0.3; conn_deadline = 0.5 }
  in
  Fun.protect
    ~finally:(fun () ->
      D.stop d;
      D.wait d)
    (fun () ->
       let u = { H.host = "127.0.0.1"; port = D.port d; target = "/" } in
       let o =
         C.run_scenario ~rounds:2 ~idle_s:0.8 ~seed:42 u C.Idle_keepalive
       in
       Alcotest.(check (list string)) "no failures" [] o.C.failures;
       (* each round: the pre-idle request answered, the post-idle one
          dropped by the expired connection deadline *)
       Alcotest.(check int) "pre-idle answered" 2 o.C.answered;
       Alcotest.(check int) "post-idle dropped" 2 o.C.dropped;
       let conn = H.Conn.create u in
       (match H.Conn.request conn "/health" with
        | Ok r ->
          Alcotest.(check int) "fresh connection served" 200
            r.Server.Http.status
        | Error e -> Alcotest.failf "daemon wedged after idle abuse: %s" e);
       H.Conn.close conn)

(* Every 503 carries Retry-After.  One worker is pinned by a slow
   probe; with a zero-length accept queue the concurrent probe must be
   rejected -- and the rejection names the backoff. *)
let test_retry_after_on_503 () =
  let d =
    D.start
      { D.default_config with
        D.port = 0; domains = 2; accept_queue = 0; cache_mb = 8 }
  in
  Fun.protect
    ~finally:(fun () ->
      D.stop d;
      D.wait d)
    (fun () ->
       let u target = { H.host = "127.0.0.1"; port = D.port d; target } in
       (* Two sleepers: one occupies the single worker, the second sits
          in the pool's queue, so the probe below arrives with pending
          work beyond the zero-length accept queue.  Staggered, so the
          first is already executing (pending back to 0) when the
          second is accepted. *)
       let sleeper () =
         Domain.spawn (fun () ->
             let conn = H.Conn.create (u "/health?sleep_ms=600") in
             let r = H.Conn.request conn "/health?sleep_ms=600" in
             H.Conn.close conn;
             r)
       in
       let first = sleeper () in
       Unix.sleepf 0.15;
       let second = sleeper () in
       let pinned = [ first; second ] in
       Unix.sleepf 0.15;
       let rec probe tries =
         let conn = H.Conn.create (u "/health") in
         let r = H.Conn.request conn "/health" in
         H.Conn.close conn;
         match r with
         | Ok r when r.Server.Http.status = 503 -> r
         | Ok _ when tries > 0 ->
           Unix.sleepf 0.05;
           probe (tries - 1)
         | Ok r ->
           Alcotest.failf "never rejected (last status %d)"
             r.Server.Http.status
         | Error e -> Alcotest.failf "probe failed: %s" e
       in
       let rejected = probe 5 in
       Alcotest.(check (option string)) "Retry-After present" (Some "1")
         (Server.Http.resp_header rejected "retry-after");
       List.iter
         (fun p ->
            match Domain.join p with
            | Ok r ->
              Alcotest.(check int) "pinned request completed" 200
                r.Server.Http.status
            | Error e -> Alcotest.failf "pinned request failed: %s" e)
         pinned)

(* [clients] domains, each on one keep-alive [Http.Conn], share
   [requests] round trips to [u]; the statuses of every reply, and the
   protocol errors, come back. *)
let hammer u ~clients ~requests =
  let share i =
    (requests / clients) + if i < requests mod clients then 1 else 0
  in
  let client i () =
    let conn = H.Conn.create u in
    Fun.protect
      ~finally:(fun () -> H.Conn.close conn)
      (fun () ->
         List.init (share i) (fun _ -> H.Conn.request conn u.H.target))
  in
  let replies =
    List.concat_map Domain.join
      (List.init clients (fun i -> Domain.spawn (client i)))
  in
  ( List.filter_map (function Ok r -> Some r.H.status | Error _ -> None)
      replies,
    List.length (List.filter Result.is_error replies) )

(* Acceptance: >= 8 concurrent keep-alive clients, zero protocol
   errors. *)
let test_loadtest_smoke () =
  let statuses, protocol_errors =
    hammer (url "/health") ~clients:8 ~requests:96
  in
  Alcotest.(check int) "no protocol errors" 0 protocol_errors;
  Alcotest.(check int) "no rejections at this load" 0
    (List.length (List.filter (( = ) 503) statuses));
  Alcotest.(check int) "all ok" 96
    (List.length (List.filter (( = ) 200) statuses))

(* Acceptance: overload answers 503 instead of hanging.  A dedicated
   daemon with one worker and a zero-length accept queue, stalled by
   sleeping health probes, must reject the excess load and then
   recover. *)
let test_overload_returns_503 () =
  let d =
    D.start
      { D.default_config with
        D.port = 0; domains = 2; accept_queue = 0; cache_mb = 8 }
  in
  Fun.protect
    ~finally:(fun () ->
      D.stop d;
      D.wait d)
    (fun () ->
       let u = { H.host = "127.0.0.1"; port = D.port d;
                 target = "/health?sleep_ms=700" } in
       let statuses, protocol_errors = hammer u ~clients:6 ~requests:6 in
       Alcotest.(check int) "no protocol errors" 0 protocol_errors;
       Alcotest.(check bool) "some requests rejected" true
         (List.mem 503 statuses);
       Alcotest.(check bool) "some requests served" true
         (List.mem 200 statuses);
       (* and the daemon recovered *)
       let conn =
         H.Conn.create { H.host = "127.0.0.1"; port = D.port d;
                         target = "/health" }
       in
       (match H.Conn.request conn "/health" with
        | Ok resp ->
          Alcotest.(check int) "alive after overload" 200
            resp.Server.Http.status
        | Error e -> Alcotest.failf "daemon wedged after overload: %s" e);
       H.Conn.close conn)

(* stop + wait returns: accepted work drains and the domains join.
   (CI additionally asserts the process-level SIGTERM path exits 0.) *)
let test_graceful_stop () =
  let d =
    D.start { D.default_config with D.port = 0; domains = 2; cache_mb = 8 }
  in
  let conn =
    H.Conn.create { H.host = "127.0.0.1"; port = D.port d; target = "/" }
  in
  (match H.Conn.request conn "/health" with
   | Ok r -> Alcotest.(check int) "served" 200 r.Server.Http.status
   | Error e -> Alcotest.fail e);
  H.Conn.close conn;
  D.stop d;
  D.wait d;
  Alcotest.(check bool) "drained" true true

let test_parse_url () =
  (match H.parse_url "http://127.0.0.1:8080/check?model=lr" with
   | Ok u ->
     Alcotest.(check string) "host" "127.0.0.1" u.H.host;
     Alcotest.(check int) "port" 8080 u.H.port;
     Alcotest.(check string) "target" "/check?model=lr" u.H.target
   | Error e -> Alcotest.fail e);
  (match H.parse_url "localhost:99/x" with
   | Ok u ->
     Alcotest.(check string) "bare host" "localhost" u.H.host;
     Alcotest.(check int) "bare port" 99 u.H.port
   | Error e -> Alcotest.fail e);
  (match H.parse_url "https://x/" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "https should be rejected");
  match H.parse_url "http://:80/" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty host should be rejected"

(* ------------------------------------------------------------------ *)
(* /batch *)

(* Acceptance: element bodies inside the batch envelope are the
   single-query endpoints' bytes, spliced verbatim -- never reparsed
   or reserialized. *)
let test_batch_byte_identity () =
  let single = (get "/check?model=lr&n=3").Server.Http.resp_body in
  let cert = (get "/cert?model=lr&n=3").Server.Http.resp_body in
  let r =
    get ~meth:"POST"
      ~body:
        "{\"queries\":[{\"endpoint\":\"/check\",\"model\":\"lr\",\"n\":3},\
         {\"endpoint\":\"/cert\",\"model\":\"lr\",\"n\":3}]}"
      "/batch"
  in
  Alcotest.(check int) "200" 200 r.Server.Http.status;
  let body = r.Server.Http.resp_body in
  let env = parse_body r in
  Alcotest.(check string) "schema" "prtb-batch/1" (str_at [ "schema" ] env);
  Alcotest.(check int) "count" 2 (int_at [ "count" ] env);
  List.iter
    (fun sub ->
       Alcotest.(check bool) "single-query bytes spliced verbatim" true
         (Astring.String.is_infix ~affix:("\"body\":" ^ sub ^ "}") body))
    [ single; cert ]

(* Equal canonical keys inside one batch are computed once (the second
   element reuses the first's reply, cache flag included), the batch
   seeds the same result-cache entries the single endpoints use, and a
   repeated batch is answered entirely from cache with the registry
   counters exactly put. *)
let test_batch_dedup_and_cache () =
  let body =
    "{\"queries\":[{\"model\":\"coin\",\"n\":2,\"bound\":5},\
     {\"model\":\"coin\",\"n\":2,\"bound\":5}]}"
  in
  let results env =
    match member_exn [ "results" ] env with
    | J.Arr items -> items
    | other -> Alcotest.failf "results not an array: %s" (J.to_string other)
  in
  let first = results (parse_body (get ~meth:"POST" ~body "/batch")) in
  Alcotest.(check (list string))
    "one computation, reply reused for the duplicate key"
    [ "miss"; "miss" ]
    (List.map (str_at [ "cache" ]) first);
  let stats1 = parse_body (get "/stats") in
  let second = results (parse_body (get ~meth:"POST" ~body "/batch")) in
  Alcotest.(check (list string))
    "repeated batch is all cache hits" [ "hit"; "hit" ]
    (List.map (str_at [ "cache" ]) second);
  let stats2 = parse_body (get "/stats") in
  List.iter
    (fun counter ->
       Alcotest.(check int)
         (counter ^ " unchanged by the cached batch")
         (int_at [ "registry"; counter ] stats1)
         (int_at [ "registry"; counter ] stats2))
    [ "explorations"; "compiles"; "builds" ];
  (* The single-query endpoint now hits the batch-seeded entry, with
     the same bytes the envelope spliced. *)
  let single = get "/check?model=coin&n=2&bound=5" in
  Alcotest.(check (option string)) "single GET hits the batch's entry"
    (Some "hit")
    (Server.Http.resp_header single "x-prtb-cache");
  Alcotest.(check bool) "batch spliced the single GET's bytes" true
    (List.for_all
       (fun el ->
          J.to_string (member_exn [ "body" ] el)
          = J.to_string
              (parse_body single))
       second)

let test_batch_errors () =
  let code r = str_at [ "error"; "code" ] (parse_body r) in
  let message r = str_at [ "error"; "message" ] (parse_body r) in
  let posted body = get ~meth:"POST" ~body "/batch" in
  let r = get "/batch" in
  Alcotest.(check int) "GET /batch is 405" 405 r.Server.Http.status;
  Alcotest.(check string) "GET /batch is SRV101" "SRV101" (code r);
  let r = posted "{\"queries\":[]}" in
  Alcotest.(check int) "empty batch is 400" 400 r.Server.Http.status;
  Alcotest.(check string) "empty batch is SRV103" "SRV103" (code r);
  let r = posted "{\"queries\":[{\"endpoint\":\"/stats\"}]}" in
  Alcotest.(check int) "non-batchable endpoint is 400" 400
    r.Server.Http.status;
  Alcotest.(check bool) "element errors name their index" true
    (Astring.String.is_prefix ~affix:"query 0:" (message r));
  let r = posted "{\"queries\":[{\"model\":\"lr\",\"n\":1}]}" in
  Alcotest.(check string) "out-of-range element is SRV103" "SRV103" (code r);
  Alcotest.(check bool) "out-of-range element names its index" true
    (Astring.String.is_prefix ~affix:"query 0:" (message r));
  let r = posted "{\"queries\":[42]}" in
  Alcotest.(check bool) "non-object element names its index" true
    (Astring.String.is_prefix ~affix:"query 0:" (message r));
  let oversize =
    "{\"queries\":["
    ^ String.concat ","
        (List.init 65 (fun _ -> "{\"model\":\"lr\",\"n\":2}"))
    ^ "]}"
  in
  let r = posted oversize in
  Alcotest.(check int) "oversize batch is 400" 400 r.Server.Http.status;
  Alcotest.(check bool) "oversize batch names the cap" true
    (Astring.String.is_infix ~affix:"64" (message r))

let shutdown_shared_daemon () =
  if Lazy.is_val daemon then begin
    let d = Lazy.force daemon in
    D.stop d;
    D.wait d
  end;
  Alcotest.(check bool) "shared daemon drained" true true

let () =
  Alcotest.run "server"
    [ ( "end to end",
        [ Alcotest.test_case "health" `Quick test_health;
          Alcotest.test_case "served check == CLI json" `Quick
            test_check_matches_cli;
          Alcotest.test_case "pooled work vectors carry nothing over" `Quick
            test_pool_reuse;
          Alcotest.test_case "repeat hits cache, registry idle" `Quick
            test_repeat_hits_cache;
          Alcotest.test_case "POST shares GET's cache entry" `Quick
            test_post_and_get_share_cache;
          Alcotest.test_case "sym: distinct keys, identical bodies" `Quick
            test_sym_cache_dimension;
          Alcotest.test_case "plane: distinct keys, identical bodies" `Quick
            test_plane_cache_dimension;
          Alcotest.test_case "served cert == CLI --emit-cert" `Quick
            test_cert_matches_cli;
          Alcotest.test_case "g/k reach the registry" `Quick
            test_g_k_reach_registry;
          Alcotest.test_case "text consensus builds once" `Quick
            test_text_consensus_uses_registry;
          Alcotest.test_case "simulate deterministic + cached" `Quick
            test_simulate_deterministic;
          Alcotest.test_case "simulate: CLI reach == served" `Quick
            test_simulate_matches_cli;
          Alcotest.test_case "CLI refuses out-of-range parameters" `Quick
            test_cli_refuses_out_of_range;
          Alcotest.test_case "refuses n past the largest checkable" `Quick
            test_refuses_past_largest_n;
          Alcotest.test_case "CLI text and lint bytes pinned" `Quick
            test_cli_bytes_pinned;
          Alcotest.test_case "CLI snapshot and dot bytes pinned" `Quick
            test_cli_files_pinned;
          Alcotest.test_case "CLI I/O failures exit 1" `Quick
            test_cli_io_failures_exit_1;
          Alcotest.test_case "export-dot refuses past its limit" `Quick
            test_export_dot_limit_refused;
          Alcotest.test_case "fault flags need --faults" `Quick
            test_cli_fault_flags_need_faults;
          Alcotest.test_case "lint served" `Quick test_lint_served;
          Alcotest.test_case "budget exhaustion verdict" `Quick
            test_budget_exhausted_verdict;
          Alcotest.test_case "deadline: SRV122 deterministic" `Quick
            test_deadline_degraded_deterministic;
          Alcotest.test_case "deadline: cached body wins" `Quick
            test_deadline_cached_body_wins;
          Alcotest.test_case "batch: byte-identical to singles" `Quick
            test_batch_byte_identity;
          Alcotest.test_case "batch: dedup + cache interaction" `Quick
            test_batch_dedup_and_cache;
          Alcotest.test_case "batch: structured errors" `Quick
            test_batch_errors ] );
      ( "hostile input",
        [ Alcotest.test_case "structured errors" `Quick
            test_structured_errors;
          Alcotest.test_case "garbage request line" `Quick
            test_garbage_request_line;
          Alcotest.test_case "chaos: trickled request" `Quick
            test_chaos_trickle;
          Alcotest.test_case "chaos: close mid-body" `Quick
            test_chaos_midbody_close;
          Alcotest.test_case "chaos: mixed valid+garbage" `Quick
            test_chaos_mixed_valid_unharmed;
          Alcotest.test_case "chaos: refuses bad clients and idle-s" `Quick
            test_chaos_refuses_bad_settings;
          Alcotest.test_case "idle keep-alive past conn deadline" `Quick
            test_idle_keepalive_past_conn_deadline;
          Alcotest.test_case "Retry-After on 503" `Quick
            test_retry_after_on_503 ] );
      ( "load",
        [ Alcotest.test_case "loadtest smoke (8 clients)" `Quick
            test_loadtest_smoke;
          Alcotest.test_case "overload answers 503" `Quick
            test_overload_returns_503;
          Alcotest.test_case "graceful stop" `Quick test_graceful_stop;
          Alcotest.test_case "parse_url" `Quick test_parse_url;
          Alcotest.test_case "shared daemon drains" `Quick
            shutdown_shared_daemon ] ) ]
