(* The WaTZ command-line tool: a thin front-end over the library for
   poking at the simulated device from a shell.

   dune exec bin/watz_cli.exe -- <command>

   Commands:
     boot                      boot a device and print its trust anchors
     measure <file.wasm>       print the attestation claim of a binary
     run <file.wasm> [entry]   launch a Wasm binary inside WaTZ
     attest                    run a full remote attestation end to end
     attest-storm              many concurrent attestations over a faulty network
     verify-protocol           run the Dolev-Yao analysis of Table II
     sql <statement...>        execute SQL against an in-enclave MiniDB *)

open Cmdliner

let booted seed =
  let soc = Watz_tz.Soc.manufacture ~seed () in
  (match Watz_tz.Soc.boot soc with
  | Ok _ -> ()
  | Error e -> Format.kasprintf failwith "boot failed: %a" Watz_tz.Boot.pp_boot_error e);
  soc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let boot_cmd =
  let run () =
    let soc = booted "cli-device" in
    let os = Watz_tz.Soc.optee soc in
    let service = Watz_attest.Service.install os in
    Printf.printf "secure boot: OK (%s)\n" Watz_tz.Soc.watz_version;
    Printf.printf "boot measurement: %s\n"
      (Watz_util.Hex.encode (Watz_tz.Optee.Kernel.boot_measurement os));
    Printf.printf "attestation public key (endorsement): %s\n"
      (Watz_util.Hex.encode (Watz_crypto.P256.encode (Watz_attest.Service.public_key service)))
  in
  Cmd.v (Cmd.info "boot" ~doc:"Boot a simulated device and print its trust anchors")
    Term.(const run $ const ())

let measure_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.wasm") in
  let run file =
    Printf.printf "%s  %s\n" (Watz_util.Hex.encode (Watz.Runtime.measure (read_file file))) file
  in
  Cmd.v (Cmd.info "measure" ~doc:"Print the attestation claim (SHA-256) of a Wasm binary")
    Term.(const run $ file)

let tier_conv =
  let parse s =
    match Watz.Engine.tier_of_string s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown tier %S (expected interp or fast)" s))
  in
  Arg.conv (parse, fun fmt t -> Format.pp_print_string fmt (Watz.Engine.tier_name t))

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.wasm") in
  let entry = Arg.(value & pos 1 string "_start" & info [] ~docv:"ENTRY") in
  let tier =
    Arg.(
      value
      & opt tier_conv Watz.Runtime.default_config.Watz.Runtime.tier
      & info [ "tier" ] ~docv:"TIER"
          ~doc:"Execution tier: $(b,interp) (tree-walking) or $(b,fast) (pre-decoded linear \
                bytecode, the paper's AOT).")
  in
  let run file entry tier =
    let soc = booted "cli-device" in
    let config = { Watz.Runtime.default_config with Watz.Runtime.tier } in
    let app = Watz.Runtime.load ~config ~entry:(Some entry) soc (read_file file) in
    print_string (Watz.Runtime.output app);
    Printf.printf "[watz] tier: %s\n" (Watz.Engine.tier_name tier);
    Printf.printf "[watz] claim: %s\n" (Watz_util.Hex.encode (Watz.Runtime.claim app));
    Watz.Runtime.unload app
  in
  Cmd.v (Cmd.info "run" ~doc:"Launch a Wasm binary inside the WaTZ runtime")
    Term.(const run $ file $ entry $ tier)

let pp_sim_ns ns = Format.asprintf "%a" Watz_util.Stats.pp_ns (float_of_int ns)

let attest_cmd =
  let seed =
    Arg.(
      value & opt int64 0x5eedL
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Deterministic seed: crypto nonces, network schedule and the exported trace are \
                a pure function of it.")
  in
  let trace_file =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace_event JSON trace of the run (load it in about:tracing or \
                Perfetto, or summarize it with $(b,watz trace)).")
  in
  let run seed trace_file =
    (* A real networked session on the simulated board (not the pure
       in-memory protocol run): verifier listener in the normal world,
       attester crossing the SMC boundary, so the trace shows world
       switches, supplicant RPCs and both protocol endpoints. *)
    let tracer = Watz_obs.Trace.create () in
    let soc = Watz_tz.Soc.manufacture ~seed:"cli-device" () in
    Watz_tz.Soc.attach_tracer soc tracer;
    (match Watz_tz.Soc.boot soc with
    | Ok _ -> ()
    | Error e -> Format.kasprintf failwith "boot failed: %a" Watz_tz.Boot.pp_boot_error e);
    let os = Watz_tz.Soc.optee soc in
    let service = Watz_attest.Service.install os in
    let claim = Watz_crypto.Sha256.digest "cli-application" in
    let policy =
      Watz_attest.Protocol.Verifier.make_policy ~identity_seed:"cli-relying-party"
        ~endorsed_keys:[ Watz_attest.Service.public_key service ]
        ~reference_claims:[ claim ] ~secret_blob:"provisioned secret" ()
    in
    Watz_tz.Net.configure soc.Watz_tz.Soc.net ~seed ~profile:Watz_tz.Net.perfect;
    let port = 7007 in
    let server = Watz.Verifier_app.start soc ~port ~policy in
    let rng = Watz_util.Prng.create seed in
    let issue ~anchor =
      Watz_attest.Evidence.encode (Watz_attest.Service.request_issue os ~anchor ~claim)
    in
    let a =
      Watz.Attester_app.start ~sid:1 soc ~port
        ~random:(Watz_util.Prng.bytes rng)
        ~expected_verifier:policy.Watz_attest.Protocol.Verifier.identity_pub ~issue
    in
    let ticks = ref 0 in
    while Watz.Attester_app.outcome a = Watz.Attester_app.Pending && !ticks < 20_000 do
      incr ticks;
      Watz_tz.Net.tick soc.Watz_tz.Soc.net;
      Watz.Verifier_app.step server;
      Watz.Attester_app.step a;
      Watz_tz.Simclock.advance soc.Watz_tz.Soc.clock 1_000_000
    done;
    (match Watz.Attester_app.outcome a with
    | Watz.Attester_app.Done blob -> Printf.printf "attestation succeeded; blob = %S\n" blob
    | Watz.Attester_app.Aborted e ->
      Format.printf "attestation failed: %a@." Watz_attest.Protocol.pp_error e
    | Watz.Attester_app.Pending -> print_endline "attestation still pending at max ticks");
    let events = Watz_obs.Trace.events tracer in
    let totals = Watz_obs.Export.phase_totals events in
    let total_of name =
      match List.find_opt (fun p -> p.Watz_obs.Export.phase_name = name) totals with
      | Some p -> p.Watz_obs.Export.total_ns
      | None -> 0
    in
    let session = total_of "attest.session" in
    if session > 0 then begin
      Printf.printf "phase breakdown (simulated time):\n";
      List.iter
        (fun name ->
          let ns = total_of name in
          Printf.printf "  %-24s %10s  (%.1f%%)\n" name (pp_sim_ns ns)
            (100.0 *. float_of_int ns /. float_of_int session))
        [ "attest.phase.handshake"; "attest.phase.appraisal" ];
      let sum = total_of "attest.phase.handshake" + total_of "attest.phase.appraisal" in
      Printf.printf "  %-24s %10s  (phases sum to %s)\n" "attest.session" (pp_sim_ns session)
        (pp_sim_ns sum)
    end;
    match trace_file with
    | None -> ()
    | Some path ->
      Watz_obs.Export.write_file path (Watz_obs.Export.trace_to_chrome tracer);
      Printf.printf "trace: %d events -> %s\n" (List.length events) path
  in
  Cmd.v
    (Cmd.info "attest"
       ~doc:"Run the remote attestation protocol end to end on the simulated board")
    Term.(const run $ seed $ trace_file)

let trace_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.json") in
  let run file =
    let events = Watz_obs.Export.parse_chrome (read_file file) in
    let lo, hi = Watz_obs.Export.extent events in
    Printf.printf "%d events spanning %s of simulated time\n" (List.length events)
      (pp_sim_ns (hi - lo));
    Printf.printf "%-28s %6s %12s\n" "span" "count" "total";
    List.iter
      (fun p ->
        Printf.printf "%-28s %6d %12s\n" p.Watz_obs.Export.phase_name p.Watz_obs.Export.spans
          (pp_sim_ns p.Watz_obs.Export.total_ns))
      (Watz_obs.Export.phase_totals events);
    match Watz_obs.Export.instant_counts events with
    | [] -> ()
    | instants ->
      print_string "instants:\n";
      List.iter (fun (name, n) -> Printf.printf "  %-26s %6d\n" name n) instants
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Summarize a Chrome trace_event JSON file written by $(b,--trace): per-span \
             inclusive totals and instant-event counts")
    Term.(const run $ file)

let attest_storm_cmd =
  let sessions =
    Arg.(
      value & opt int 32
      & info [ "sessions" ] ~docv:"N" ~doc:"Concurrent attestation sessions.")
  in
  let seed =
    Arg.(
      value & opt int64 0xa77e57L
      & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-schedule PRNG seed (replays exactly).")
  in
  let profile =
    let names = String.concat ", " (List.map fst Watz.Storm.profiles) in
    Arg.(
      value & opt string "lossy"
      & info [ "profile" ] ~docv:"NAME" ~doc:(Printf.sprintf "Fault profile: %s." names))
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"Small, fast run (8 sessions) for CI; still asserts completion.")
  in
  let trace_file =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace_event JSON trace of the whole storm (shard-tagged \
                process tracks when $(b,--shards) > 1).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"Run the storm as a domain-sharded verifier fleet of $(docv) parallel \
                boards; sessions are sharded by attester id and metrics/traces merged \
                at join.")
  in
  let metrics_file =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write the merged fleet metrics registry as flat JSON (byte-identical \
                across fixed-seed runs). Requires $(b,--shards).")
  in
  let sched =
    let names = String.concat ", " (List.map fst Watz.Storm.sched_modes) in
    Arg.(
      value & opt string "lockstep"
      & info [ "sched" ] ~docv:"MODE"
          ~doc:
            (Printf.sprintf
               "Session scheduler: %s. Both produce byte-identical metrics and traces at a \
                fixed seed; $(b,fibers) parks idle sessions on an effects-based run queue \
                instead of stepping every session every tick."
               names))
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Run the attested service mesh instead of the classic storm: an open-loop \
                arrival process where attesters holding a session ticket resume in one \
                round trip and fall back to the full handshake on any reject. With \
                $(b,--shards), runs the federated mesh fleet (shared ticket key, merged \
                evidence cache, cross-shard resumption).")
  in
  let churn =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:"With $(b,--resume): inject churn — attester reboots, attestation-key \
                rotation, ticket-key rotation and module updates on interleaved periods.")
  in
  let population =
    Arg.(
      value & opt int 16
      & info [ "population" ] ~docv:"N"
          ~doc:"With $(b,--resume): distinct attester identities behind the arrivals.")
  in
  let run_mesh ~sessions ~seed ~profile ~profile_name ~smoke ~shards ~metrics_file ~churn
      ~population =
    let tampering = List.mem profile_name [ "corrupt"; "truncate"; "mitm-flip" ] in
    if shards > 1 then begin
      let config =
        {
          Watz_mesh.Mesh_fleet.default_config with
          Watz_mesh.Mesh_fleet.shards;
          sessions_per_shard = max 1 (sessions / shards);
          population_per_shard = max 1 (population / shards);
          seed;
          profile;
        }
      in
      let r = Watz_mesh.Mesh_fleet.run ~config () in
      (match metrics_file with
      | Some path ->
        Watz_obs.Export.write_file path
          (Watz_obs.Export.metrics_to_json r.Watz_mesh.Mesh_fleet.metrics);
        Printf.printf "metrics: %s\n" path
      | None -> ());
      Format.printf "profile %s (seed %Ld)@\n%a@." profile_name seed
        Watz_mesh.Mesh_fleet.pp_report r;
      if not (String.equal r.Watz_mesh.Mesh_fleet.merge_digest
                r.Watz_mesh.Mesh_fleet.merge_digest_reversed)
      then begin
        Printf.eprintf "FAIL: federated cache merge depends on chunk arrival order\n";
        exit 1
      end;
      if (not tampering) && r.Watz_mesh.Mesh_fleet.cross_resumes = 0 then begin
        Printf.eprintf "FAIL: no cross-shard resumption succeeded\n";
        exit 1
      end
    end
    else begin
      let module MS = Watz_mesh.Mesh_storm in
      let config =
        {
          MS.default_config with
          MS.sessions = (if smoke then min sessions 16 else sessions);
          population;
          seed;
          profile;
          churn = (if churn then MS.default_churn else MS.no_churn);
        }
      in
      let r = MS.run ~config () in
      (match metrics_file with
      | Some path ->
        Watz_obs.Export.write_file path (Watz_obs.Export.metrics_to_json r.MS.metrics);
        Printf.printf "metrics: %s\n" path
      | None -> ());
      Format.printf "profile %s (seed %Ld)@\n%a@." profile_name seed MS.pp_report r;
      (* An attester only counts itself resumed after authenticating the
         accept under the resumption secret, so more attester-side
         resumes than server-side acceptances means a forged acceptance
         got through. *)
      let counter name = Option.value ~default:0 (List.assoc_opt name r.MS.server) in
      let server_accepts = counter "resumes_accepted" + counter "retransmits_answered" in
      if r.MS.completed_resumed > server_accepts then begin
        Printf.eprintf "FAIL: %d resumed sessions but only %d server-side acceptances — \
                        a forged resume acceptance was accepted\n"
          r.MS.completed_resumed server_accepts;
        exit 1
      end;
      if (not tampering) && MS.completion_rate r < 0.99 then begin
        Printf.eprintf "FAIL: completion rate %.1f%% below 99%%\n"
          (100.0 *. MS.completion_rate r);
        exit 1
      end;
      if (not tampering) && r.MS.stray_frames > 0 then begin
        Printf.eprintf "FAIL: %d stray frames after session completion\n" r.MS.stray_frames;
        exit 1
      end
    end
  in
  let run sessions seed profile_name smoke trace_file shards metrics_file sched_name resume
      churn population =
    match (Watz.Storm.profile_named profile_name, Watz.Storm.sched_mode_named sched_name) with
    | None, _ ->
      Printf.eprintf "unknown profile %S; known: %s\n" profile_name
        (String.concat ", " (List.map fst Watz.Storm.profiles));
      exit 2
    | _, None ->
      Printf.eprintf "unknown sched mode %S; known: %s\n" sched_name
        (String.concat ", " (List.map fst Watz.Storm.sched_modes));
      exit 2
    | Some profile, Some _ when resume ->
      if Option.is_some trace_file then
        Printf.eprintf "note: --trace applies to the classic storm; ignored with --resume\n";
      run_mesh ~sessions ~seed ~profile ~profile_name ~smoke ~shards ~metrics_file ~churn
        ~population
    | Some profile, Some sched ->
      let sessions = if smoke then min sessions 8 else sessions in
      (* Under non-tampering profiles, not completing is a failure. *)
      let tampering = List.mem profile_name [ "corrupt"; "truncate"; "mitm-flip" ] in
      let check_rate rate =
        if (not tampering) && rate < 0.99 then begin
          Printf.eprintf "FAIL: completion rate %.1f%% below 99%%\n" (100.0 *. rate);
          exit 1
        end
      in
      if shards > 1 then begin
        let config =
          {
            Watz.Fleet.shards;
            storm = { Watz.Storm.default_config with Watz.Storm.sessions; seed; profile; sched };
            trace_capacity = (match trace_file with None -> 0 | Some _ -> 65536);
            minor_heap_words = 0;
          }
        in
        let r = Watz.Fleet.run ~config () in
        (match trace_file with
        | Some path ->
          Watz_obs.Export.write_file path (Watz.Fleet.trace_json r);
          Printf.printf "trace: %d shards merged (%d events dropped) -> %s\n"
            (List.length r.Watz.Fleet.trace)
            (Watz_obs.Merge.total_dropped r.Watz.Fleet.trace)
            path
        | None -> ());
        (match metrics_file with
        | Some path ->
          Watz_obs.Export.write_file path (Watz.Fleet.metrics_json r);
          Printf.printf "metrics: %s\n" path
        | None -> ());
        Format.printf "profile %s (seed %Ld)@\n%a@." profile_name seed Watz.Fleet.pp_report r;
        check_rate (Watz.Fleet.completion_rate r)
      end
      else begin
        let config = { Watz.Storm.default_config with Watz.Storm.sessions; seed; profile; sched } in
        let tracer =
          match trace_file with None -> None | Some _ -> Some (Watz_obs.Trace.create ())
        in
        let r = Watz.Storm.run ~config ?tracer () in
        (match (trace_file, tracer) with
        | Some path, Some t ->
          Watz_obs.Export.write_file path (Watz_obs.Export.trace_to_chrome t);
          Printf.printf "trace: %d events (%d dropped) -> %s\n"
            (List.length (Watz_obs.Trace.events t))
            (Watz_obs.Trace.dropped t) path
        | _ -> ());
        (match metrics_file with
        | Some path ->
          (* Single-shard fleet of one: same merged-registry format. *)
          let reg = Watz.Fleet.merged_metrics ~shards:1 [ r ] in
          Watz_obs.Export.write_file path (Watz_obs.Export.metrics_to_json reg);
          Printf.printf "metrics: %s\n" path
        | None -> ());
        Format.printf "profile %s (seed %Ld)@\n%a@." profile_name seed Watz.Storm.pp_report r;
        check_rate (Watz.Storm.completion_rate r)
      end
  in
  Cmd.v
    (Cmd.info "attest-storm"
       ~doc:"Run many concurrent attestation sessions over a fault-injected network, \
             optionally as a domain-sharded verifier fleet ($(b,--shards))")
    Term.(
      const run $ sessions $ seed $ profile $ smoke $ trace_file $ shards $ metrics_file $ sched
      $ resume $ churn $ population)

let verify_protocol_cmd =
  let run () =
    List.iter
      (fun v ->
        Printf.printf "%-66s %s\n" v.Watz_attest.Symbolic.claim
          (if v.Watz_attest.Symbolic.holds then "holds" else "VIOLATED"))
      (Watz_attest.Symbolic.verify_protocol ());
    List.iter
      (fun (name, found) ->
        Printf.printf "sanity attack [%s]: %s\n" name (if found then "found" else "NOT FOUND"))
      (Watz_attest.Symbolic.attack_findings ())
  in
  Cmd.v (Cmd.info "verify-protocol" ~doc:"Dolev-Yao analysis of the Table II protocol")
    Term.(const run $ const ())

let sql_cmd =
  let stmts = Arg.(non_empty & pos_all string [] & info [] ~docv:"SQL") in
  let run stmts =
    let db = Watz_workloads.Minidb.create () in
    List.iter
      (fun s ->
        match Watz_workloads.Minidb.exec db s with
        | result -> print_string (Watz_workloads.Minidb.render result)
        | exception Watz_workloads.Minidb.Sql_error m -> Printf.printf "error: %s\n" m)
      stmts
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Execute SQL statements against an in-enclave MiniDB (one per argument)")
    Term.(const run $ stmts)

let fuzz_cmd =
  let budget =
    Arg.(
      value & opt int 2000
      & info [ "budget" ] ~docv:"N" ~doc:"Total number of fuzz cases, split across targets.")
  in
  let seed =
    Arg.(
      value & opt int64 0xfa175eedL
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Campaign seed. Every case derives its own seed from (campaign seed, target, \
                index), so findings replay independently of the budget split.")
  in
  let corpus =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Corpus directory: shrunk findings are written here, and existing entries are \
                replayed as regression checks before the campaign starts.")
  in
  let targets =
    Arg.(
      value & opt_all string []
      & info [ "target" ] ~docv:"TARGET"
          ~doc:"Restrict to a target: modgen, decode, crypto, proto or pipeline. Repeatable; \
                default is all of them.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the campaign report as JSON.")
  in
  let run budget seed corpus target_names json =
    let targets =
      match target_names with
      | [] -> Watz_fuzz.Fuzz.all_targets
      | names ->
        List.map
          (fun n ->
            match Watz_fuzz.Fuzz.target_of_string n with
            | Some t -> t
            | None -> Format.kasprintf failwith "unknown fuzz target %S" n)
          names
    in
    (* Replay the existing corpus first: checked-in reproducers are
       regression tests and must stay green. *)
    let replay_failures =
      match corpus with
      | None -> 0
      | Some dir ->
        List.fold_left
          (fun acc (name, result) ->
            match result with
            | Ok () ->
              Printf.printf "replay %-40s ok\n" name;
              acc
            | Error desc ->
              Printf.printf "replay %-40s REPRODUCES: %s\n" name desc;
              acc + 1)
          0
          (Watz_fuzz.Fuzz.replay_dir dir)
    in
    let report =
      Watz_fuzz.Fuzz.run ~targets
        ~on_finding:(fun f ->
          Printf.printf "FINDING [%s] seed=%Ld: %s\n%!"
            (Watz_fuzz.Fuzz.target_name f.Watz_fuzz.Fuzz.f_target)
            f.Watz_fuzz.Fuzz.f_case_seed f.Watz_fuzz.Fuzz.f_desc)
        ~seed ~budget ()
    in
    List.iter
      (fun (s : Watz_fuzz.Fuzz.target_stats) ->
        Printf.printf "%-9s %6d execs  %8.2fs  %7.0f execs/s  %d findings\n"
          (Watz_fuzz.Fuzz.target_name s.Watz_fuzz.Fuzz.t_target)
          s.Watz_fuzz.Fuzz.t_execs s.Watz_fuzz.Fuzz.t_elapsed_s
          (float_of_int s.Watz_fuzz.Fuzz.t_execs /. Float.max 1e-9 s.Watz_fuzz.Fuzz.t_elapsed_s)
          s.Watz_fuzz.Fuzz.t_findings)
      report.Watz_fuzz.Fuzz.r_stats;
    (match corpus with
    | Some dir when report.Watz_fuzz.Fuzz.r_findings <> [] ->
      List.iter (Printf.printf "wrote %s\n") (Watz_fuzz.Fuzz.write_findings ~dir report)
    | _ -> ());
    (match json with
    | None -> ()
    | Some file ->
      let stats_json =
        String.concat ","
          (List.map
             (fun (s : Watz_fuzz.Fuzz.target_stats) ->
               Printf.sprintf
                 {|{"target":"%s","execs":%d,"elapsed_s":%.6f,"findings":%d}|}
                 (Watz_fuzz.Fuzz.target_name s.Watz_fuzz.Fuzz.t_target)
                 s.Watz_fuzz.Fuzz.t_execs s.Watz_fuzz.Fuzz.t_elapsed_s
                 s.Watz_fuzz.Fuzz.t_findings)
             report.Watz_fuzz.Fuzz.r_stats)
      in
      let oc = open_out file in
      Printf.fprintf oc {|{"seed":%Ld,"budget":%d,"targets":[%s],"findings":%d}|}
        seed budget stats_json
        (List.length report.Watz_fuzz.Fuzz.r_findings);
      output_char oc '\n';
      close_out oc);
    let n_findings = List.length report.Watz_fuzz.Fuzz.r_findings in
    if n_findings > 0 then Printf.printf "%d finding(s)\n" n_findings
    else print_endline "no findings";
    if n_findings > 0 || replay_failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Seeded fuzzing and differential verification: structured Wasm modules across the \
          two execution tiers, byte mutations against the decoder, crypto vs the frozen \
          reference stack, the attestation protocol under tampering, and MiniC programs \
          through the full compile/measure/attest/execute pipeline. Exit status 1 when \
          anything is found.")
    Term.(const run $ budget $ seed $ corpus $ targets $ json)

let () =
  let info = Cmd.info "watz" ~version:"1.0" ~doc:"WaTZ trusted Wasm runtime simulator" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            boot_cmd; measure_cmd; run_cmd; attest_cmd; attest_storm_cmd; trace_cmd;
            verify_protocol_cmd; sql_cmd; fuzz_cmd;
          ]))
