(* The domain-sharded verifier fleet: sharding arithmetic, the
   determinism contract (fixed seed => byte-identical merged metrics and
   trace), a fleet of one against a plain storm, lossy completion with
   merged accounting, and the network layer's single-domain ownership
   rule. *)

module Fleet = Watz.Fleet
module Storm = Watz.Storm
module Net = Watz_tz.Net
module M = Watz_obs.Metrics

let case name f = Alcotest.test_case name `Quick f

let config ?(shards = 2) ?(sessions = 8) ?(trace_capacity = 0) ?(profile = Net.lossy)
    ?(seed = 0xf1ee7L) ?(minor_heap_words = 0) () =
  {
    Fleet.shards;
    storm = { Storm.default_config with Storm.sessions; seed; profile };
    trace_capacity;
    minor_heap_words;
  }

(* --- sharding arithmetic -------------------------------------------- *)

let test_shard_split () =
  Alcotest.(check (list int)) "balanced split, remainder first" [ 3; 3; 2 ]
    (List.init 3 (Fleet.shard_sessions ~total:8 ~shards:3));
  Alcotest.(check int) "split conserves sessions" 64
    (List.fold_left (fun acc k -> acc + Fleet.shard_sessions ~total:64 ~shards:7 k) 0
       (List.init 7 Fun.id));
  let seeds = List.init 8 (Fleet.shard_seed 0xa77e57L) in
  Alcotest.(check int) "derived seeds distinct" 8
    (List.length (List.sort_uniq compare seeds));
  (* sid sharding: ids globally unique and disjoint across shards. *)
  let cfg = config ~shards:3 ~sessions:8 () in
  let sids k =
    let sc = Fleet.shard_config cfg k in
    List.init sc.Storm.sessions (fun i -> sc.Storm.first_sid + (i * sc.Storm.sid_stride))
  in
  let all = List.concat_map sids [ 0; 1; 2 ] in
  Alcotest.(check int) "8 globally unique sids" 8 (List.length (List.sort_uniq compare all))

(* --- determinism: fixed seed => byte-identical merged artifacts ------ *)

let test_fixed_seed_byte_identity () =
  let cfg = config ~shards:2 ~sessions:8 ~trace_capacity:8192 () in
  let r1 = Fleet.run ~config:cfg () in
  let r2 = Fleet.run ~config:cfg () in
  let m1 = Fleet.metrics_json r1 and m2 = Fleet.metrics_json r2 in
  Alcotest.(check bool) "metrics non-trivial" true (String.length m1 > 200);
  Alcotest.(check string) "merged metrics byte-identical" m1 m2;
  let t1 = Fleet.trace_json r1 and t2 = Fleet.trace_json r2 in
  Alcotest.(check bool) "trace non-trivial" true (String.length t1 > 2000);
  Alcotest.(check string) "merged trace byte-identical" t1 t2

(* The per-domain minor-heap knob is wall-clock only: it must not
   perturb the simulated artifacts. *)
let test_gc_knob_byte_identity () =
  let run minor_heap_words =
    let cfg = config ~shards:2 ~sessions:48 ~trace_capacity:65536 ~minor_heap_words () in
    let r = Fleet.run ~config:cfg () in
    (Fleet.metrics_json r, Fleet.trace_json r)
  in
  let m_default, t_default = run 0 in
  let m_gc, t_gc = run 1_048_576 in
  Alcotest.(check string) "metrics identical under GC tuning" m_default m_gc;
  Alcotest.(check string) "trace identical under GC tuning" t_default t_gc

(* A fleet of one is a plain storm: the CLI's single-board [--metrics]
   dump ([merged_metrics] over one [Storm.run]) must equal the
   one-shard fleet's merged registry byte for byte. *)
let test_fleet_of_one () =
  List.iter
    (fun (profile_name, sessions) ->
      let profile = Option.get (Storm.profile_named profile_name) in
      let cfg = config ~shards:1 ~sessions ~profile () in
      let fleet = Fleet.metrics_json (Fleet.run ~config:cfg ()) in
      let storm =
        Watz_obs.Export.metrics_to_json
          (Fleet.merged_metrics ~shards:1 [ Storm.run ~config:cfg.Fleet.storm () ])
      in
      Alcotest.(check string)
        (Printf.sprintf "%s x%d: fleet of one = storm" profile_name sessions)
        storm fleet)
    [ ("lossy", 8); ("lossy", 48); ("truncate", 8); ("truncate", 48) ]

(* --- lossy completion + merged accounting ---------------------------- *)

let test_lossy_completion_and_accounting () =
  let cfg = config ~shards:4 ~sessions:16 () in
  let r = Fleet.run ~config:cfg () in
  Alcotest.(check int) "shards" 4 r.Fleet.shards;
  Alcotest.(check int) "session split conserved" 16 r.Fleet.sessions;
  Alcotest.(check bool)
    (Format.asprintf "completion %.1f%% >= 99%%" (100.0 *. Fleet.completion_rate r))
    true
    (Fleet.completion_rate r >= 0.99);
  (* The merged registry agrees with the summed per-shard reports. *)
  let c name = M.Counter.get (M.counter r.Fleet.metrics name) in
  Alcotest.(check int) "fleet.completed merged" r.Fleet.completed (c "fleet.completed");
  Alcotest.(check int) "verifier agrees across shards" r.Fleet.completed
    (c "server.sessions_completed");
  Alcotest.(check int) "per-shard reports present" 4 (List.length r.Fleet.per_shard);
  Alcotest.(check bool) "faults were injected" true (c "net.drop" + c "net.delay" > 0)

(* --- allocation accounting ------------------------------------------- *)

(* Each shard reports its own domain's minor words, so a shard of a
   4-shard fleet allocates exactly what a fleet of one allocates on that
   shard's seed and sessions: the same work, word for word. A shard that
   read [Gc.quick_stat] also counted its neighbours' allocation, and the
   sum grew with the shard count (57k, 90k, 129k and 351k words per
   session at 1, 2, 4 and 8 shards). *)
let test_minor_words_per_session_shard_independent () =
  let seed = 0xa77e57L and sessions = 32 in
  let four = Fleet.run ~config:(config ~shards:4 ~sessions ~seed ()) () in
  List.iter
    (fun (k, words) ->
      let alone =
        config ~shards:1
          ~sessions:(Fleet.shard_sessions ~total:sessions ~shards:4 k)
          ~seed:(Fleet.shard_seed seed k) ()
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "shard %d of 4: minor words = its seed and sessions alone" k)
        (List.assoc 0 (Fleet.run ~config:alone ()).Fleet.minor_words_per_shard)
        words)
    four.Fleet.minor_words_per_shard

(* --- Net single-domain ownership ------------------------------------- *)

let test_net_domain_ownership () =
  let net = Net.create () in
  ignore (Net.listen net ~port:9200);
  let foreign =
    Domain.join
      (Domain.spawn (fun () ->
           match Net.tick net with
           | () -> false
           | exception Net.Wrong_domain _ -> true))
  in
  Alcotest.(check bool) "foreign domain rejected" true foreign;
  (* The owning domain is unaffected. *)
  Net.tick net

let suite =
  [
    ( "fleet",
      [
        case "shard split, seeds, sid disjointness" test_shard_split;
        case "fixed seed: merged artifacts byte-identical" test_fixed_seed_byte_identity;
        case "GC knob never perturbs simulated artifacts" test_gc_knob_byte_identity;
        case "a fleet of one is a plain storm" test_fleet_of_one;
        case "lossy 4x4: completion + merged accounting" test_lossy_completion_and_accounting;
        case "minor words per session: 1 shard = 4 shards" test_minor_words_per_session_shard_independent;
        case "net enforces single-domain ownership" test_net_domain_ownership;
      ] );
  ]
