(* The domain-sharded verifier fleet: sharding arithmetic, the bounded
   supervisor queue under real domains, the determinism contract
   (fixed seed => byte-identical merged metrics and trace), lossy
   completion with exact queue accounting, and the network layer's
   single-domain ownership rule. *)

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

(* --- the bounded queue under real domains --------------------------- *)

let test_bqueue_backpressure_and_drain () =
  (* Capacity 4 with 2 x 50 pushes forces producers to block on the
     consumer; per-producer FIFO must survive, and pop must turn into
     [None] exactly once both producers retired and the queue drained. *)
  let q = Fleet.Bqueue.create ~capacity:4 ~producers:2 in
  let producer k () =
    Fun.protect
      ~finally:(fun () -> Fleet.Bqueue.producer_done q)
      (fun () ->
        for i = 0 to 49 do
          Fleet.Bqueue.push q (k, i)
        done)
  in
  let d0 = Domain.spawn (producer 0) and d1 = Domain.spawn (producer 1) in
  let seen = ref 0 in
  let next = [| 0; 0 |] in
  let rec drain () =
    match Fleet.Bqueue.pop q with
    | Some (k, i) ->
      incr seen;
      Alcotest.(check int) (Printf.sprintf "producer %d FIFO" k) next.(k) i;
      next.(k) <- i + 1;
      drain ()
    | None -> ()
  in
  drain ();
  Domain.join d0;
  Domain.join d1;
  Alcotest.(check int) "every item delivered" 100 !seen;
  Alcotest.(check bool) "drained queue stays terminal" true (Fleet.Bqueue.pop q = None)

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

(* --- lossy completion + queue accounting ----------------------------- *)

let test_lossy_completion_and_accounting () =
  let cfg = config ~shards:4 ~sessions:16 () in
  let r = Fleet.run ~config:cfg () in
  Alcotest.(check int) "shards" 4 r.Fleet.shards;
  Alcotest.(check int) "session split conserved" 16 r.Fleet.sessions;
  Alcotest.(check bool)
    (Format.asprintf "completion %.1f%% >= 99%%" (100.0 *. Fleet.completion_rate r))
    true
    (Fleet.completion_rate r >= 0.99);
  (* Every session terminates exactly once over the supervisor queue. *)
  Alcotest.(check int) "one termination event per session" r.Fleet.sessions
    (r.Fleet.queue_done + r.Fleet.queue_aborted);
  Alcotest.(check int) "queue completions match the reports" r.Fleet.completed
    r.Fleet.queue_done;
  Alcotest.(check int) "queue aborts match the reports" r.Fleet.aborted r.Fleet.queue_aborted;
  (* The merged registry agrees with the summed per-shard reports. *)
  let c name = M.Counter.get (M.counter r.Fleet.metrics name) in
  Alcotest.(check int) "fleet.completed merged" r.Fleet.completed (c "fleet.completed");
  Alcotest.(check int) "verifier agrees across shards" r.Fleet.completed
    (c "server.sessions_completed");
  Alcotest.(check int) "per-shard reports present" 4 (List.length r.Fleet.per_shard);
  Alcotest.(check bool) "faults were injected" true (c "net.drop" + c "net.delay" > 0)

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
  (* The owning domain is unaffected... *)
  Net.tick net;
  (* ...and adoption transfers ownership wholesale (the escape hatch
     for handing a quiescent board to a worker domain). *)
  let net2 = Net.create () in
  let adopted =
    Domain.join
      (Domain.spawn (fun () ->
           Net.adopt net2;
           match Net.tick net2 with () -> true | exception Net.Wrong_domain _ -> false))
  in
  Alcotest.(check bool) "adopted domain owns the net" true adopted;
  match Net.tick net2 with
  | () -> Alcotest.fail "original domain must lose ownership after adopt"
  | exception Net.Wrong_domain _ -> ()

let suite =
  [
    ( "fleet",
      [
        case "shard split, seeds, sid disjointness" test_shard_split;
        case "bounded queue: backpressure, FIFO, termination" test_bqueue_backpressure_and_drain;
        case "fixed seed: merged artifacts byte-identical" test_fixed_seed_byte_identity;
        case "GC knob never perturbs simulated artifacts" test_gc_knob_byte_identity;
        case "lossy 4x4: completion + queue accounting" test_lossy_completion_and_accounting;
        case "net enforces single-domain ownership" test_net_domain_ownership;
      ] );
  ]
