(** Domain-sharded verifier fleet: N independent simulated boards, one
    per OCaml 5 domain, appraising disjoint slices of one attestation
    storm in parallel.

    WaTZ's evaluation runs attestation end-to-end on a single board;
    the fleet is the step toward the roadmap's verifier-side scale:
    throughput that grows with cores instead of single-thread crypto
    speed. Each shard owns a complete board — its own {!Watz_tz.Simclock},
    {!Watz_tz.Net} endpoint (single-domain ownership, enforced by the
    network layer), {!Verifier_app} instance, and per-domain
    metrics/trace sinks — so the shards share no mutable state and never
    synchronise on the hot path. The fleet is three parts: the shards,
    a start barrier, and a merge of the shard reports at join; the only
    cross-domain synchronisation is the barrier and [Domain.join].

    Determinism contract (see DESIGN.md):

    - shard [k] of [N] runs with seed [storm.seed lxor k], sessions
      [first_sid = k + 1, sid_stride = N] (sessions sharded by attester
      id, ids globally unique), so every shard is byte-deterministic in
      isolation — domain scheduling cannot perturb a shard's simulated
      board;
    - merge-at-join: per-shard metrics registries and phase histograms
      combine through commutative merges ({!Watz_obs.Metrics.merge_into},
      [Histogram.merge_into]) and traces through the shard-tagged
      {!Watz_obs.Merge}, so the merged artifacts are independent of
      join order and wall-clock interleaving — two fixed-seed runs
      produce byte-identical merged metrics and traces. *)

module Histogram = Watz_obs.Metrics.Histogram
module Metrics = Watz_obs.Metrics
module Merge = Watz_obs.Merge
module Trace = Watz_obs.Trace

(* ------------------------------------------------------------------ *)
(* Configuration *)

type config = {
  shards : int;
  storm : Storm.config; (* [storm.sessions] is the fleet-wide total *)
  trace_capacity : int; (* per-shard tracer ring; 0 leaves tracing off *)
  minor_heap_words : int;
      (* per-domain minor heap size ([Gc.set], in words) applied inside
         each shard domain before its storm runs; 0 leaves the runtime
         default untouched. The storm allocates mostly short-lived
         frames and field elements, so a larger minor heap trades
         promotion (shared major-heap work that serialises domains) for
         per-domain minor collections. Wall-clock only — simulated
         results are unaffected. *)
}

let default_config =
  { shards = 2; storm = Storm.default_config; trace_capacity = 0; minor_heap_words = 0 }

(* Per-shard seed: the issue's [seed xor shard_id]. Shards with equal
   derived seeds would replay each other's fault schedule; xor with the
   small shard id keeps the streams distinct while staying trivially
   reproducible by hand. *)
let shard_seed base k = Int64.logxor base (Int64.of_int k)

(* Balanced split: the first [total mod shards] shards take one extra
   session. *)
let shard_sessions ~total ~shards k = (total / shards) + (if k < total mod shards then 1 else 0)

let shard_config config k =
  {
    config.storm with
    Storm.sessions = shard_sessions ~total:config.storm.Storm.sessions ~shards:config.shards k;
    seed = shard_seed config.storm.Storm.seed k;
    first_sid = k + 1;
    sid_stride = config.shards;
  }

(* ------------------------------------------------------------------ *)
(* Reports *)

type report = {
  shards : int;
  sessions : int;
  completed : int;
  aborted : int;
  retries : int;
  ticks : int; (* slowest shard, in that shard's simulated ticks *)
  per_shard : (int * Storm.report) list; (* ordered by shard id *)
  metrics : Metrics.t; (* merged registry: fleet.* / server.* / net.* / phase.* / sched.* *)
  phases : (string * Histogram.summary) list; (* merged across shards *)
  trace : Merge.shard list; (* per-shard traces; [] when tracing is off *)
  setup_wall_s : float;
      (* wall-clock from fleet start until every shard finished
         [Storm.prepare] (board manufacture, service install, policy /
         key generation) and reached the start barrier *)
  run_wall_s : float;
      (* wall-clock from the barrier release until the last shard
         finished its tick loop — the number scaling studies should
         use; setup is reported, not mixed in *)
  minor_words_per_shard : (int * float) list;
      (* ordered by shard id; run phase only. Each shard's own domain's
         [Gc.minor_words], which is exact per domain. *)
  process_major_words : float;
  process_promoted_words : float;
      (* run phase, process-wide: one [Gc.quick_stat] pair taken by the
         supervisor around the run. On OCaml 5 [Gc.quick_stat] counts
         every domain (a shard's own pair would count its neighbours'
         minor words too), so these are all shards' together. *)
}

let completion_rate r =
  if r.sessions = 0 then 1.0 else float_of_int r.completed /. float_of_int r.sessions

(* The merged registry names are stable and prefixed by layer, so the
   flat JSON export is a canonical, diffable artifact: two fixed-seed
   runs must produce byte-identical dumps. *)
let merged_metrics ~shards reports =
  let reg = Metrics.create () in
  Metrics.add reg "fleet.shards" shards;
  List.iter
    (fun (r : Storm.report) ->
      Metrics.add reg "fleet.sessions" r.Storm.sessions;
      Metrics.add reg "fleet.completed" r.Storm.completed;
      Metrics.add reg "fleet.aborted" r.Storm.aborted;
      Metrics.add reg "fleet.retries" r.Storm.retries;
      let ticks = Metrics.gauge reg "fleet.ticks_max" in
      if r.Storm.ticks > Metrics.Gauge.get ticks then Metrics.Gauge.set ticks r.Storm.ticks;
      List.iter (fun (name, v) -> Metrics.add reg ("server." ^ name) v) r.Storm.server;
      List.iter (fun (name, v) -> Metrics.add reg ("net." ^ name) v) r.Storm.faults;
      List.iter
        (fun (name, h) -> Histogram.merge_into ~into:(Metrics.histogram reg ("phase." ^ name)) h)
        r.Storm.phase_hists;
      Histogram.merge_into ~into:(Metrics.histogram reg "sched.runq_depth") r.Storm.runq_hist)
    reports;
  reg

(* ------------------------------------------------------------------ *)
(* The supervisor *)

(* Start barrier: shards build their boards ([Storm.prepare]), check in
   as ready, and block until the supervisor — having seen every shard
   ready — releases them all at once. Separates setup wall-clock from
   run wall-clock, and starts the timed region with every domain warm. *)
type gate = {
  g_lock : Mutex.t;
  g_cond : Condition.t;
  mutable g_ready : int;
  mutable g_go : bool;
}

(** Run the fleet: spawn one domain per shard, each simulating its
    board to completion, then join and merge. The merged report is a
    pure function of [config] — see the determinism contract above. *)
let run ?(config = default_config) () =
  if config.shards < 1 then invalid_arg "Fleet.run: shards must be >= 1";
  if config.storm.Storm.sessions < config.shards then
    invalid_arg "Fleet.run: fewer sessions than shards";
  let n = config.shards in
  let gate = { g_lock = Mutex.create (); g_cond = Condition.create (); g_ready = 0; g_go = false } in
  let check_in_and_wait () =
    Mutex.lock gate.g_lock;
    gate.g_ready <- gate.g_ready + 1;
    Condition.broadcast gate.g_cond;
    while not gate.g_go do
      Condition.wait gate.g_cond gate.g_lock
    done;
    Mutex.unlock gate.g_lock
  in
  let t_start = Unix.gettimeofday () in
  let spawn k =
    Domain.spawn (fun () ->
        (* Everything the shard touches — board, network, tracer,
           crypto key objects — is constructed here, inside the shard's
           domain, so nothing mutable is ever shared (Net enforces its
           side with a Wrong_domain check). *)
        if config.minor_heap_words > 0 then
          Gc.set { (Gc.get ()) with Gc.minor_heap_size = config.minor_heap_words };
        let tracer =
          if config.trace_capacity > 0 then Some (Trace.create ~capacity:config.trace_capacity ())
          else None
        in
        (* If prepare dies the shard must still check in, or the
           supervisor and the other shards deadlock on the gate. *)
        let prep =
          match Storm.prepare ~config:(shard_config config k) ?tracer () with
          | p -> Ok p
          | exception e -> Error e
        in
        check_in_and_wait ();
        match prep with
        | Error e -> raise e
        | Ok prep ->
          let minor0 = Gc.minor_words () in
          let report = Storm.run_prepared prep in
          let minor = Gc.minor_words () -. minor0 in
          (k, report, minor, Option.map (Merge.of_tracer ~shard_id:k) tracer))
  in
  let domains = List.init n spawn in
  (* Release the barrier once every shard has built its board; the
     setup/run wall-clock split pivots here. *)
  Mutex.lock gate.g_lock;
  while gate.g_ready < n do
    Condition.wait gate.g_cond gate.g_lock
  done;
  let g0 = Gc.quick_stat () in
  let t_ready = Unix.gettimeofday () in
  gate.g_go <- true;
  Condition.broadcast gate.g_cond;
  Mutex.unlock gate.g_lock;
  let results = List.map Domain.join domains (* shard order *) in
  let t_end = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  let reports = List.map (fun (_, r, _, _) -> r) results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let phases_reg = merged_metrics ~shards:n reports in
  let merged_phases =
    List.filter_map
      (fun (name, h) ->
        match String.length name > 6 && String.sub name 0 6 = "phase." with
        | true when Histogram.count h > 0 ->
          Some (String.sub name 6 (String.length name - 6), Histogram.summarize h)
        | _ -> None)
      (Metrics.histograms phases_reg)
  in
  {
    shards = n;
    sessions = sum (fun r -> r.Storm.sessions);
    completed = sum (fun r -> r.Storm.completed);
    aborted = sum (fun r -> r.Storm.aborted);
    retries = sum (fun r -> r.Storm.retries);
    ticks = List.fold_left (fun acc r -> max acc r.Storm.ticks) 0 reports;
    per_shard = List.map (fun (k, r, _, _) -> (k, r)) results;
    metrics = phases_reg;
    phases = merged_phases;
    trace = List.filter_map (fun (_, _, _, t) -> t) results;
    setup_wall_s = t_ready -. t_start;
    run_wall_s = t_end -. t_ready;
    minor_words_per_shard = List.map (fun (k, _, minor, _) -> (k, minor)) results;
    process_major_words = g1.Gc.major_words -. g0.Gc.major_words;
    process_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
  }

(** The merged registry as canonical flat JSON (the byte-identity
    artifact: CI diffs a 64-session, 4-shard dump against the committed
    [fleet-metrics.json]). *)
let metrics_json r = Watz_obs.Export.metrics_to_json r.metrics

(** The merged shard-tagged Chrome trace ([] shards -> empty document). *)
let trace_json r = Merge.chrome_of_shards r.trace

let pp_report ppf r =
  Format.fprintf ppf
    "shards %d | sessions %d | completed %d (%.1f%%) | aborted %d | retries %d | ticks(max) %d"
    r.shards r.sessions r.completed
    (100.0 *. completion_rate r)
    r.aborted r.retries r.ticks;
  Format.fprintf ppf "@\n  wall: setup %.3fs | run %.3fs" r.setup_wall_s r.run_wall_s;
  List.iter
    (fun (name, (h : Histogram.summary)) ->
      Format.fprintf ppf "@\n  phase %-9s p50 %a | p95 %a | p99 %a" name Watz_util.Stats.pp_ns
        h.Histogram.p50 Watz_util.Stats.pp_ns h.Histogram.p95 Watz_util.Stats.pp_ns
        h.Histogram.p99)
    r.phases;
  List.iter
    (fun (k, (s : Storm.report)) ->
      Format.fprintf ppf "@\n  shard %d: %d/%d completed in %d ticks" k s.Storm.completed
        s.Storm.sessions s.Storm.ticks)
    r.per_shard
