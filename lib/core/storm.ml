(** Attestation storm: many concurrent attesters against one verifier
    listener over a fault-injected link, driven tick by tick.

    One simulated board hosts both sides (as in the paper's evaluation
    setup); the normal-world network between them runs a configurable
    {!Watz_tz.Net.fault_profile}. Each tick launches up to {!stagger}
    new sessions, then advances the link layer, the verifier server,
    every launched attester (in ascending session id) and the simulated
    clock by one {!quantum_ns}. The run ends when every session reached
    a terminal state (or {!max_ticks} expired), and the report carries
    the completion rate, abort histogram, retransmission and fault
    counts, and per-session latency percentiles the bench prints. *)

module P = Watz_attest.Protocol
module Net = Watz_tz.Net
module Soc = Watz_tz.Soc
module Stats = Watz_util.Stats
module Histogram = Watz_obs.Metrics.Histogram

type config = {
  sessions : int; (* concurrent attesters *)
  seed : int64; (* fault-layer PRNG seed; log it, replay it *)
  profile : Net.fault_profile;
  retry : Attester_app.retry;
  first_sid : int; (* id of the first launched session *)
  sid_stride : int;
      (* id distance between consecutive launches. A fleet shard k of N
         runs [first_sid = k + 1; sid_stride = N]: sessions are sharded
         by attester id (sid mod N picks the shard) and ids stay
         globally unique across the merged trace. *)
}

let default_config =
  {
    sessions = 32;
    seed = 0xa77e57L;
    profile = Net.lossy;
    retry = Attester_app.default_retry;
    first_sid = 1;
    sid_stride = 1;
  }

(* Sessions launched per tick, simulated time per tick, and the hard
   stop for never-converging profiles. *)
let stagger = 4
let quantum_ns = 1_000_000
let max_ticks = 20_000

(* Flip the first payload byte of every segment, leaving the length
   prefix intact: the frame still parses, its content no longer
   authenticates. *)
let mitm_flip data =
  if String.length data = 0 then data
  else begin
    let i = min 4 (String.length data - 1) in
    String.mapi (fun k c -> if k = i then Char.chr (Char.code c lxor 0x01) else c) data
  end

(** Named fault profiles for the CLI, the bench table and the tests:
    each isolates one fault family; [lossy] is the acceptance-criteria
    mix (loss + ordering + timing, no tampering). *)
let profiles : (string * Net.fault_profile) list =
  [
    ("perfect", Net.perfect);
    ("drop", { Net.perfect with Net.drop_p = 0.15 });
    ("dup", { Net.perfect with Net.dup_p = 0.2 });
    ("reorder", { Net.perfect with Net.reorder_p = 0.2 });
    ("delay", { Net.perfect with Net.delay_p = 0.4; max_delay_ticks = 5 });
    ("chunk", { Net.perfect with Net.chunk_p = 0.5 });
    ("lossy", Net.lossy);
    ("corrupt", { Net.perfect with Net.corrupt_p = 0.3 });
    ("truncate", { Net.perfect with Net.truncate_close_p = 0.2 });
    ("mitm-flip", { Net.perfect with Net.mitm = Some mitm_flip });
  ]

let profile_named name = List.assoc_opt name profiles

type report = {
  sessions : int;
  completed : int;
  aborted : int;
  retries : int; (* total retransmissions across attesters *)
  ticks : int;
  faults : (string * int) list; (* injected by the link layer *)
  server : (string * int) list; (* verifier-side counters *)
  aborts : (string * int) list; (* histogram of abort reasons *)
  latency : Stats.summary option; (* per completed session, sim ns *)
  phases : (string * Histogram.summary) list;
      (* per-phase latency distributions over completed sessions:
         "handshake" (msg0 -> msg2 sent), "appraisal" (msg2 -> blob),
         "total" — simulated ns *)
  phase_hists : (string * Histogram.t) list;
      (* the same three distributions as mergeable histograms (present
         even when empty) — the fleet merges them across shards with
         [Histogram.merge_into] before summarising *)
  runq_hist : Histogram.t;
      (* run-queue depth (launched minus terminated sessions), sampled
         once per tick after the launch phase; the fleet merges it as
         "sched.runq_depth" *)
}

let completion_rate r =
  if r.sessions = 0 then 1.0 else float_of_int r.completed /. float_of_int r.sessions

(** A storm whose board is built but whose tick loop has not started:
    the split lets the fleet (and the bench) construct every shard's
    board, service and policy — ECDSA key generation included — outside
    the timed region, then start all shards from a barrier. *)
type prepared = {
  p_config : config;
  p_soc : Soc.t;
  p_server : Verifier_app.t;
  p_expected_verifier : Watz_crypto.Ecdsa.public_key;
  p_issue : anchor:string -> string;
  p_random : int -> string;
  p_port : int;
}

(** Build the simulated board, install the attestation service, derive
    the verifier policy and start the listener — everything up to (but
    not including) the first tick. *)
let prepare ?(config = default_config) ?tracer () =
  let soc = Soc.manufacture ~seed:"storm-board" () in
  (* Attach before boot so the secure-boot and CAAM spans are traced. *)
  (match tracer with Some trace -> Soc.attach_tracer soc trace | None -> ());
  (match Soc.boot soc with Ok _ -> () | Error _ -> failwith "storm: boot failed");
  let os = Soc.optee soc in
  let service = Watz_attest.Service.install os in
  let claim = Watz_crypto.Sha256.digest "storm-app" in
  let policy =
    P.Verifier.make_policy ~identity_seed:"storm-verifier"
      ~endorsed_keys:[ Watz_attest.Service.public_key service ]
      ~reference_claims:[ claim ] ~secret_blob:"storm secret blob" ()
  in
  Net.configure soc.Soc.net ~seed:config.seed ~profile:config.profile;
  let port = 7100 in
  let server = Verifier_app.start soc ~port ~policy in
  let issue ~anchor =
    (* Evidence signing happens in the secure world's attestation
       service (⑥); the storm bypasses the kernel-call plumbing, so
       trace the seam here. *)
    Watz_obs.Trace.span (Soc.tracer soc) Watz_obs.Trace.Secure
      ~session:Watz_obs.Trace.no_session "crypto.ecdsa_sign" (fun () ->
        Watz_attest.Evidence.encode (Watz_attest.Service.issue_evidence service ~anchor ~claim))
  in
  let crypto_rng = Watz_util.Prng.create (Int64.logxor config.seed 0x5e55104aL) in
  {
    p_config = config;
    p_soc = soc;
    p_server = server;
    p_expected_verifier = policy.P.Verifier.identity_pub;
    p_issue = issue;
    p_random = (fun n -> Watz_util.Prng.bytes crypto_rng n);
    p_port = port;
  }

(** The abort histogram of both storms ({!Watz_mesh.Mesh_storm} too):
    each session that did not complete, keyed by its error ([None]:
    still pending at the hard stop), most frequent first. *)
let tally_aborts (failed : P.error option list) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let k =
        match e with
        | Some e -> Format.asprintf "%a" P.pp_error e
        | None -> "still pending at max_ticks"
      in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    failed;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(** Drive a prepared storm to completion. The whole schedule is a pure
    function of [config.seed]: a failing run replays exactly from its
    seed. *)
let run_prepared p =
  let config = p.p_config and soc = p.p_soc in
  (* Prepend order: [List.rev] recovers ascending-sid stepping order. *)
  let attesters = ref [] in
  let launched = ref 0 in
  let runq_hist = Histogram.create () in
  let launch () =
    let n = min stagger (config.sessions - !launched) in
    for _ = 1 to n do
      let sid = config.first_sid + (!launched * config.sid_stride) in
      incr launched;
      let a =
        Attester_app.start ~retry:config.retry ~sid soc ~port:p.p_port ~random:p.p_random
          ~expected_verifier:p.p_expected_verifier ~issue:p.p_issue
      in
      attesters := a :: !attesters
    done
  in
  let pending () =
    List.fold_left
      (fun n a -> if Attester_app.outcome a = Attester_app.Pending then n + 1 else n)
      0 !attesters
  in
  let ticks = ref 0 in
  while (!launched < config.sessions || pending () > 0) && !ticks < max_ticks do
    incr ticks;
    launch ();
    Histogram.record runq_hist (pending ());
    Net.tick soc.Soc.net;
    Verifier_app.step p.p_server;
    List.iter Attester_app.step (List.rev !attesters);
    Watz_tz.Simclock.advance soc.Soc.clock quantum_ns
  done;
  (* Sessions still pending at the hard stop count as aborted. *)
  let outcomes = List.map (fun a -> (a, Attester_app.outcome a)) !attesters in
  let completed =
    List.length (List.filter (function _, Attester_app.Done _ -> true | _ -> false) outcomes)
  in
  let aborts =
    tally_aborts
      (List.filter_map
         (function
           | _, Attester_app.Done _ -> None
           | _, Attester_app.Aborted e -> Some (Some e)
           | _, Attester_app.Pending -> Some None)
         outcomes)
  in
  let latencies =
    List.filter_map
      (fun (a, o) ->
        match o with
        | Attester_app.Done _ ->
          Some
            (Int64.to_float
               (Int64.sub (Attester_app.finished_ns a) (Attester_app.started_ns a)))
        | _ -> None)
      outcomes
  in
  let handshake = Histogram.create ()
  and appraisal = Histogram.create ()
  and total = Histogram.create () in
  List.iter
    (fun (a, o) ->
      match o with
      | Attester_app.Done _ ->
        let s = Attester_app.started_ns a
        and m = Attester_app.msg2_sent_ns a
        and f = Attester_app.finished_ns a in
        Histogram.record handshake (Int64.to_int (Int64.sub m s));
        Histogram.record appraisal (Int64.to_int (Int64.sub f m));
        Histogram.record total (Int64.to_int (Int64.sub f s))
      | _ -> ())
    outcomes;
  let phase_hists = [ ("handshake", handshake); ("appraisal", appraisal); ("total", total) ] in
  let phases =
    if Histogram.count total = 0 then []
    else List.map (fun (name, h) -> (name, Histogram.summarize h)) phase_hists
  in
  {
    sessions = config.sessions;
    completed;
    aborted = config.sessions - completed;
    retries = List.fold_left (fun acc (a, _) -> acc + Attester_app.retries a) 0 outcomes;
    ticks = !ticks;
    faults = Net.fault_counts soc.Soc.net;
    server = Verifier_app.counters p.p_server;
    aborts;
    latency = (match latencies with [] -> None | l -> Some (Stats.summarize (Array.of_list l)));
    phases;
    phase_hists;
    runq_hist;
  }

(** Run one storm: {!prepare} then {!run_prepared}. *)
let run ?config ?tracer () = run_prepared (prepare ?config ?tracer ())

(** The counts both storms' reports end with: injected faults, server
    counters and the {!tally_aborts} histogram. *)
let pp_counts ppf ~faults ~server ~aborts =
  let pairs label = function
    | [] -> ()
    | l ->
      Format.fprintf ppf "@\n  %s:" label;
      List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) l
  in
  pairs "faults" faults;
  pairs "server" server;
  match aborts with
  | [] -> ()
  | l ->
    Format.fprintf ppf "@\n  aborts:";
    List.iter (fun (k, v) -> Format.fprintf ppf "@\n    %3dx %s" v k) l

let pp_report ppf r =
  Format.fprintf ppf "sessions %d | completed %d (%.1f%%) | aborted %d | retries %d | ticks %d"
    r.sessions r.completed
    (100.0 *. completion_rate r)
    r.aborted r.retries r.ticks;
  (match r.latency with
  | None -> ()
  | Some s ->
    Format.fprintf ppf "@\n  latency: median %a | p95 %a | p99 %a | max %a" Stats.pp_ns
      s.Stats.median Stats.pp_ns s.Stats.p95 Stats.pp_ns s.Stats.p99 Stats.pp_ns s.Stats.max);
  List.iter
    (fun (name, (h : Histogram.summary)) ->
      Format.fprintf ppf "@\n  phase %-9s p50 %a | p95 %a | p99 %a" name Stats.pp_ns
        h.Histogram.p50 Stats.pp_ns h.Histogram.p95 Stats.pp_ns h.Histogram.p99)
    r.phases;
  pp_counts ppf ~faults:r.faults ~server:r.server ~aborts:r.aborts
