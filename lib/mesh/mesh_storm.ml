(** The mesh storm: an open-loop load generator driving the attested
    service mesh over the fault-injected link.

    Unlike {!Watz.Storm} (closed population, fixed stagger), arrivals
    here are open-loop: inter-arrival gaps are drawn from a mixture of
    an exponential (Poisson process) and a Pareto heavy tail, so
    bursts land on the verifier regardless of how fast it drains.
    Each arrival picks an attester from a fixed population; an
    attester that already holds a ticket resumes, one that does not
    (first contact, reboot, rejection) runs the full handshake — so
    the run exercises the full/resume mix, the evidence cache, and
    hierarchical sub-claims under realistic churn:

    - {e attester reboot}: new boot digest, volatile ticket lost;
    - {e attestation-key rotation}: new key and id, policy endorses
      the new key, the cache drops the old id, the stale ticket is
      rejected on its next use;
    - {e ticket-key (STEK) rotation}: outstanding tickets reject as
      rotated;
    - {e module update}: new reference measurement, cache entries for
      the old one invalidated.

    Everything is a pure function of [config.seed]: arrivals, churn
    schedule, identity choice and fault injection all derive from it,
    so a failing run replays exactly. *)

module P = Watz_attest.Protocol
module Net = Watz_tz.Net
module Soc = Watz_tz.Soc
module Metrics = Watz_obs.Metrics
module Histogram = Watz_obs.Metrics.Histogram
module Prng = Watz_util.Prng

type churn = {
  reboot_every : int; (* every Nth arrival reboots its attester first (0 = off) *)
  rotate_key_every : int;
  rotate_stek_every : int;
  module_update_every : int;
}

let no_churn =
  {
    reboot_every = 0;
    rotate_key_every = 0;
    rotate_stek_every = 0;
    module_update_every = 0;
  }

(* Primes, so the event trains drift against each other instead of
   piling onto the same arrivals. *)
let default_churn =
  {
    reboot_every = 17;
    rotate_key_every = 29;
    rotate_stek_every = 41;
    module_update_every = 53;
  }

type config = {
  sessions : int; (* arrivals to generate *)
  population : int; (* distinct attester identities *)
  seed : int64;
  profile : Net.fault_profile;
  subclaims_per_session : int;
  churn : churn;
}

let default_config =
  {
    sessions = 64;
    population = 16;
    seed = 0xec0be11L;
    profile = Net.lossy;
    subclaims_per_session = 2;
    churn = default_churn;
  }

(* The load shape: 1 ms ticks up to a hard stop, a 2 ms mean
   inter-arrival gap of which 15 % are Pareto draws with tail index
   1.5 (lower = heavier bursts), and a 20 s lifetime for tickets and
   evidence-cache entries. *)
let quantum_ns = 1_000_000
let max_ticks = 40_000
let mean_gap_ns = 2_000_000.0
let heavy_tail_p = 0.15
let pareto_alpha = 1.5
let ttl_ns = 20_000_000_000L

type report = {
  launched : int;
  completed_resumed : int; (* established via the 1-RTT resume *)
  completed_full : int; (* established via msg0–msg3 (fallbacks included) *)
  fallbacks : int; (* sessions that tried to resume and fell back *)
  aborted : int;
  subclaims_acked : int;
  retries : int;
  ticks : int;
  full_latency : Histogram.t; (* launch -> established, sim ns, per path *)
  resumed_latency : Histogram.t;
  aborts : (string * int) list;
  faults : (string * int) list;
  metrics : Metrics.t; (* the server registry, the cache's counts included *)
  cache_export : Cache.entry list;
  identities : Identity.t array;
}

let mix seed k = Int64.logxor seed (Int64.mul (Int64.of_int (k + 1)) 0x9e3779b97f4a7c15L)

(* Inter-arrival gap in ns: exponential most of the time, Pareto with
   probability [heavy_tail_p]. The Pareto scale is set so its mean
   (alpha/(alpha-1) * xm for alpha > 1) matches the exponential mean,
   keeping the configured rate while fattening the tail. *)
let draw_gap rng =
  let u = max 1e-12 (Prng.float rng 1.0) in
  if Prng.float rng 1.0 < heavy_tail_p then begin
    let xm = mean_gap_ns *. (pareto_alpha -. 1.0) /. pareto_alpha in
    xm *. ((1.0 -. u) ** (-1.0 /. pareto_alpha))
  end
  else -.mean_gap_ns *. log u

let claim_for generation = Watz_crypto.Sha256.digest (Printf.sprintf "mesh-module-v%d" generation)

let sub_measurement i = Watz_crypto.Sha256.digest (Printf.sprintf "mesh-sub-%d" i)

let sub_ref_count = 4
let sub_refs () = List.init sub_ref_count sub_measurement

(** Run one mesh storm. [identities] (with any tickets they carry) and
    a pre-seeded cache can be supplied by the federation layer, which
    merges each shard's [cache_export] at join. *)
let run ?(config = default_config) ?identities ?(stek_seed = "mesh-stek")
    ?(cache_seed = ([] : Cache.entry list)) () =
  let cfg = config in
  let rng = Prng.create cfg.seed in
  let soc = Soc.manufacture ~seed:(Printf.sprintf "mesh-board-%Ld" cfg.seed) () in
  (match Soc.boot soc with Ok _ -> () | Error _ -> failwith "mesh storm: boot failed");
  Net.configure soc.Soc.net ~seed:cfg.seed ~profile:cfg.profile;
  let claim_generation = ref 0 in
  let identities =
    match identities with
    | Some ids -> ids
    | None ->
      Array.init cfg.population (fun i ->
          Identity.create
            ~seed:(Printf.sprintf "%Ld-a%d" cfg.seed i)
            ~claim:(claim_for !claim_generation))
  in
  let policy =
    P.Verifier.make_policy
      ~identity_seed:(Printf.sprintf "mesh-verifier-%Ld" cfg.seed)
      ~endorsed_keys:(Array.to_list (Array.map Identity.public_key identities))
      ~reference_claims:[ claim_for !claim_generation ]
      ~secret_blob:"mesh secret blob" ()
  in
  let port = 7300 in
  let server =
    Mesh_verifier.start ~ticket_ttl_ns:ttl_ns ~cache_ttl_ns:ttl_ns
      ~sub_refs:(sub_refs ()) ~stek_seed soc ~port ~policy ()
  in
  Cache.merge_into (Mesh_verifier.cache server) cache_seed;
  (* Arrival schedule: gap-summed timestamps, all drawn up front so
     churn draws (below) cannot perturb arrival times. *)
  let arrivals = Array.make cfg.sessions 0L in
  let tns = ref (Int64.to_float (Soc.now_ns soc)) in
  for i = 0 to cfg.sessions - 1 do
    tns := !tns +. draw_gap rng;
    arrivals.(i) <- Int64.of_float !tns
  done;
  let crypto_rng = Prng.create (Int64.logxor cfg.seed 0x5e55104aL) in
  let random n = Prng.bytes crypto_rng n in
  let fires every i = every > 0 && i > 0 && i mod every = 0 in
  let apply_churn i (id : Identity.t) =
    if fires cfg.churn.reboot_every i then Identity.reboot id;
    if fires cfg.churn.rotate_key_every i then begin
      let old_id = Identity.attester_id id in
      Identity.rotate_key id;
      Mesh_verifier.endorse server (Identity.public_key id);
      ignore (Cache.invalidate_attester (Mesh_verifier.cache server) old_id : int)
    end;
    if fires cfg.churn.rotate_stek_every i then Mesh_verifier.rotate_tickets server;
    if fires cfg.churn.module_update_every i then begin
      let old_claim = claim_for !claim_generation in
      incr claim_generation;
      let new_claim = claim_for !claim_generation in
      Mesh_verifier.set_reference_claims server [ new_claim ];
      ignore (Cache.invalidate_claim (Mesh_verifier.cache server) old_claim : int);
      Array.iter (fun (a : Identity.t) -> a.Identity.claim <- new_claim) identities
    end
  in
  let subclaims_for i =
    List.init cfg.subclaims_per_session (fun k ->
        let j = (i + k) mod sub_ref_count in
        (Printf.sprintf "module-%d" j, sub_measurement j))
  in
  let attesters = ref [] in
  let launched = ref 0 in
  let launch_due () =
    let now = Soc.now_ns soc in
    while !launched < cfg.sessions && Int64.compare arrivals.(!launched) now <= 0 do
      let i = !launched in
      incr launched;
      let id = identities.(Prng.int rng (Array.length identities)) in
      apply_churn i id;
      let a =
        Mesh_attester.start ~sid:(i + 1) ~subclaims:(subclaims_for i) soc
          ~port ~random ~identity:id ~expected_verifier:policy.P.Verifier.identity_pub ()
      in
      attesters := a :: !attesters
    done
  in
  let all_terminal () =
    !launched = cfg.sessions
    && List.for_all (fun a -> Mesh_attester.outcome a <> Mesh_attester.Pending) !attesters
  in
  let ticks = ref 0 in
  while (not (all_terminal ())) && !ticks < max_ticks do
    incr ticks;
    launch_due ();
    Net.tick soc.Soc.net;
    Mesh_verifier.step server;
    List.iter Mesh_attester.step (List.rev !attesters);
    Watz_tz.Simclock.advance soc.Soc.clock quantum_ns
  done;
  let outcomes = List.map (fun a -> (a, Mesh_attester.outcome a)) (List.rev !attesters) in
  let full_latency = Histogram.create () and resumed_latency = Histogram.create () in
  let completed_resumed = ref 0
  and completed_full = ref 0
  and fallbacks = ref 0
  and subclaims_acked = ref 0 in
  List.iter
    (fun (a, o) ->
      match o with
      | Mesh_attester.Done d ->
        (* Time to an established session — the quantity resumption is
           buying down; sub-claim streaming after it is path-neutral. *)
        let lat =
          Int64.to_int (Int64.sub (Mesh_attester.established_ns a) (Mesh_attester.started_ns a))
        in
        subclaims_acked := !subclaims_acked + d.Mesh_attester.subclaims_acked;
        if d.Mesh_attester.fell_back then incr fallbacks;
        (match d.Mesh_attester.path with
        | Mesh_attester.Resumed ->
          incr completed_resumed;
          Histogram.record resumed_latency lat
        | Mesh_attester.Full_handshake ->
          incr completed_full;
          Histogram.record full_latency lat)
      | _ -> ())
    outcomes;
  let aborts =
    Watz.Storm.tally_aborts
      (List.filter_map
         (function
           | _, Mesh_attester.Done _ -> None
           | _, Mesh_attester.Aborted e -> Some (Some e)
           | _, Mesh_attester.Pending -> Some None)
         outcomes)
  in
  {
    launched = !launched;
    completed_resumed = !completed_resumed;
    completed_full = !completed_full;
    fallbacks = !fallbacks;
    aborted = List.length outcomes - !completed_resumed - !completed_full;
    subclaims_acked = !subclaims_acked;
    retries = List.fold_left (fun acc (a, _) -> acc + Mesh_attester.retries a) 0 outcomes;
    ticks = !ticks;
    full_latency;
    resumed_latency;
    aborts;
    faults = Net.fault_counts soc.Soc.net;
    metrics = Mesh_verifier.metrics server;
    cache_export = Cache.export (Mesh_verifier.cache server);
    identities;
  }

(** A server counter at the end of the run; 0 if it never fired. *)
let counter r name = Option.value ~default:0 (List.assoc_opt name (Metrics.counter_list r.metrics))

let cache_hit_rate r =
  let hits = counter r "cache.hits" in
  let lookups = hits + counter r "cache.misses" in
  if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups

let completion_rate r =
  if r.launched = 0 then 1.0
  else float_of_int (r.completed_resumed + r.completed_full) /. float_of_int r.launched

(** The storm's pass/fail rules, one message per rule broken. An
    attester counts itself resumed only after authenticating the
    accept, so more resumes than server-side acceptances means a forged
    acceptance got through. Completion below 99 % and stray frames fail
    only where [profile] does not tamper with frames. *)
let failures profile r =
  let accepts = counter r "resumes_accepted" + counter r "retransmits_answered" in
  let judged = not (Net.tampers profile) in
  let stray = counter r "stray_after_complete" in
  List.filter_map
    (fun (broken, message) -> if broken then Some message else None)
    [
      ( r.completed_resumed > accepts,
        Printf.sprintf "%d resumed sessions but only %d server-side acceptances: a forged \
                        resume acceptance was accepted" r.completed_resumed accepts );
      ( judged && completion_rate r < 0.99,
        Printf.sprintf "completion rate %.1f%% below 99%%" (100.0 *. completion_rate r) );
      (judged && stray > 0, Printf.sprintf "%d stray frames after session completion" stray);
    ]

let pp_report ppf r =
  Format.fprintf ppf
    "sessions %d | resumed %d | full %d | fallbacks %d | aborted %d | retries %d | ticks %d"
    r.launched r.completed_resumed r.completed_full r.fallbacks r.aborted r.retries r.ticks;
  Format.fprintf ppf "@\n  cache: hits %d | misses %d | hit-rate %.1f%% | tickets minted %d"
    (counter r "cache.hits") (counter r "cache.misses")
    (100.0 *. cache_hit_rate r)
    (counter r "tickets_minted");
  let pp_lat name h =
    if Histogram.count h > 0 then begin
      let s = Histogram.summarize h in
      Format.fprintf ppf "@\n  %-8s p50 %a | p95 %a | p99 %a (n=%d)" name Watz_util.Stats.pp_ns
        s.Histogram.p50 Watz_util.Stats.pp_ns s.Histogram.p95 Watz_util.Stats.pp_ns
        s.Histogram.p99 (Histogram.count h)
    end
  in
  pp_lat "full" r.full_latency;
  pp_lat "resumed" r.resumed_latency;
  Watz.Storm.pp_counts ppf ~faults:r.faults ~server:(Metrics.counter_list r.metrics)
    ~aborts:r.aborts
