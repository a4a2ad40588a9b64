(** Multi-verifier federation: evidence-cache sharing across a fleet
    of mesh verifiers.

    Each shard runs its own board, network and {!Mesh_verifier} in its
    own domain, exactly like {!Watz.Fleet} — nothing mutable crosses a
    domain boundary except through the bounded queue. The run has two
    waves:

    {e Wave 1 (populate)}: every shard handles its own attester
    population over full handshakes, streaming its evidence-cache
    export to the supervisor in chunks over {!Watz.Fleet.Bqueue} as
    each shard finishes. The supervisor folds the chunks into a merged
    cache with {!Cache.merge_into} — a per-key max under a total
    order, so the merge is commutative, associative and idempotent:
    whatever order the shards' chunks arrive in, the merged cache is
    byte-identical (the report carries digests of an arrival-order and
    a reversed-order merge to prove it).

    {e Wave 2 (migrate)}: shard [k] is handed shard [(k+1) mod n]'s
    attesters — tickets, resumption secrets and all — plus the merged
    cache. Because all verifiers share a ticket-sealing key (a
    deployment would distribute the STEK alongside the policy) and the
    merged cache carries every shard's appraisals, the migrated
    attesters resume in one round trip against a verifier that has
    never seen them. Cache misses or ticket rejects fall back to the
    full handshake, so federation is an optimisation, never a
    correctness dependency. *)

module Net = Watz_tz.Net
module Metrics = Watz_obs.Metrics
module Bqueue = Watz.Fleet.Bqueue

type config = {
  shards : int;
  sessions_per_shard : int;
  population_per_shard : int;
  seed : int64;
  profile : Net.fault_profile;
  subclaims_per_session : int;
}

let default_config =
  {
    shards = 4;
    sessions_per_shard = 24;
    population_per_shard = 8;
    seed = 0xfede8a7eL;
    profile = { Net.perfect with Net.drop_p = 0.1 };
    subclaims_per_session = 1;
  }

type shard_outcome = { wave1 : Mesh_storm.report; wave2 : Mesh_storm.report }

type report = {
  shards : int;
  outcomes : shard_outcome array;
  merged_entries : int;
  merge_digest : string; (* arrival-order merge *)
  merge_digest_reversed : string; (* reversed-order merge; equal ⇒ order-free *)
  chunks_streamed : int;
  cross_resumes : int; (* wave-2 sessions established via 1-RTT resume *)
  wave2_full : int;
  wave2_fallbacks : int;
  metrics : Metrics.t; (* wave-2 server registries, merged *)
}

let shard_storm_config cfg ~wave k =
  {
    Mesh_storm.sessions = cfg.sessions_per_shard;
    population = cfg.population_per_shard;
    seed = Mesh_storm.mix cfg.seed ((wave * cfg.shards) + k);
    profile = cfg.profile;
    subclaims_per_session = cfg.subclaims_per_session;
    churn = Mesh_storm.no_churn;
  }

(* One STEK for the whole fleet: a ticket minted by any shard redeems
   at every shard. *)
let fleet_stek cfg = Printf.sprintf "fleet-stek-%Ld" cfg.seed

let run ?(config = default_config) () =
  if config.shards < 1 then invalid_arg "Mesh_fleet.run: shards must be >= 1";
  let cfg = config in
  let n = cfg.shards in
  let stek_seed = fleet_stek cfg in
  (* ---- Wave 1: populate, streaming cache exports to the supervisor. *)
  let q : Cache.entry list Bqueue.t = Bqueue.create ~capacity:64 ~producers:n in
  let spawn1 k =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Bqueue.producer_done q)
          (fun () ->
            Mesh_storm.run
              ~config:(shard_storm_config cfg ~wave:0 k)
              ~stek_seed
              ~on_cache_export:(fun entries ->
                (* Stream in bounded chunks so a big shard cannot wedge
                   the queue with one giant item. *)
                let rec chunks = function
                  | [] -> ()
                  | l ->
                    let rec take i = function
                      | x :: tl when i < 16 ->
                        let c, rest = take (i + 1) tl in
                        (x :: c, rest)
                      | rest -> ([], rest)
                    in
                    let c, rest = take 0 l in
                    Bqueue.push q c;
                    chunks rest
                in
                chunks entries)
              ()))
  in
  let domains1 = List.init n spawn1 in
  (* Drain while the shards run — the queue is bounded. *)
  let merged = Cache.create ~ttl_ns:Int64.max_int () in
  let arrived = ref [] in
  let chunks_streamed = ref 0 in
  let rec drain () =
    match Bqueue.pop q with
    | None -> ()
    | Some chunk ->
      incr chunks_streamed;
      Cache.merge_into merged chunk;
      arrived := chunk :: !arrived;
      drain ()
  in
  drain ();
  let wave1 = Array.of_list (List.map Domain.join domains1) in
  let merge_digest = Cache.digest merged in
  (* Replay the merge with chunks in reverse arrival order: the digest
     must not move, or the federation result would depend on thread
     scheduling. *)
  let reversed = Cache.create ~ttl_ns:Int64.max_int () in
  List.iter (fun chunk -> Cache.merge_into reversed chunk) !arrived;
  let merge_digest_reversed = Cache.digest reversed in
  let seed_entries = Cache.export merged in
  (* ---- Wave 2: migrate each population one shard over and resume. *)
  let spawn2 k =
    Domain.spawn (fun () ->
        Mesh_storm.run
          ~config:(shard_storm_config cfg ~wave:1 k)
          ~identities:wave1.((k + 1) mod n).Mesh_storm.identities
          ~stek_seed ~cache_seed:seed_entries ())
  in
  let wave2 = Array.of_list (List.map Domain.join (List.init n spawn2)) in
  let metrics = Metrics.create () in
  Array.iter (fun (r : Mesh_storm.report) -> Metrics.merge_into ~into:metrics r.Mesh_storm.metrics) wave2;
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 wave2 in
  {
    shards = n;
    outcomes = Array.init n (fun k -> { wave1 = wave1.(k); wave2 = wave2.(k) });
    merged_entries = List.length seed_entries;
    merge_digest;
    merge_digest_reversed;
    chunks_streamed = !chunks_streamed;
    cross_resumes = sum (fun r -> r.Mesh_storm.completed_resumed);
    wave2_full = sum (fun r -> r.Mesh_storm.completed_full);
    wave2_fallbacks = sum (fun r -> r.Mesh_storm.fallbacks);
    metrics;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "fleet: %d shards | merged cache %d entries (%d chunks) | merge order-free %b" r.shards
    r.merged_entries r.chunks_streamed
    (String.equal r.merge_digest r.merge_digest_reversed);
  Format.fprintf ppf "@\n  wave2: cross-shard resumes %d | full %d | fallbacks %d" r.cross_resumes
    r.wave2_full r.wave2_fallbacks;
  Array.iteri
    (fun k o ->
      Format.fprintf ppf "@\n  shard %d wave1: %a" k Mesh_storm.pp_report o.wave1;
      Format.fprintf ppf "@\n  shard %d wave2: %a" k Mesh_storm.pp_report o.wave2)
    r.outcomes
