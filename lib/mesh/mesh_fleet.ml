(** Multi-verifier federation: evidence-cache sharing across a fleet
    of mesh verifiers.

    Each shard runs its own board, network and {!Mesh_verifier} in its
    own domain, exactly like {!Watz.Fleet} — nothing mutable crosses a
    domain boundary; reports come back through [Domain.join]. The run
    has two waves:

    {e Wave 1 (populate)}: every shard handles its own attester
    population over full handshakes. At join, the supervisor splits
    each shard's evidence-cache export into chunks of at most
    {!chunk_size} entries and folds them into a merged cache with
    {!Cache.merge_into} — a per-key max under a total order, so the
    merge is commutative, associative and idempotent: whatever order
    the chunks are folded in, the merged cache is byte-identical (the
    report carries digests of a forward and a reversed fold to prove
    it).

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
  merge_digest : string; (* forward fold of the chunks *)
  merge_digest_reversed : string; (* reversed fold; equal ⇒ order-free *)
  chunks_streamed : int; (* wave-1 export chunks folded into the merge *)
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

(** Entries per wave-1 merge chunk. *)
let chunk_size = 16

(* Split an export into consecutive chunks of at most [chunk_size]. *)
let rec chunk entries =
  let rec take i = function
    | x :: tl when i < chunk_size ->
      let c, rest = take (i + 1) tl in
      (x :: c, rest)
    | rest -> ([], rest)
  in
  match take 0 entries with [], _ -> [] | c, rest -> c :: chunk rest

(* Run [f k] for every shard [k] in its own domain; results in shard
   order. *)
let on_shards n f =
  Array.of_list (List.map Domain.join (List.init n (fun k -> Domain.spawn (fun () -> f k))))

let run ?(config = default_config) () =
  if config.shards < 1 then invalid_arg "Mesh_fleet.run: shards must be >= 1";
  let cfg = config in
  let n = cfg.shards in
  let stek_seed = fleet_stek cfg in
  (* ---- Wave 1: populate, then merge the shards' cache exports. *)
  let wave1 =
    on_shards n (fun k -> Mesh_storm.run ~config:(shard_storm_config cfg ~wave:0 k) ~stek_seed ())
  in
  let chunks =
    Array.to_list wave1 |> List.concat_map (fun r -> chunk r.Mesh_storm.cache_export)
  in
  let fold chunks =
    let c = Cache.create (Metrics.create ()) ~ttl_ns:Int64.max_int in
    List.iter (Cache.merge_into c) chunks;
    c
  in
  let merged = fold chunks in
  let merge_digest = Cache.digest merged in
  (* Replay the merge with the chunks reversed: the digest must not
     move, or the federation result would depend on merge order. *)
  let merge_digest_reversed = Cache.digest (fold (List.rev chunks)) in
  let seed_entries = Cache.export merged in
  (* ---- Wave 2: migrate each population one shard over and resume. *)
  let wave2 =
    on_shards n (fun k ->
        Mesh_storm.run
          ~config:(shard_storm_config cfg ~wave:1 k)
          ~identities:wave1.((k + 1) mod n).Mesh_storm.identities
          ~stek_seed ~cache_seed:seed_entries ())
  in
  let metrics = Metrics.create () in
  Array.iter (fun (r : Mesh_storm.report) -> Metrics.merge_into ~into:metrics r.Mesh_storm.metrics) wave2;
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 wave2 in
  {
    shards = n;
    outcomes = Array.init n (fun k -> { wave1 = wave1.(k); wave2 = wave2.(k) });
    merged_entries = List.length seed_entries;
    merge_digest;
    merge_digest_reversed;
    chunks_streamed = List.length chunks;
    cross_resumes = sum (fun r -> r.Mesh_storm.completed_resumed);
    wave2_full = sum (fun r -> r.Mesh_storm.completed_full);
    wave2_fallbacks = sum (fun r -> r.Mesh_storm.fallbacks);
    metrics;
  }

(** The federation's pass/fail rules, as {!Mesh_storm.failures}: an
    order-free merge and, unless [profile] tampers, a cross-shard resume. *)
let failures profile r =
  (if String.equal r.merge_digest r.merge_digest_reversed then []
   else [ "merged cache depends on chunk merge order" ])
  @
  if Net.tampers profile || r.cross_resumes > 0 then []
  else [ "no cross-shard resumption succeeded" ]

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
