(** Verifier-side evidence cache.

    One entry per fully-appraised (attester id, measurement, boot
    digest) triple, recording when the appraisal happened and until
    when the verifier is willing to trust it without re-running the
    handshake. The resume path consults the cache before honouring a
    ticket: a valid ticket whose backing entry expired or was
    invalidated (key rotation, module update) falls back to
    a full attestation.

    Entries are plain data, so federated verifier shards {!export}
    their caches and the fleet combines the exports at join with
    {!merge_into}. The merge keeps, per key, the entry that is greatest
    under a total order (freshest appraisal first) — commutative,
    associative and idempotent, so the merged cache is byte-identical
    no matter the order the shard exports are merged in.

    Its counts live in the metrics registry it is created with: hits,
    misses, stores, invalidations, expiries and merges as [cache.*]
    counters, and its size as the [cache.size] gauge. *)

module Metrics = Watz_obs.Metrics

type entry = {
  attester_id : string; (* 32 bytes *)
  claim : string; (* 32 bytes *)
  boot : string; (* 32 bytes *)
  verified_ns : int64; (* when the full appraisal accepted *)
  expires_ns : int64;
}

type t = {
  tbl : (string, entry) Hashtbl.t;
  ttl_ns : int64;
  size : Metrics.Gauge.t;
  hits : Metrics.Counter.t;
  misses : Metrics.Counter.t;
  stores : Metrics.Counter.t;
  invalidated : Metrics.Counter.t;
  expired : Metrics.Counter.t; (* lookups that found only a stale entry *)
  merged : Metrics.Counter.t; (* entries adopted from peer exports *)
}

let create metrics ~ttl_ns =
  let counter name = Metrics.counter metrics ("cache." ^ name) in
  {
    tbl = Hashtbl.create 64;
    ttl_ns;
    size = Metrics.gauge metrics "cache.size";
    hits = counter "hits";
    misses = counter "misses";
    stores = counter "stores";
    invalidated = counter "invalidated";
    expired = counter "expired";
    merged = counter "merged";
  }

let key ~attester_id ~claim ~boot = attester_id ^ claim ^ boot
let size t = Hashtbl.length t.tbl
let hits t = Metrics.Counter.get t.hits
let misses t = Metrics.Counter.get t.misses

(* Called after every change to the table. *)
let resized t = Metrics.Gauge.set t.size (size t)

(** Record a fresh full appraisal: the entry is trusted for [ttl_ns]
    from [now_ns]. Re-appraisals refresh in place. *)
let store t ~now_ns ~attester_id ~claim ~boot =
  Metrics.Counter.incr t.stores;
  Hashtbl.replace t.tbl
    (key ~attester_id ~claim ~boot)
    { attester_id; claim; boot; verified_ns = now_ns; expires_ns = Int64.add now_ns t.ttl_ns };
  resized t

(** Is (attester id, claim, boot) backed by a live appraisal? Stale
    entries are dropped on sight and count as misses. *)
let lookup t ~now_ns ~attester_id ~claim ~boot =
  let k = key ~attester_id ~claim ~boot in
  match Hashtbl.find_opt t.tbl k with
  | Some e when Int64.compare now_ns e.expires_ns < 0 ->
    Metrics.Counter.incr t.hits;
    true
  | Some _ ->
    Hashtbl.remove t.tbl k;
    resized t;
    Metrics.Counter.incr t.expired;
    Metrics.Counter.incr t.misses;
    false
  | None ->
    Metrics.Counter.incr t.misses;
    false

let remove_matching t pred =
  let doomed = Hashtbl.fold (fun k e acc -> if pred e then k :: acc else acc) t.tbl [] in
  List.iter (Hashtbl.remove t.tbl) doomed;
  resized t;
  let n = List.length doomed in
  Metrics.Counter.add t.invalidated n;
  n

(** Drop every entry for an attester — its attestation key rotated or
    it rebooted, so past appraisals no longer speak for it. *)
let invalidate_attester t attester_id =
  remove_matching t (fun e -> String.equal e.attester_id attester_id)

(** Drop every entry for a measurement — the module was updated, so
    appraisals of the old code no longer certify deployments. *)
let invalidate_claim t claim = remove_matching t (fun e -> String.equal e.claim claim)

(* Total order on entries sharing a key: freshest appraisal wins, then
   longest validity, then raw bytes as an arbitrary-but-fixed tiebreak.
   Total, so the merge result is independent of merge order. *)
let entry_geq a b =
  let c = Int64.compare a.verified_ns b.verified_ns in
  if c <> 0 then c > 0
  else
    let c = Int64.compare a.expires_ns b.expires_ns in
    if c <> 0 then c > 0 else compare a b >= 0

(** The cache contents in canonical (key-sorted) order — the shard
    export the fleet merges at join. *)
let export t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl []
  |> List.sort (fun a b ->
         compare
           (key ~attester_id:a.attester_id ~claim:a.claim ~boot:a.boot)
           (key ~attester_id:b.attester_id ~claim:b.claim ~boot:b.boot))

(** Adopt a peer export: per key, keep the greatest entry under the
    total order above. Expiry is not re-checked here — lookups do
    that — so merging stays a pure lattice join. *)
let merge_into t entries =
  List.iter
    (fun e ->
      let k = key ~attester_id:e.attester_id ~claim:e.claim ~boot:e.boot in
      match Hashtbl.find_opt t.tbl k with
      | Some mine when entry_geq mine e -> ()
      | _ ->
        Metrics.Counter.incr t.merged;
        Hashtbl.replace t.tbl k e)
    entries;
  resized t

(** A canonical digest of the cache contents (key-sorted), for
    byte-identity assertions across federation runs. *)
let digest t =
  let w = Watz_util.Bytesio.Writer.create () in
  List.iter
    (fun e ->
      Watz_util.Bytesio.Writer.bytes w e.attester_id;
      Watz_util.Bytesio.Writer.bytes w e.claim;
      Watz_util.Bytesio.Writer.bytes w e.boot;
      Watz_util.Bytesio.Writer.u64 w e.verified_ns;
      Watz_util.Bytesio.Writer.u64 w e.expires_ns)
    (export t);
  Watz_crypto.Sha256.digest (Watz_util.Bytesio.Writer.contents w)
