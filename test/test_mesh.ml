(* The mesh security-property battery.

   Laws, not examples: a session ticket is redeemable exactly until its
   expiry under exactly the epoch key that minted it, and any flipped
   byte anywhere in a ticket, resume0 frame, resume accept, sub-claim
   or ack must reject; a stolen ticket presented under another identity
   fails the sealed-identity check even when the thief knows the
   resumption secret, and each resume shape gets its exact reason from
   the verifier's own pipeline; the evidence-cache merge is an
   order-free lattice join; a resumed session yields byte-identical
   sub-claim tokens to the full handshake it chains to; and the
   256-session churn storm replays to pinned counters at the CI seed. *)

module C = Watz_crypto
module P = Watz_attest.Protocol
module Service = Watz_attest.Service
module Soc = Watz_tz.Soc
module Net = Watz_tz.Net
module Prng = Watz_util.Prng
module Ticket = Watz_mesh.Ticket
module Resume = Watz_mesh.Resume
module Cache = Watz_mesh.Cache
module Hier = Watz_mesh.Hier
module Mesh_verifier = Watz_mesh.Mesh_verifier
module Metrics = Watz_obs.Metrics
module Mesh_storm = Watz_mesh.Mesh_storm
module Mesh_fleet = Watz_mesh.Mesh_fleet

let case name f = Alcotest.test_case name `Quick f
let seeded name f = Alcotest.test_case name `Quick (Seed_util.replayable name f)
let qcheck = Seed_util.qcheck
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let flip s i x =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
  Bytes.to_string b

(* ------------------------------------------------------------------ *)
(* Fixture: one deterministic minted ticket and its resume0 frame *)

type fixture = {
  master : Ticket.master;
  rms : string;
  attester_id : string;
  claim : string;
  boot : string;
  ticket : string;
  nonce_a : string;
  resume0 : string;
  now : int64;
  ttl : int64;
}

let make_fixture ?(seed = 0x7e51e7L) () =
  let rng = Prng.create seed in
  let random n = Prng.bytes rng n in
  let master = Ticket.make ~seed:(Printf.sprintf "test-stek-%Ld" seed) in
  let rms = random 16 in
  let attester_id = random 32 in
  let claim = random 32 in
  let boot = random 32 in
  let now = 1_000_000_000L in
  let ttl = 30_000_000_000L in
  let ticket = Ticket.mint master ~random ~now_ns:now ~ttl_ns:ttl ~attester_id ~claim ~boot ~rms in
  let nonce_a = random Resume.nonce_len in
  let resume0 = Resume.build_resume0 ~rms ~attester_id ~nonce_a ~ticket in
  { master; rms; attester_id; claim; boot; ticket; nonce_a; resume0; now; ttl }

(* The verifier's own resume0 pipeline before its cache and policy
   checks (those are exercised end-to-end by the storm): parse, redeem,
   sealed-identity check, binding MAC. *)
let resume ?now_ns f frame =
  let now_ns = Option.value now_ns ~default:(Int64.add f.now 1L) in
  Mesh_verifier.redeem_resume0 f.master ~now_ns frame

let verdict = function Ok _ -> "accepted" | Error r -> Resume.reason_to_string r

let check_reason what reason outcome =
  Alcotest.(check string) what (Resume.reason_to_string reason) (verdict outcome)

(* ------------------------------------------------------------------ *)
(* Ticket laws *)

let test_ticket_roundtrip () =
  let f = make_fixture () in
  match Ticket.redeem f.master ~now_ns:(Int64.add f.now 1L) f.ticket with
  | Error r -> Alcotest.failf "genuine ticket rejected: %s" (Resume.reason_to_string r)
  | Ok body ->
    check_bool "attester id sealed" true (String.equal body.Ticket.attester_id f.attester_id);
    check_bool "claim sealed" true (String.equal body.Ticket.claim f.claim);
    check_bool "boot digest sealed" true (String.equal body.Ticket.boot f.boot);
    check_bool "rms sealed" true (String.equal body.Ticket.rms f.rms)

let prop_ticket_expiry =
  QCheck.Test.make ~name:"ticket: live strictly before expiry, dead at and after" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (before, after) ->
      let f = make_fixture () in
      let expires = Int64.add f.now f.ttl in
      let live_at = Int64.sub expires (Int64.of_int (before + 1)) in
      let dead_at = Int64.add expires (Int64.of_int after) in
      let live =
        Int64.compare live_at f.now < 0 (* a huge [before] predates minting: skip *)
        || Result.is_ok (Ticket.redeem f.master ~now_ns:live_at f.ticket)
      in
      live && Ticket.redeem f.master ~now_ns:dead_at f.ticket = Error Resume.Rj_expired)

let prop_ticket_flip =
  QCheck.Test.make ~name:"ticket: any flipped byte rejects" ~count:300
    QCheck.(pair (int_bound (Ticket.wire_len - 1)) (int_range 1 255))
    (fun (i, x) ->
      let f = make_fixture () in
      Result.is_error (Ticket.redeem f.master ~now_ns:(Int64.add f.now 1L) (flip f.ticket i x)))

let test_ticket_rotation () =
  let f = make_fixture () in
  let later = Int64.add f.now 1L in
  let redeem () = Ticket.redeem f.master ~now_ns:later f.ticket in
  Ticket.rotate f.master;
  check_reason "after one rotation" Resume.Rj_rotated (redeem ());
  Ticket.rotate f.master;
  check_reason "after two rotations" Resume.Rj_rotated (redeem ());
  (* a ticket minted under the rotated key redeems *)
  let rng = Prng.create 0xabcdefL in
  let fresh =
    Ticket.mint f.master ~random:(Prng.bytes rng) ~now_ns:f.now ~ttl_ns:f.ttl
      ~attester_id:f.attester_id ~claim:f.claim ~boot:f.boot ~rms:f.rms
  in
  Alcotest.(check string) "post-rotation mint" "accepted"
    (verdict (Ticket.redeem f.master ~now_ns:later fresh))

let foreign_master () = Ticket.make ~seed:"a-different-verifier-instance"

let test_ticket_foreign_master () =
  let f = make_fixture () in
  check_reason "ticket from another master" Resume.Rj_unknown_key
    (Ticket.redeem (foreign_master ()) ~now_ns:(Int64.add f.now 1L) f.ticket)

(* ------------------------------------------------------------------ *)
(* Resume-exchange laws *)

let test_resume_genuine_accepts () =
  let f = make_fixture () in
  Alcotest.(check string) "genuine resume0" "accepted" (verdict (resume f f.resume0))

let prop_resume0_flip =
  QCheck.Test.make ~name:"resume0: any flipped byte rejects" ~count:300
    QCheck.(pair small_nat (int_range 1 255))
    (fun (i0, x) ->
      let f = make_fixture () in
      let i = i0 mod String.length f.resume0 in
      Result.is_error (resume f (flip f.resume0 i x)))

let test_resume_cross_attester_replay () =
  let f = make_fixture () in
  (* The thief holds the genuine ticket AND the resumption secret, but
     presents its own identity: the id sealed in the ticket wins. *)
  let thief = C.Sha256.digest "thief" in
  let frame = Resume.build_resume0 ~rms:f.rms ~attester_id:thief ~nonce_a:f.nonce_a ~ticket:f.ticket in
  check_reason "ticket replayed under a different attester id" Resume.Rj_id_mismatch
    (resume f frame)

let test_resume_wrong_rms_binding () =
  let f = make_fixture () in
  let frame =
    Resume.build_resume0 ~rms:(String.make 16 'x') ~attester_id:f.attester_id ~nonce_a:f.nonce_a
      ~ticket:f.ticket
  in
  check_reason "resume bound under the wrong secret" Resume.Rj_bad_binding (resume f frame)

(* A genuine frame whose ticket has lapsed, or that another master
   minted, gets the reason the attester's recovery depends on. *)
let test_resume_ticket_reasons () =
  let f = make_fixture () in
  check_reason "expired ticket" Resume.Rj_expired
    (resume f ~now_ns:(Int64.add f.now f.ttl) f.resume0);
  check_reason "foreign ticket" Resume.Rj_unknown_key
    (resume { f with master = foreign_master () } f.resume0);
  Ticket.rotate f.master;
  check_reason "rotated ticket" Resume.Rj_rotated (resume f f.resume0)

let prop_accept_flip =
  QCheck.Test.make ~name:"resume accept: opens only byte-identical" ~count:300
    QCheck.(pair small_nat (int_range 1 255))
    (fun (i0, x) ->
      let f = make_fixture () in
      let rng = Prng.create 0x9a9a9aL in
      let nonce_v = Prng.bytes rng Resume.nonce_len in
      let iv = Prng.bytes rng 12 in
      let blob = "resumed secret blob" in
      let accept = Resume.build_accept ~rms:f.rms ~nonce_a:f.nonce_a ~nonce_v ~iv blob in
      let i = i0 mod String.length accept in
      Resume.open_accept ~rms:f.rms ~nonce_a:f.nonce_a accept = Some blob
      && Resume.open_accept ~rms:f.rms ~nonce_a:f.nonce_a (flip accept i x) = None)

(* The wire codes and counter names are a deployed vocabulary: each
   reason keeps its code and its name. *)
let test_reject_codec () =
  Alcotest.(check (list string))
    "names in wire-code order"
    [
      "malformed"; "unknown_key"; "rotated"; "forged"; "expired"; "id_mismatch"; "bad_binding";
      "cache_stale"; "policy";
    ]
    (Array.to_list (Array.map snd Resume.reasons));
  Array.iteri
    (fun code (reason, name) ->
      let frame = Resume.build_reject reason in
      check_int ("code of " ^ name) code (Char.code frame.[4]);
      check_bool ("roundtrip of " ^ name) true (Resume.parse_reject frame = Some reason))
    Resume.reasons;
  check_bool "garbage reject" true (Resume.parse_reject "WZRF" = None);
  check_bool "unknown code" true (Resume.parse_reject "WZRF\xff" = None)

(* ------------------------------------------------------------------ *)
(* Hierarchical sub-claims *)

let prop_subclaim_flip =
  QCheck.Test.make ~name:"sub-claim and ack: any flipped byte rejects" ~count:300
    QCheck.(pair small_nat (int_range 1 255))
    (fun (i0, x) ->
      let f = make_fixture () in
      let k_sub = Hier.derive_key ~rms:f.rms in
      let sub = Hier.make ~k_sub ~name:"module.wasm" ~measurement:(C.Sha256.digest "module") in
      let ack = Hier.ack ~k_sub sub in
      let i = i0 mod String.length sub in
      let j = i0 mod String.length ack in
      Option.is_none (Hier.verify ~k_sub (flip sub i x))
      && not (Hier.check_ack ~k_sub ~subclaim:sub (flip ack j x))
      && Option.is_some (Hier.verify ~k_sub sub)
      && Hier.check_ack ~k_sub ~subclaim:sub ack)

(* A full msg0–msg3 handshake and a ticket resumption chained to it
   derive the same resumption master secret on both ends — so the
   sub-claim tokens a resumed session emits are byte-identical to the
   ones the original full handshake would have emitted. *)
let test_resumed_subclaims_byte_identical () =
  let soc = Soc.manufacture ~seed:"mesh-test-board" () in
  (match Soc.boot soc with Ok _ -> () | Error _ -> Alcotest.fail "board failed to boot");
  let service = Service.install (Soc.optee soc) in
  let claim = C.Sha256.digest "mesh-test-app" in
  let policy =
    P.Verifier.make_policy ~identity_seed:"mesh-test-verifier"
      ~endorsed_keys:[ Service.public_key service ]
      ~reference_claims:[ claim ] ~secret_blob:"mesh test secret" ()
  in
  let rng = Prng.create 0x5ca1ab1eL in
  let random n = Prng.bytes rng n in
  let attester = P.Attester.create ~random ~expected_verifier:policy.P.Verifier.identity_pub () in
  let ok what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s failed: %s" what (Format.asprintf "%a" P.pp_error e)
  in
  let vsession, m1 = ok "msg0" (P.Verifier.handle_msg0 policy ~random (P.Attester.msg0 attester)) in
  let anchor = ok "msg1" (P.Attester.handle_msg1 attester m1) in
  let evidence = Service.request_issue (Soc.optee soc) ~anchor ~claim in
  let m2 = ok "msg2 build" (P.Attester.msg2 attester ~evidence) in
  let m3 = ok "msg2" (P.Verifier.handle_msg2 vsession ~random m2) in
  let _blob = ok "msg3" (P.Attester.handle_msg3 attester m3) in
  let rms_a =
    match P.Attester.resumption_secret attester with
    | Some s -> s
    | None -> Alcotest.fail "attester has no resumption secret after msg3"
  in
  let rms_v = P.Verifier.resumption_secret vsession in
  check_bool "both ends derive the same rms" true (String.equal rms_a rms_v);
  (* verifier mints a ticket for the session; the attester resumes *)
  let f = make_fixture () in
  let attester_id = C.Sha256.digest "mesh-test-attester-id" in
  let boot = C.Sha256.digest "mesh-test-boot" in
  let ticket =
    Ticket.mint f.master ~random ~now_ns:f.now ~ttl_ns:f.ttl ~attester_id ~claim ~boot ~rms:rms_v
  in
  let nonce_a = random Resume.nonce_len in
  let resume0 = Resume.build_resume0 ~rms:rms_a ~attester_id ~nonce_a ~ticket in
  let body =
    match resume f resume0 with
    | Ok (_, b) -> b
    | Error _ -> Alcotest.fail "resumption of a genuine session rejected"
  in
  (* sub-claims from the full-handshake rms and the resumed rms *)
  let measurement = C.Sha256.digest "loaded-module" in
  let sub_full = Hier.make ~k_sub:(Hier.derive_key ~rms:rms_a) ~name:"m" ~measurement in
  let sub_resumed =
    Hier.make ~k_sub:(Hier.derive_key ~rms:body.Ticket.rms) ~name:"m" ~measurement
  in
  check_bool "resumed sub-claim byte-identical to full-handshake sub-claim" true
    (String.equal sub_full sub_resumed);
  match Hier.verify ~k_sub:(Hier.derive_key ~rms:rms_v) sub_resumed with
  | Some v -> check_bool "measurement carried" true (String.equal v.Hier.measurement measurement)
  | None -> Alcotest.fail "verifier rejected the resumed sub-claim"

(* ------------------------------------------------------------------ *)
(* Evidence-cache laws *)

let tag32 c = String.make 32 (Char.chr (Char.code 'A' + (c mod 8)))

let entry_of (a, c, b, v, e) =
  {
    Cache.attester_id = tag32 a;
    claim = tag32 c;
    boot = tag32 b;
    verified_ns = Int64.of_int v;
    expires_ns = Int64.of_int (v + e + 1);
  }

let entries_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 24)
      (tup5 (int_bound 3) (int_bound 3) (int_bound 3) (int_bound 1000) (int_bound 1000)))

let digest_after seeds =
  let c = Cache.create (Metrics.create ()) ~ttl_ns:1_000L in
  List.iter (fun entries -> Cache.merge_into c (List.map entry_of entries)) seeds;
  Cache.digest c

let prop_cache_merge_order_free =
  QCheck.Test.make ~name:"cache: merge commutative, associative, idempotent" ~count:200
    QCheck.(triple entries_gen entries_gen entries_gen)
    (fun (xs, ys, zs) ->
      String.equal (digest_after [ xs; ys; zs ]) (digest_after [ zs; ys; xs ])
      && String.equal (digest_after [ xs; ys; zs ]) (digest_after [ ys; xs; zs; xs; ys ])
      && String.equal (digest_after [ xs; xs ]) (digest_after [ xs ]))

let prop_cache_export_fixpoint =
  QCheck.Test.make ~name:"cache: merging an export reproduces the digest" ~count:200 entries_gen
    (fun xs ->
      let c = Cache.create (Metrics.create ()) ~ttl_ns:1_000L in
      Cache.merge_into c (List.map entry_of xs);
      let c' = Cache.create (Metrics.create ()) ~ttl_ns:1_000L in
      Cache.merge_into c' (Cache.export c);
      String.equal (Cache.digest c) (Cache.digest c'))

let test_cache_expiry_and_invalidation () =
  let metrics = Metrics.create () in
  let c = Cache.create metrics ~ttl_ns:100L in
  let a1 = tag32 0 and a2 = tag32 1 in
  let cl1 = tag32 2 and cl2 = tag32 3 in
  let boot = tag32 4 in
  Cache.store c ~now_ns:0L ~attester_id:a1 ~claim:cl1 ~boot;
  Cache.store c ~now_ns:0L ~attester_id:a1 ~claim:cl2 ~boot;
  Cache.store c ~now_ns:0L ~attester_id:a2 ~claim:cl1 ~boot;
  check_bool "hit while live" true (Cache.lookup c ~now_ns:99L ~attester_id:a1 ~claim:cl1 ~boot);
  check_bool "dead at expiry" false (Cache.lookup c ~now_ns:100L ~attester_id:a1 ~claim:cl1 ~boot);
  check_int "stale entry dropped on sight" 2 (Cache.size c);
  check_int "key rotation drops the attester's entries" 1 (Cache.invalidate_attester c a1);
  check_bool "other attester untouched" true
    (Cache.lookup c ~now_ns:50L ~attester_id:a2 ~claim:cl1 ~boot);
  check_int "module update drops the claim's entries" 1 (Cache.invalidate_claim c cl1);
  check_int "cache empty" 0 (Cache.size c);
  (* every count lands in the registry the cache was created with *)
  Alcotest.(check (list (pair string int)))
    "cache counters"
    [
      ("cache.expired", 1); ("cache.hits", 2); ("cache.invalidated", 2); ("cache.merged", 0);
      ("cache.misses", 1); ("cache.stores", 3);
    ]
    (Metrics.counter_list metrics);
  check_int "size gauge" 0 (Metrics.Gauge.get (Metrics.gauge metrics "cache.size"))

(* ------------------------------------------------------------------ *)
(* Storm and fleet regressions *)

(* The 256-session churn storm at the pinned seed: every session must
   complete (bounded re-attestation absorbs churn-induced aborts), no
   stray frames or violations, and the headline counters replay
   exactly — a drift here means the mesh state machines changed
   behaviour, not just timing. *)
let test_storm_churn_regression () =
  let config =
    { Mesh_storm.default_config with Mesh_storm.sessions = 256; seed = 7L; profile = Net.lossy }
  in
  let r = Mesh_storm.run ~config () in
  let counter = Mesh_storm.counter r in
  check_int "launched" 256 r.Mesh_storm.launched;
  check_int "aborted" 0 r.Mesh_storm.aborted;
  check_int "completed via resume" 35 r.Mesh_storm.completed_resumed;
  check_int "completed via full handshake" 221 r.Mesh_storm.completed_full;
  check_int "fallbacks" 112 r.Mesh_storm.fallbacks;
  check_int "cache hits" 61 (counter "cache.hits");
  check_int "cache misses" 14 (counter "cache.misses");
  check_int "tickets minted" 221 (counter "tickets_minted");
  check_int "stray frames" 0 (counter "stray_after_complete");
  check_int "frame violations" 0 (counter "frame_violations");
  (* the forged-acceptance oracle: more attester-side resumes than
     server-side acceptances would mean a forged accept got through *)
  check_bool "no forged resume acceptance" true
    (r.Mesh_storm.completed_resumed
    <= counter "resumes_accepted" + counter "retransmits_answered");
  (* Counter for counter: retries, ticks, every injected fault and every
     server-side decision of the reference run
     (`watz_cli attest-storm --resume --churn --sessions 256 --seed 7`). *)
  check_int "retries" 1202 r.Mesh_storm.retries;
  check_int "ticks" 98 r.Mesh_storm.ticks;
  Alcotest.(check (list (pair string int)))
    "faults"
    [ ("chunk", 435); ("delay", 962); ("drop", 423); ("dup", 215); ("reorder", 307) ]
    r.Mesh_storm.faults;
  List.iter
    (fun (name, v) -> check_int ("server " ^ name) v (counter name))
    [
      ("resume_attempts", 147);
      ("resume_fallbacks", 90);
      ("resume_rejected.cache_stale", 14);
      ("resume_rejected.id_mismatch", 4);
      ("resume_rejected.policy", 4);
      ("resume_rejected.rotated", 68);
      ("resumes_accepted", 57);
      ("retransmits_answered", 1193);
      ("sessions_aborted", 11);
      ("sessions_closed", 275);
      ("sessions_started", 379);
      ("stek_rotations", 6);
      ("subclaims_accepted", 512);
      ("tickets_minted", 221);
    ]

let test_fleet_merge_order_free () =
  let config =
    {
      Mesh_fleet.default_config with
      Mesh_fleet.shards = 2;
      sessions_per_shard = 8;
      population_per_shard = 4;
      profile = Net.perfect;
    }
  in
  let r = Mesh_fleet.run ~config () in
  check_bool "merged cache digest independent of chunk merge order" true
    (String.equal r.Mesh_fleet.merge_digest r.Mesh_fleet.merge_digest_reversed);
  check_bool "wave 2 resumes across shards" true (r.Mesh_fleet.cross_resumes > 0);
  Array.iter
    (fun (o : Mesh_fleet.shard_outcome) ->
      check_int "wave1 aborted" 0 o.Mesh_fleet.wave1.Mesh_storm.aborted;
      check_int "wave2 aborted" 0 o.Mesh_fleet.wave2.Mesh_storm.aborted)
    r.Mesh_fleet.outcomes

(* Federated shards seal tickets under one shared STEK, so a (key_id,
   epoch, IV) prefix seen twice is one key and IV over two GCM bodies,
   resumption secrets included. Each shard's verifier must draw its IVs
   from a stream of its own. *)
let test_fleet_ticket_ivs_distinct () =
  let cfg = Mesh_fleet.default_config in
  let stek_seed = Mesh_fleet.fleet_stek cfg in
  let prefixes =
    List.init cfg.Mesh_fleet.shards (fun k ->
        let r = Mesh_storm.run ~config:(Mesh_fleet.shard_storm_config cfg ~wave:0 k) ~stek_seed () in
        Array.to_list r.Mesh_storm.identities
        |> List.filter_map (fun (id : Watz_mesh.Identity.t) -> id.Watz_mesh.Identity.ticket))
    |> List.concat
    |> List.map (fun t -> String.sub t 0 (Ticket.key_id_len + 4 + Ticket.iv_len))
  in
  check_bool "every shard's population holds tickets" true (List.length prefixes >= 16);
  check_int "distinct (key_id, epoch, IV) prefixes" (List.length prefixes)
    (List.length (List.sort_uniq String.compare prefixes))

let test_verifier_streams_differ () =
  let soc = Soc.manufacture ~seed:"two-verifiers" () in
  let start port identity_seed =
    let policy =
      P.Verifier.make_policy ~identity_seed ~endorsed_keys:[] ~reference_claims:[] ~secret_blob:""
        ()
    in
    Watz.Verifier_app.start soc ~port ~policy
  in
  let a = start 7401 "verifier-a" and b = start 7402 "verifier-b" in
  check_bool "different identities, different first 32 bytes" false
    (String.equal (Watz.Verifier_app.random a 32) (Watz.Verifier_app.random b 32))

let suite =
  [
    ( "mesh.ticket",
      [
        case "mint/redeem roundtrip seals the session" test_ticket_roundtrip;
        case "rotation invalidates, re-mint recovers" test_ticket_rotation;
        case "foreign master: unknown key" test_ticket_foreign_master;
        qcheck prop_ticket_expiry;
        qcheck prop_ticket_flip;
        case "federated shards never repeat a ticket IV" test_fleet_ticket_ivs_distinct;
        case "verifier identities seed distinct streams" test_verifier_streams_differ;
      ] );
    ( "mesh.resume",
      [
        case "genuine resume0 accepted" test_resume_genuine_accepts;
        case "cross-attester replay rejected" test_resume_cross_attester_replay;
        case "wrong-rms binding rejected" test_resume_wrong_rms_binding;
        case "reject codec roundtrips" test_reject_codec;
        qcheck prop_resume0_flip;
        qcheck prop_accept_flip;
        case "expired, rotated, foreign tickets: exact reasons" test_resume_ticket_reasons;
      ] );
    ( "mesh.hier",
      [
        case "resumed sub-claims byte-identical to full" test_resumed_subclaims_byte_identical;
        qcheck prop_subclaim_flip;
      ] );
    ( "mesh.cache",
      [
        case "expiry and targeted invalidation" test_cache_expiry_and_invalidation;
        qcheck prop_cache_merge_order_free;
        qcheck prop_cache_export_fixpoint;
      ] );
    ( "mesh.storm",
      [
        seeded "256-session churn storm replays pinned counters" (fun _ ->
            test_storm_churn_regression ());
        case "federated merge is order-free" test_fleet_merge_order_free;
      ] );
  ]
