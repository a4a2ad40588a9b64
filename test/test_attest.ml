(* Attestation tests: evidence codec and signing, the kernel service,
   the Table II protocol happy path, and one test per verifier check /
   attacker move (the threat-model hooks of DESIGN.md §5). *)

open Watz_attest
module P = Protocol

let booted_soc seed =
  let soc = Watz_tz.Soc.manufacture ~seed () in
  (match Watz_tz.Soc.boot soc with Ok _ -> () | Error _ -> assert false);
  soc

let test_rng = Watz_util.Prng.create 0xabcdefL
let random n = Watz_util.Prng.bytes test_rng n
let claim_a = Watz_crypto.Sha256.digest "app-bytecode-A"
let claim_b = Watz_crypto.Sha256.digest "app-bytecode-B"

let service_for soc = Service.install (Watz_tz.Soc.optee soc)

let policy_for ?(claims = [ claim_a ]) ?accept_version service =
  P.Verifier.make_policy ~identity_seed:"relying-party"
    ~endorsed_keys:[ Service.public_key service ]
    ~reference_claims:claims ?accept_version ~secret_blob:"the secret dataset" ()

let issue_with service ~claim ~anchor = Evidence.encode (Service.issue_evidence service ~anchor ~claim)

(* ------------------------------------------------------------------ *)
(* Evidence *)

let test_evidence_roundtrip () =
  let soc = booted_soc "dev-a" in
  let service = service_for soc in
  let anchor = Watz_crypto.Sha256.digest "anchor" in
  let signed = Service.issue_evidence service ~anchor ~claim:claim_a in
  let decoded = Evidence.decode (Evidence.encode signed) in
  Alcotest.(check string) "anchor" anchor decoded.Evidence.body.Evidence.anchor;
  Alcotest.(check string) "claim" claim_a decoded.Evidence.body.Evidence.claim;
  Alcotest.(check bool) "signature verifies" true (Evidence.verify_signature decoded)

let test_evidence_tamper_detected () =
  let soc = booted_soc "dev-a" in
  let service = service_for soc in
  let anchor = Watz_crypto.Sha256.digest "anchor" in
  let signed = Service.issue_evidence service ~anchor ~claim:claim_a in
  (* Swap the claim after signing. *)
  let forged = { signed with Evidence.body = { signed.Evidence.body with Evidence.claim = claim_b } } in
  Alcotest.(check bool) "forgery rejected" false (Evidence.verify_signature forged)

let test_evidence_decode_rejects_garbage () =
  List.iter
    (fun raw ->
      match Evidence.decode raw with
      | _ -> Alcotest.failf "garbage accepted (%d bytes)" (String.length raw)
      | exception Evidence.Malformed _ -> ())
    [ ""; "xx"; String.make 64 'a'; String.make 300 '\x01' ]

let test_attestation_keys_deterministic_per_device () =
  let soc = booted_soc "dev-a" in
  let s1 = Service.create (Watz_tz.Soc.optee soc) in
  (match Watz_tz.Soc.boot soc with Ok _ -> () | Error _ -> assert false);
  let s2 = Service.create (Watz_tz.Soc.optee soc) in
  Alcotest.(check bool) "same device, same key across boots" true
    (Watz_crypto.P256.equal (Service.public_key s1) (Service.public_key s2));
  let other = booted_soc "dev-b" in
  let s3 = Service.create (Watz_tz.Soc.optee other) in
  Alcotest.(check bool) "different device, different key" false
    (Watz_crypto.P256.equal (Service.public_key s1) (Service.public_key s3))

let test_kernel_service_plumbing () =
  let soc = booted_soc "dev-a" in
  let service = service_for soc in
  let os = Watz_tz.Soc.optee soc in
  let pub = Service.request_pubkey os in
  Alcotest.(check bool) "pubkey via syscall" true
    (Watz_crypto.P256.equal pub (Service.public_key service));
  let anchor = Watz_crypto.Sha256.digest "a" in
  let ev = Evidence.decode (Service.request_issue os ~anchor ~claim:claim_a) in
  Alcotest.(check bool) "issued via syscall verifies" true (Evidence.verify_signature ev)

(* ------------------------------------------------------------------ *)
(* Protocol: happy path *)

let run_protocol ?(claims = [ claim_a ]) ?accept_version ?(claim = claim_a) soc =
  let service = service_for soc in
  let policy = policy_for ~claims ?accept_version service in
  P.run_local ~random ~policy
    ~issue:(fun ~anchor -> issue_with service ~claim ~anchor)
    ~expected_verifier:policy.P.Verifier.identity_pub ()

(* The handshake's own spans on a wall-clock tracer carry Table III's
   shape: key generation plus asymmetric crypto outweigh the rest. Each
   part is the median of 5 handshakes, so one preemption that lands in
   the rest (a 4 ms time slice on a loaded host) cannot decide it. *)
let test_protocol_happy_path () =
  let service = service_for (booted_soc "dev-a") in
  let policy = policy_for service in
  let handshake () =
    let trace =
      Watz_obs.Trace.create ~now:(fun () -> Int64.of_float (Unix.gettimeofday () *. 1e9)) ()
    in
    match
      P.run_local ~trace ~random ~policy
        ~issue:(fun ~anchor -> issue_with service ~claim:claim_a ~anchor)
        ~expected_verifier:policy.P.Verifier.identity_pub ()
    with
    | Ok result ->
      Alcotest.(check string) "blob delivered" "the secret dataset" result.P.blob;
      P.table3_split (Watz_obs.Trace.events trace)
    | Error e -> Alcotest.failf "protocol failed: %a" P.pp_error e
  in
  let splits = List.init 5 (fun _ -> handshake ()) in
  let median pick = List.nth (List.sort compare (List.map pick splits)) 2 in
  let keygen = median (fun (k, _, _) -> k) and asym = median (fun (_, a, _) -> a) in
  let rest = median (fun (_, _, r) -> r) in
  Alcotest.(check bool)
    (Printf.sprintf "keygen %d + asym %d ns > rest %d ns" keygen asym rest)
    true
    (keygen + asym > rest && List.for_all (fun (_, _, r) -> r >= 0) splits)

let test_protocol_sessions_fresh () =
  (* Two runs produce different evidence anchors (ECDHE freshness). *)
  let soc = booted_soc "dev-a" in
  let service = service_for soc in
  let policy = policy_for service in
  let run () =
    P.run_local ~random ~policy
      ~issue:(fun ~anchor -> issue_with service ~claim:claim_a ~anchor)
      ~expected_verifier:policy.P.Verifier.identity_pub ()
  in
  match (run (), run ()) with
  | Ok r1, Ok r2 ->
    Alcotest.(check bool) "anchors differ" false
      (String.equal r1.P.evidence.Evidence.body.Evidence.anchor
         r2.P.evidence.Evidence.body.Evidence.anchor)
  | _ -> Alcotest.fail "protocol failed"

(* ------------------------------------------------------------------ *)
(* Protocol: each verifier/attester check *)

let test_unknown_measurement_rejected () =
  let soc = booted_soc "dev-a" in
  match run_protocol ~claims:[ claim_b ] soc with
  | Ok _ -> Alcotest.fail "wrong measurement accepted"
  | Error P.Unknown_measurement -> ()
  | Error e -> Alcotest.failf "wrong error: %a" P.pp_error e

let test_unknown_device_rejected () =
  (* Evidence from a device whose key is not endorsed. *)
  let soc_a = booted_soc "dev-a" in
  let soc_b = booted_soc "dev-b" in
  let service_a = service_for soc_a in
  let service_b = service_for soc_b in
  let policy = policy_for service_a (* endorses only dev-a *) in
  let result =
    P.run_local ~random ~policy
      ~issue:(fun ~anchor -> issue_with service_b ~claim:claim_a ~anchor)
      ~expected_verifier:policy.P.Verifier.identity_pub ()
  in
  ignore soc_b;
  match result with
  | Ok _ -> Alcotest.fail "unendorsed device accepted"
  | Error P.Unknown_device -> ()
  | Error e -> Alcotest.failf "wrong error: %a" P.pp_error e

let test_outdated_version_rejected () =
  let soc = booted_soc "dev-a" in
  match
    run_protocol ~accept_version:(fun version -> String.equal version "watz-2.0") soc
  with
  | Ok _ -> Alcotest.fail "outdated runtime accepted"
  | Error (P.Outdated_version _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" P.pp_error e

let test_wrong_verifier_identity_rejected () =
  (* The app's hardcoded key differs from the live verifier: masquerade. *)
  let soc = booted_soc "dev-a" in
  let service = service_for soc in
  let policy = policy_for service in
  let _, impostor = Watz_crypto.Ecdsa.keypair_of_seed "impostor" in
  let result =
    P.run_local ~random ~policy
      ~issue:(fun ~anchor -> issue_with service ~claim:claim_a ~anchor)
      ~expected_verifier:impostor ()
  in
  match result with
  | Ok _ -> Alcotest.fail "impostor verifier accepted"
  | Error P.Unexpected_verifier_identity -> ()
  | Error e -> Alcotest.failf "wrong error: %a" P.pp_error e

(* Byte-level attacker: corrupt each message in flight. *)
let flip_byte s idx = String.mapi (fun i c -> if i = idx then Char.chr (Char.code c lxor 0x5a) else c) s

let manual_run ~corrupt_msg1 ~corrupt_msg2 ~corrupt_msg3 soc =
  let service = service_for soc in
  let policy = policy_for service in
  let attester = P.Attester.create ~random ~expected_verifier:policy.P.Verifier.identity_pub () in
  let m0 = P.Attester.msg0 attester in
  match P.Verifier.handle_msg0 policy ~random m0 with
  | Error e -> Error e
  | Ok (vsession, m1) -> (
    let m1 = if corrupt_msg1 then flip_byte m1 40 else m1 in
    match P.Attester.handle_msg1 attester m1 with
    | Error e -> Error e
    | Ok anchor -> (
      let evidence = issue_with service ~claim:claim_a ~anchor in
      match P.Attester.msg2 attester ~evidence with
      | Error e -> Error e
      | Ok m2 -> (
        let m2 = if corrupt_msg2 then flip_byte m2 80 else m2 in
        match P.Verifier.handle_msg2 vsession ~random m2 with
        | Error e -> Error e
        | Ok m3 ->
          let m3 = if corrupt_msg3 then flip_byte m3 20 else m3 in
          P.Attester.handle_msg3 attester m3)))

let test_corrupted_messages_rejected () =
  let check_fail name result =
    match result with
    | Ok _ -> Alcotest.failf "%s: corruption accepted" name
    | Error _ -> ()
  in
  check_fail "msg1" (manual_run ~corrupt_msg1:true ~corrupt_msg2:false ~corrupt_msg3:false (booted_soc "d1"));
  check_fail "msg2" (manual_run ~corrupt_msg1:false ~corrupt_msg2:true ~corrupt_msg3:false (booted_soc "d2"));
  check_fail "msg3" (manual_run ~corrupt_msg1:false ~corrupt_msg2:false ~corrupt_msg3:true (booted_soc "d3"));
  match manual_run ~corrupt_msg1:false ~corrupt_msg2:false ~corrupt_msg3:false (booted_soc "d4") with
  | Ok blob -> Alcotest.(check string) "clean run still works" "the secret dataset" blob
  | Error e -> Alcotest.failf "clean run failed: %a" P.pp_error e

let test_replayed_evidence_rejected () =
  (* Evidence from session 1 (bound to its anchor) replayed in session 2. *)
  let soc = booted_soc "dev-a" in
  let service = service_for soc in
  let policy = policy_for service in
  let stale = ref None in
  (match
     P.run_local ~random ~policy
       ~issue:(fun ~anchor ->
         let e = issue_with service ~claim:claim_a ~anchor in
         stale := Some e;
         e)
       ~expected_verifier:policy.P.Verifier.identity_pub ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup run failed: %a" P.pp_error e);
  let stale_evidence = Option.get !stale in
  let result =
    P.run_local ~random ~policy
      ~issue:(fun ~anchor:_ -> stale_evidence)
      ~expected_verifier:policy.P.Verifier.identity_pub ()
  in
  match result with
  | Ok _ -> Alcotest.fail "replayed evidence accepted"
  | Error P.Anchor_mismatch -> ()
  | Error e -> Alcotest.failf "wrong error: %a" P.pp_error e

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "attest.evidence",
      [
        case "roundtrip + signature" test_evidence_roundtrip;
        case "tamper detected" test_evidence_tamper_detected;
        case "decode rejects garbage" test_evidence_decode_rejects_garbage;
        case "keys deterministic per device" test_attestation_keys_deterministic_per_device;
        case "kernel service plumbing" test_kernel_service_plumbing;
      ] );
    ( "attest.protocol",
      [
        case "happy path" test_protocol_happy_path;
        case "sessions are fresh" test_protocol_sessions_fresh;
        case "unknown measurement rejected" test_unknown_measurement_rejected;
        case "unknown device rejected" test_unknown_device_rejected;
        case "outdated version rejected" test_outdated_version_rejected;
        case "wrong verifier identity rejected" test_wrong_verifier_identity_rejected;
        case "corrupted messages rejected" test_corrupted_messages_rejected;
        case "replayed evidence rejected" test_replayed_evidence_rejected;
      ] );
  ]
