(** Grammar-aware fuzzing of the attestation protocol, the simulated
    transport, and the secure-boot chain.

    Three invariant families, all typed-outcome-or-finding:

    - {b handler level}: capture a legitimate msg0–msg3 exchange, then
      feed a mutated copy of one message into the corresponding
      handler. The handler must return [Ok]/[Error] — any escaping
      exception is a crash finding. Acceptance of a mutant that is not
      byte-identical to the genuine message is a forgery finding
      (msg1/msg2/msg3 are fully covered by signature/MAC/GCM tag). A
      rejected mutant must not wedge the verifier: the genuine msg2
      must still be accepted afterwards.

    - {b transport level}: a full attester/verifier session over the
      fault-injecting {!Watz_tz.Net} with an active MITM rewriting
      frames. The session must reach a typed outcome (or still be
      politely [Pending] at the tick cap) without ever raising; when it
      completes, the delivered blob must be the policy's secret
      (authenticated encryption means tampering cannot change it).

    - {b boot chain}: mutate stage images (payload/name/signature bytes,
      dropped or duplicated stages). {!Watz_tz.Boot.verify} must return
      a typed verdict, and may only accept a chain byte-identical to
      the genuine one — anything else accepted is a signature-check
      bypass.

    - {b mesh resumption}: mint a legitimate session ticket and
      resume0 frame, then mutate the ticket, the frame, the resume
      accept or a sub-claim. A mutant must never resume (or verify)
      unless byte-identical to the genuine bytes; expired and
      key-rotated tickets must reject with exactly their taxonomy
      reason; a stolen ticket presented under another attester id must
      fail the sealed-identity check even when the thief knows the
      resumption secret, and one presented without that secret must
      fail the binding MAC. The verdicts are the verifier's own
      ({!Watz_mesh.Mesh_verifier.redeem_resume0}). *)

module Prng = Watz_util.Prng
module P = Watz_attest.Protocol
module Service = Watz_attest.Service
module Soc = Watz_tz.Soc
module Net = Watz_tz.Net
module Boot = Watz_tz.Boot

(* ------------------------------------------------------------------ *)
(* Handler-level message fuzzing *)

type ctx = {
  soc : Soc.t;
  service : Service.t;
  policy : P.Verifier.policy;
  claim : string;
}

let make_ctx seed =
  let soc = Soc.manufacture ~seed:(Printf.sprintf "fuzz-board-%Ld" seed) () in
  (match Soc.boot soc with Ok _ -> () | Error _ -> failwith "fuzz board failed to boot");
  let service = Service.install (Soc.optee soc) in
  let claim = Watz_crypto.Sha256.digest "fuzzed-application" in
  let policy =
    P.Verifier.make_policy ~identity_seed:"fuzz-relying-party"
      ~endorsed_keys:[ Service.public_key service ]
      ~reference_claims:[ claim ] ~secret_blob:"fuzz secret blob" ()
  in
  { soc; service; policy; claim }

let issue ctx ~anchor = Service.request_issue (Soc.optee ctx.soc) ~anchor ~claim:ctx.claim

(* Run one legitimate exchange, returning the messages and the live
   sessions parked right before each handler. *)
let err_to_string e = Format.asprintf "%a" P.pp_error e

let message_round ctx rng : (unit, string) result =
  let random n = Prng.bytes rng n in
  let attester = P.Attester.create ~random ~expected_verifier:ctx.policy.P.Verifier.identity_pub () in
  let m0 = P.Attester.msg0 attester in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match P.Verifier.handle_msg0 ctx.policy ~random m0 with
  | Error e -> fail "legit msg0 rejected: %s" (err_to_string e)
  | Ok (vsession, m1) -> (
    let which = Prng.int rng 4 in
    (* target msg0: any bytes must produce a typed verdict *)
    if which = 0 then begin
      let m0' = Mutate.mutate rng m0 in
      match P.Verifier.handle_msg0 ctx.policy ~random m0' with
      | Ok _ | Error _ -> Ok () (* a valid mutated point is a fresh session: fine *)
      | exception e -> fail "verifier crashed on mutated msg0: %s" (Printexc.to_string e)
    end
    else if which = 1 then begin
      (* target msg1 *)
      let m1' = Mutate.mutate rng m1 in
      match P.Attester.handle_msg1 attester m1' with
      | exception e -> fail "attester crashed on mutated msg1: %s" (Printexc.to_string e)
      | Ok _ when not (String.equal m1' m1) ->
        fail "attester accepted a forged msg1 (%d bytes)" (String.length m1')
      | Ok _ | Error _ -> Ok ()
    end
    else
      match P.Attester.handle_msg1 attester m1 with
      | Error e -> fail "legit msg1 rejected: %s" (err_to_string e)
      | Ok anchor -> (
        let evidence = issue ctx ~anchor in
        match P.Attester.msg2 attester ~evidence with
        | Error e -> fail "legit msg2 build failed: %s" (err_to_string e)
        | Ok m2 ->
          if which = 2 then begin
            (* target msg2: reject-or-identical, and no wedge *)
            let m2' = Mutate.mutate rng m2 in
            match P.Verifier.handle_msg2 vsession ~random m2' with
            | exception e -> fail "verifier crashed on mutated msg2: %s" (Printexc.to_string e)
            | Ok _ when not (String.equal m2' m2) ->
              fail "verifier accepted a forged msg2 (%d bytes)" (String.length m2')
            | Ok _ -> Ok ()
            | Error _ -> (
              (* the rejection must not have corrupted session state *)
              match P.Verifier.handle_msg2 vsession ~random m2 with
              | Ok _ -> Ok ()
              | Error e ->
                fail "verifier wedged: genuine msg2 rejected after mutant: %s" (err_to_string e)
              | exception e ->
                fail "verifier crashed on genuine msg2 after mutant: %s" (Printexc.to_string e))
          end
          else begin
            (* target msg3 *)
            match P.Verifier.handle_msg2 vsession ~random m2 with
            | Error e -> fail "legit msg2 rejected: %s" (err_to_string e)
            | Ok m3 -> (
              let m3' = Mutate.mutate rng m3 in
              match P.Attester.handle_msg3 attester m3' with
              | exception e ->
                fail "attester crashed on mutated msg3: %s" (Printexc.to_string e)
              | Ok _ when not (String.equal m3' m3) ->
                fail "attester accepted a forged msg3 (%d bytes)" (String.length m3')
              | Ok _ | Error _ -> Ok ())
          end))

(* ------------------------------------------------------------------ *)
(* Transport-level session fuzzing (MITM + loss/corruption) *)

let net_round seed rng : (unit, string) result =
  let soc = Soc.manufacture ~seed:(Printf.sprintf "mitm-board-%Ld" seed) () in
  (match Soc.boot soc with Ok _ -> () | Error _ -> failwith "fuzz board failed to boot");
  let os = Soc.optee soc in
  let service = Service.install os in
  let claim = Watz_crypto.Sha256.digest "fuzzed-application" in
  let secret = "fuzz transport secret" in
  let policy =
    P.Verifier.make_policy ~identity_seed:"fuzz-relying-party"
      ~endorsed_keys:[ Service.public_key service ]
      ~reference_claims:[ claim ] ~secret_blob:secret ()
  in
  (* MITM rewrites a fraction of frames with the byte mutator; the rest
     of the profile adds loss, duplication and corruption. *)
  let mitm_rng = Prng.create (Int64.logxor seed 0x717171L) in
  let mitm data = if Prng.int mitm_rng 4 = 0 then Mutate.mutate mitm_rng data else data in
  let profile =
    { Net.lossy with Net.corrupt_p = 0.05; Net.truncate_close_p = 0.01; Net.mitm = Some mitm }
  in
  Net.configure soc.Soc.net ~seed ~profile;
  let port = 7007 in
  try
    let server = Watz.Verifier_app.start soc ~port ~policy in
    let issue ~anchor = Service.request_issue os ~anchor ~claim in
    let a =
      Watz.Attester_app.start ~sid:1 soc ~port
        ~random:(Prng.bytes rng)
        ~expected_verifier:policy.P.Verifier.identity_pub ~issue
    in
    let ticks = ref 0 in
    while Watz.Attester_app.outcome a = Watz.Attester_app.Pending && !ticks < 20_000 do
      incr ticks;
      Net.tick soc.Soc.net;
      Watz.Verifier_app.step server;
      Watz.Attester_app.step a;
      Watz_tz.Simclock.advance soc.Soc.clock 1_000_000
    done;
    match Watz.Attester_app.outcome a with
    | Watz.Attester_app.Done blob when not (String.equal blob secret) ->
      Error (Printf.sprintf "MITM session delivered a wrong blob (%d bytes)" (String.length blob))
    | Watz.Attester_app.Done _ | Watz.Attester_app.Aborted _ | Watz.Attester_app.Pending ->
      (* Pending at the cap is allowed under active tampering: the
         attester is still politely retrying, not wedged. *)
      Ok ()
  with e -> Error ("transport session crashed: " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Boot-chain image fuzzing *)

let chain_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Boot.image) (y : Boot.image) ->
         String.equal x.Boot.img_name y.Boot.img_name
         && String.equal x.Boot.img_payload y.Boot.img_payload
         && String.equal x.Boot.img_signature y.Boot.img_signature)
       a b

let mutate_chain rng chain =
  let mutate_image (img : Boot.image) =
    match Prng.int rng 3 with
    | 0 -> { img with Boot.img_payload = Mutate.mutate rng img.Boot.img_payload }
    | 1 -> { img with Boot.img_signature = Mutate.mutate rng img.Boot.img_signature }
    | _ -> { img with Boot.img_name = Mutate.mutate rng img.Boot.img_name }
  in
  match Prng.int rng 5 with
  | 0 -> ( (* drop a stage *)
    match chain with
    | [] -> chain
    | _ ->
      let i = Prng.int rng (List.length chain) in
      List.filteri (fun j _ -> j <> i) chain)
  | 1 -> ( (* duplicate a stage *)
    match chain with
    | [] -> chain
    | _ ->
      let i = Prng.int rng (List.length chain) in
      let img = List.nth chain i in
      List.concat_map (fun x -> if x == img then [ x; x ] else [ x ]) chain)
  | 2 -> List.rev chain
  | _ -> (
    match chain with
    | [] -> chain
    | _ ->
      let i = Prng.int rng (List.length chain) in
      List.mapi (fun j img -> if j = i then mutate_image img else img) chain)

let boot_round seed rng : (unit, string) result =
  let vk = Boot.vendor_key_of_seed (Printf.sprintf "fuzz-vendor-%Ld" seed) in
  let fuses = Watz_tz.Fuses.blank () in
  Watz_tz.Fuses.program_otpmk fuses (Prng.bytes rng 32);
  Watz_tz.Fuses.program_boot_pubkey_hash fuses (Boot.vendor_pubkey_hash vk);
  let genuine = Boot.standard_chain vk in
  let chain = mutate_chain rng genuine in
  match Boot.verify ~fuses ~vendor_pub:vk.Boot.vk_pub chain with
  | exception e -> Error ("boot verify crashed: " ^ Printexc.to_string e)
  | Error _ -> Ok ()
  | Ok measurement -> (
    (* Acceptance is only legitimate for the untampered chain — or for
       mutations that happen to be identities (the mutator can no-op on
       tiny strings). Dropping stages changes the measurement, so a
       shorter accepted chain must still measure differently... but
       ROM semantics here are: every stage signature valid. Check
       exactly that, byte-for-byte. *)
    let all_sigs_valid =
      List.for_all
        (fun (img : Boot.image) ->
          Watz_crypto.Ecdsa.verify vk.Boot.vk_pub
            ~msg:(img.Boot.img_name ^ "\x00" ^ img.Boot.img_payload)
            ~signature:img.Boot.img_signature)
        chain
    in
    if not all_sigs_valid then
      Error "boot chain accepted with an invalid stage signature"
    else if chain_equal chain genuine then Ok ()
    else begin
      (* A reordered or stage-dropped chain of individually-valid images
         is accepted by design (each stage is vendor-signed); its
         measurement must then differ from the genuine chain's unless
         the payload sequence is identical. *)
      let payloads c = List.map (fun (i : Boot.image) -> i.Boot.img_payload) c in
      match Boot.verify ~fuses ~vendor_pub:vk.Boot.vk_pub genuine with
      | Ok genuine_m
        when String.equal genuine_m measurement
             && payloads chain <> payloads genuine ->
        Error "different payload sequence produced the same boot measurement"
      | _ -> Ok ()
    end)

(* ------------------------------------------------------------------ *)
(* Mesh resumption fuzzing: tickets, resume frames, sub-claims *)

module Ticket = Watz_mesh.Ticket
module Resume = Watz_mesh.Resume
module Hier = Watz_mesh.Hier

(* The verifier's own resume0 pipeline, the part before its cache and
   policy checks: parse, redeem, sealed id, binding MAC. *)
let redeem = Watz_mesh.Mesh_verifier.redeem_resume0

let mesh_round seed rng : (unit, string) result =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let random n = Prng.bytes rng n in
  let master = Ticket.make ~seed:(Printf.sprintf "fuzz-stek-%Ld" seed) in
  let rms = random 16 in
  let attester_id = random 32 in
  let claim = random 32 in
  let boot = random 32 in
  let now = 1_000_000_000L in
  let ttl = 30_000_000_000L in
  let ticket =
    Ticket.mint master ~random ~now_ns:now ~ttl_ns:ttl ~attester_id ~claim ~boot ~rms
  in
  let nonce_a = random Resume.nonce_len in
  let resume0 = Resume.build_resume0 ~rms ~attester_id ~nonce_a ~ticket in
  let later = Int64.add now 1L in
  (* A genuine shape must reject with exactly its reason. *)
  let expect ?(now_ns = later) what reason frame =
    match redeem master ~now_ns frame with
    | exception e -> fail "resume pipeline crashed on %s: %s" what (Printexc.to_string e)
    | Ok _ -> fail "%s resumed" what
    | Error r when r = reason -> Ok ()
    | Error r -> fail "%s rejected as %s" what (Resume.reason_to_string r)
  in
  (* A mutant of [genuine] may pass [accepts] only if byte-identical. *)
  let forged what ~genuine accepts =
    let mutant = Mutate.mutate rng genuine in
    match accepts mutant with
    | exception e -> fail "%s check crashed on a mutant: %s" what (Printexc.to_string e)
    | true when not (String.equal mutant genuine) ->
      fail "forged %s accepted (%d bytes)" what (String.length mutant)
    | _ -> Ok ()
  in
  let resumes frame = Result.is_ok (redeem master ~now_ns:later frame) in
  match redeem master ~now_ns:later resume0 with
  | exception e ->
    fail "resume pipeline crashed on the genuine frame: %s" (Printexc.to_string e)
  | Error r -> fail "genuine resume0 rejected as %s" (Resume.reason_to_string r)
  | Ok _ -> (
    match Prng.int rng 7 with
    | 0 -> forged "resume0" ~genuine:resume0 resumes
    | 1 ->
      (* mutate the sealed ticket, then bind it honestly (the presenter
         knows rms): the ticket's own seal must stop the resume *)
      forged "ticket" ~genuine:ticket (fun ticket ->
          resumes (Resume.build_resume0 ~rms ~attester_id ~nonce_a ~ticket))
    | 2 ->
      (* at or past expires_ns the ticket is dead *)
      let at = Int64.add now (Int64.add ttl (Int64.of_int (Prng.int rng 1000))) in
      expect ~now_ns:at "expired ticket" Resume.Rj_expired resume0
    | 3 ->
      (* key rotation invalidates every outstanding ticket *)
      let spins = 1 + Prng.int rng 3 in
      for _ = 1 to spins do
        Ticket.rotate master
      done;
      expect (Printf.sprintf "ticket after %d key rotation(s)" spins) Resume.Rj_rotated resume0
    | 4 ->
      (* a stolen ticket: presented under the thief's own id, even by a
         thief that knows the resumption secret, or under the genuine
         id by one that does not *)
      let thief = random 32 in
      let replayed = Resume.build_resume0 ~rms ~attester_id:thief ~nonce_a ~ticket in
      let unbound = Resume.build_resume0 ~rms:(random 16) ~attester_id ~nonce_a ~ticket in
      Result.bind
        (expect "ticket replayed under another attester id" Resume.Rj_id_mismatch replayed)
        (fun () -> expect "ticket bound without its rms" Resume.Rj_bad_binding unbound)
    | 5 ->
      (* resume-accept mutation: the attester opens only the
         byte-identical frame (nonce, iv and blob are all bound) *)
      let nonce_v = random Resume.nonce_len in
      let iv = random 12 in
      let accept = Resume.build_accept ~rms ~nonce_a ~nonce_v ~iv "fuzz mesh secret blob" in
      forged "resume accept" ~genuine:accept (fun a ->
          Option.is_some (Resume.open_accept ~rms ~nonce_a a))
    | _ ->
      (* sub-claim and ack forgery under the session sub-claim key *)
      let k_sub = Hier.derive_key ~rms in
      let name = Printf.sprintf "mod-%d" (Prng.int rng 16) in
      let sub = Hier.make ~k_sub ~name ~measurement:(random 32) in
      Result.bind
        (forged "sub-claim" ~genuine:sub (fun s -> Option.is_some (Hier.verify ~k_sub s)))
        (fun () ->
          forged "sub-claim ack" ~genuine:(Hier.ack ~k_sub sub)
            (Hier.check_ack ~k_sub ~subclaim:sub)))

(** One protocol-fuzz round: handler-level most of the time (cheap),
    transport, boot chain or mesh resumption on the side. *)
let round ctx seed rng =
  match Prng.int rng 10 with
  | 0 -> net_round (Int64.logxor seed (Prng.next64 rng)) rng
  | 1 | 2 -> boot_round (Int64.logxor seed (Prng.next64 rng)) rng
  | 3 | 4 -> mesh_round (Int64.logxor seed (Prng.next64 rng)) rng
  | _ -> message_round ctx rng
