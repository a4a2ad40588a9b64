(** The WaTZ remote-attestation protocol (Table II), adapted from the
    Intel SGX end-to-end example (SIGMA-style) as described in §IV:

    {v
    msg0  attester -> verifier : G_a
    msg1  verifier -> attester : content1 || MAC_Km(content1)
          content1 := G_v || V || SIGN_V(G_v || G_a)
    msg2  attester -> verifier : content2 || MAC_Km(content2)
          content2 := G_a || evidence || SIGN_A(evidence)
          anchor   := HASH(G_a || G_v)
    msg3  verifier -> attester : iv || AES-GCM_Ke(secret blob)
    v}

    Both endpoints are pure state machines over byte strings, so they
    run unchanged inside the simulated secure world (driven through the
    supplicant socket RPCs) and in direct-call unit tests. They read no
    clock: their trace spans are the only instrument, and a tracer's
    clock decides what those spans measure. On a board that is the
    simulated clock; [bench table3] gives them a wall-clock tracer and
    splits each message's time with {!table3_split}. *)

module C = Watz_crypto
module T = Watz_obs.Trace

(* Protocol state machines run in the secure world; their spans carry
   that world tag and the session correlation id the driver chose. *)
let tspan trace sid name f = T.span trace T.Secure ~session:sid name f

(* ------------------------------------------------------------------ *)
(* Errors *)

type error =
  | Bad_mac of string
  | Bad_session_signature
  | Unexpected_verifier_identity
  | Session_key_mismatch
  | Anchor_mismatch
  | Unknown_device
  | Bad_evidence_signature
  | Outdated_version of string
  | Unknown_measurement
  | Decrypt_failed
  | Malformed of string
  | Timed_out of string
  | Connection_lost of string

let pp_error ppf = function
  | Bad_mac where -> Format.fprintf ppf "MAC verification failed on %s" where
  | Bad_session_signature -> Format.fprintf ppf "signature over session keys invalid"
  | Unexpected_verifier_identity ->
    Format.fprintf ppf "verifier identity does not match the hardcoded key"
  | Session_key_mismatch -> Format.fprintf ppf "session public key changed mid-protocol"
  | Anchor_mismatch -> Format.fprintf ppf "evidence anchor does not match session keys"
  | Unknown_device -> Format.fprintf ppf "attestation key is not endorsed"
  | Bad_evidence_signature -> Format.fprintf ppf "evidence signature invalid"
  | Outdated_version v -> Format.fprintf ppf "runtime version %S rejected by policy" v
  | Unknown_measurement -> Format.fprintf ppf "code measurement matches no reference value"
  | Decrypt_failed -> Format.fprintf ppf "secret blob failed authenticated decryption"
  | Malformed what -> Format.fprintf ppf "malformed message: %s" what
  | Timed_out state -> Format.fprintf ppf "deadline expired while %s" state
  | Connection_lost why -> Format.fprintf ppf "connection lost: %s" why

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Shared helpers *)

let point_len = 65
let mac_len = 16
let sig_len = 64
let iv_len = 12

let anchor_of ~ga ~gv = C.Sha256.digest (ga ^ gv)

let check_mac key ~tag content ~where =
  if C.Cmac.verify ~key ~tag content then Ok () else Error (Bad_mac where)

let decode_point ~what raw =
  match C.P256.decode raw with
  | Some p -> Ok p
  | None -> Error (Malformed (what ^ ": invalid curve point"))

(* ------------------------------------------------------------------ *)
(* Attester *)

module Attester = struct
  type state = Expect_msg1 | Need_evidence | Expect_msg3 | Complete | Failed

  type t = {
    keys : C.Ecdh.keypair;
    expected_verifier : C.P256.point;
        (* hardcoded in the Wasm application; part of its measurement *)
    trace : T.t; (* observability sink; T.null when not tracing *)
    sid : int; (* session correlation id for trace events *)
    mutable session : C.Kdf.session_keys option;
    mutable anchor : string option;
    mutable state : state;
    (* Retransmission memory: over a lossy transport the peer may resend
       a message we already processed; a byte-identical retransmit must
       be answered from cache instead of corrupting session state. *)
    mutable last_msg1 : string option;
    mutable msg2_cache : string option;
    mutable last_msg3 : string option;
    mutable blob : string option;
  }

  (** [create ~random ~expected_verifier] makes a fresh session: an
      ephemeral ECDHE key pair is generated immediately (cost ① in
      Table III). *)
  let create ?(trace = T.null) ?(sid = T.no_session) ~random ~expected_verifier () =
    (* The verifier identity outlives sessions; make sure its window
       table is built once, not inside each msg1 appraisal. *)
    C.P256.prepare expected_verifier;
    let keys = tspan trace sid "crypto.ecdh_keygen" (fun () -> C.Ecdh.generate ~random) in
    {
      keys;
      expected_verifier;
      trace;
      sid;
      session = None;
      anchor = None;
      state = Expect_msg1;
      last_msg1 = None;
      msg2_cache = None;
      last_msg3 = None;
      blob = None;
    }

  (** The resumption master secret: a session-ticket layer (lib/mesh)
      derives resume keys from it instead of re-running the handshake.
      Derivable by both endpoints from the session KDK once msg1 has
      been processed, so it never travels on the wire. *)
  let resumption_secret t =
    Option.map (fun s -> C.Kdf.derive_label ~kdk:s.C.Kdf.kdk "WZ-MESH-RMS") t.session

  let msg0 t =
    tspan t.trace t.sid "ra.msg0_build" (fun () -> C.P256.encode t.keys.C.Ecdh.pub)

  (** Process msg1: key agreement (⑤), MAC, hardcoded-identity check,
      session-key signature (④). Returns the session {e anchor} the
      application must have attested (via the attestation service)
      before calling {!msg2}. *)
  let handle_msg1 t raw : (string, error) result =
    if t.state <> Expect_msg1 then begin
      match (t.last_msg1, t.anchor) with
      | Some prev, Some anchor when String.equal prev raw ->
        T.instant t.trace T.Secure ~session:t.sid "ra.retransmit_msg1";
        Ok anchor (* retransmit: idempotent *)
      | _ -> Error (Malformed "attester: unexpected msg1")
    end
    else tspan t.trace t.sid "ra.msg1_handle" @@ fun () ->
    begin
      let expected_len = point_len + point_len + sig_len + mac_len in
      if String.length raw <> expected_len then Error (Malformed "msg1 length")
      else begin
        let gv_raw = String.sub raw 0 point_len in
        let v_raw = String.sub raw point_len point_len in
        let sig_session = String.sub raw (2 * point_len) sig_len in
        let tag = String.sub raw (expected_len - mac_len) mac_len in
        let content1 = String.sub raw 0 (expected_len - mac_len) in
        let* gv = decode_point ~what:"msg1 G_v" gv_raw in
        let* v_pub = decode_point ~what:"msg1 V" v_raw in
        (* Derive the shared secrets (⑤): needed before the MAC check. *)
        let shared =
          tspan t.trace t.sid "crypto.ecdh" (fun () ->
              C.Ecdh.shared_secret ~priv:t.keys.C.Ecdh.priv ~peer:gv)
        in
        match shared with
        | None -> Error (Malformed "msg1: degenerate session key")
        | Some shared ->
          let session = C.Kdf.session_of_shared shared in
          let* () = check_mac session.C.Kdf.k_m ~tag content1 ~where:"msg1" in
          (* The verifier identity must match the key hardcoded in the
             (measured) application: a swapped key would change the
             measurement and be caught by attestation. *)
          if not (C.P256.equal v_pub t.expected_verifier) then
            Error Unexpected_verifier_identity
          else begin
            let ga_raw = C.P256.encode t.keys.C.Ecdh.pub in
            (* [v_pub] equals [t.expected_verifier]; verify with the
               long-lived point so its memoized table is reused. *)
            let session_sig_ok =
              tspan t.trace t.sid "crypto.ecdsa_verify" (fun () ->
                  C.Ecdsa.verify t.expected_verifier ~msg:(gv_raw ^ ga_raw) ~signature:sig_session)
            in
            if not session_sig_ok then Error Bad_session_signature
            else begin
              let anchor = anchor_of ~ga:ga_raw ~gv:gv_raw in
              t.session <- Some session;
              t.anchor <- Some anchor;
              t.last_msg1 <- Some raw;
              t.state <- Need_evidence;
              Ok anchor
            end
          end
      end
    end

  (** Build msg2 from evidence the application collected for the
      session anchor (the signature inside came from the attestation
      service — ⑥ in Table III happens there). *)
  let msg2 t ~evidence : (string, error) result =
    match (t.state, t.session) with
    | Need_evidence, Some session ->
      tspan t.trace t.sid "ra.msg2_build" (fun () ->
          let ga_raw = C.P256.encode t.keys.C.Ecdh.pub in
          let content2 = ga_raw ^ evidence in
          let tag2 = C.Cmac.mac ~key:session.C.Kdf.k_m content2 in
          t.state <- Expect_msg3;
          let m2 = content2 ^ tag2 in
          t.msg2_cache <- Some m2;
          Ok m2)
    | Expect_msg3, Some _ -> (
      (* Rebuilding msg2 for a retransmission must not re-derive state. *)
      match t.msg2_cache with
      | Some m2 ->
        T.instant t.trace T.Secure ~session:t.sid "ra.retransmit_msg2";
        Ok m2
      | None -> Error (Malformed "attester: msg2 already consumed"))
    | _, _ -> Error (Malformed "attester: msg2 before handshake")

  let handle_msg3 t raw : (string, error) result =
    if t.state = Complete then begin
      match (t.last_msg3, t.blob) with
      | Some prev, Some blob when String.equal prev raw ->
        T.instant t.trace T.Secure ~session:t.sid "ra.retransmit_msg3";
        Ok blob (* retransmit: idempotent *)
      | _ -> Error (Malformed "attester: unexpected msg3")
    end
    else if t.state <> Expect_msg3 then Error (Malformed "attester: unexpected msg3")
    else
      match t.session with
      | None -> Error (Malformed "attester: no session keys")
      | Some session ->
        if String.length raw < iv_len + mac_len then Error (Malformed "msg3 length")
        else tspan t.trace t.sid "ra.msg3_handle" @@ fun () ->
        begin
          let iv = String.sub raw 0 iv_len in
          let ct_len = String.length raw - iv_len - mac_len in
          let ct = String.sub raw iv_len ct_len in
          let tag = String.sub raw (iv_len + ct_len) mac_len in
          let plain =
            tspan t.trace t.sid "crypto.aes_gcm_decrypt" (fun () ->
                C.Gcm.decrypt ~key:session.C.Kdf.k_e ~iv ~tag ct)
          in
          match plain with
          | None ->
            t.state <- Failed;
            Error Decrypt_failed
          | Some blob ->
            t.state <- Complete;
            t.last_msg3 <- Some raw;
            t.blob <- Some blob;
            Ok blob
        end
end

(* ------------------------------------------------------------------ *)
(* Verifier *)

module Verifier = struct
  type policy = {
    identity_priv : C.Ecdsa.private_key;
    identity_pub : C.P256.point;
    endorsed_keys : C.P256.point list; (* known devices *)
    reference_claims : string list; (* acceptable code measurements *)
    accept_version : string -> bool;
    secret_blob : string;
  }

  let make_policy ~identity_seed ~endorsed_keys ~reference_claims ?(accept_version = fun _ -> true)
      ~secret_blob () =
    let priv, pub = C.Ecdsa.keypair_of_seed ("verifier-identity:" ^ identity_seed) in
    (* Policy keys serve every session: build the endorsed keys' window
       tables and the identity encoding once, at policy creation. *)
    List.iter C.P256.prepare endorsed_keys;
    ignore (C.P256.encode pub);
    {
      identity_priv = priv;
      identity_pub = pub;
      endorsed_keys;
      reference_claims;
      accept_version;
      secret_blob;
    }

  type session = {
    policy : policy;
    keys : C.Ecdh.keypair;
    ga_raw : string; (* attester's session key from msg0 *)
    session_keys : C.Kdf.session_keys;
    trace : T.t;
    sid : int;
    mutable accepted_evidence : Evidence.signed option;
    mutable msg1 : string; (* cached reply, resent on a msg0 retransmit *)
    mutable msg2_cache : (string * string) option; (* (raw msg2, msg3 reply) *)
  }

  (** Verifier side of {!Attester.resumption_secret}: same KDK, same
      label, so both ends hold the same 16-byte secret without ever
      sending it. *)
  let resumption_secret session =
    C.Kdf.derive_label ~kdk:session.session_keys.C.Kdf.kdk "WZ-MESH-RMS"

  (** A byte-identical copy of the msg0 that opened this session: the
      attester never saw msg1 and is retransmitting; answer from cache. *)
  let is_msg0_retransmit session raw = String.equal raw session.ga_raw

  (** The appraisal reached its terminal state: evidence accepted and
      msg3 issued. Completed sessions only ever answer the byte-exact
      msg2 retransmit (from the msg3 cache); every other message is
      stray traffic that must not restart the handshake. *)
  let completed session = session.accepted_evidence <> None

  (** The cached msg1 for answering a msg0 retransmit — available only
      while the handshake is still open. Once the session completed
      this is [None]: a late-duplicated msg0 must not resurrect the
      handshake by re-offering msg1 (the attester holding the secret
      blob has no use for it, and answering would reopen a finished
      exchange to replay traffic). *)
  let msg1_reply session = if completed session then None else Some session.msg1

  (** Handle msg0: generate the verifier's ephemeral pair and the
      shared secrets (②), sign both session keys (③), reply msg1. *)
  let handle_msg0 ?(trace = T.null) ?(sid = T.no_session) policy ~random raw :
      (session * string, error) result =
    if String.length raw <> point_len then Error (Malformed "msg0 length")
    else tspan trace sid "ra.msg0_handle" @@ fun () ->
    begin
      let* ga = decode_point ~what:"msg0 G_a" raw in
      let keys = tspan trace sid "crypto.ecdh_keygen" (fun () -> C.Ecdh.generate ~random) in
      match
        tspan trace sid "crypto.ecdh" (fun () ->
            C.Ecdh.shared_secret ~priv:keys.C.Ecdh.priv ~peer:ga)
      with
      | None -> Error (Malformed "msg0: degenerate session key")
      | Some shared ->
        let session_keys = C.Kdf.session_of_shared shared in
        let gv_raw = C.P256.encode keys.C.Ecdh.pub in
        let v_raw = C.P256.encode policy.identity_pub in
        let signature =
          tspan trace sid "crypto.ecdsa_sign" (fun () ->
              C.Ecdsa.sign policy.identity_priv (gv_raw ^ raw))
        in
        let content1 = gv_raw ^ v_raw ^ signature in
        let tag = C.Cmac.mac ~key:session_keys.C.Kdf.k_m content1 in
        let m1 = content1 ^ tag in
        let session =
          {
            policy;
            keys;
            ga_raw = raw;
            session_keys;
            trace;
            sid;
            accepted_evidence = None;
            msg1 = m1;
            msg2_cache = None;
          }
        in
        Ok (session, m1)
    end

  (** Handle msg2: the full appraisal of §IV(d) inside the verifier
      TA — MAC, session-key match, anchor, endorsement, evidence
      signature (⑦), version policy and reference values.

      [augment evidence] returns extra bytes appended to the secret
      blob inside msg3's authenticated encryption — the hook the
      session-ticket layer uses to deliver a resumption ticket under
      the session's confidentiality without an extra round trip. It is
      called exactly once, after the evidence has been accepted. The
      default appends nothing, leaving msg3 byte-identical to the
      un-augmented protocol. *)
  let handle_msg2 ?(augment = fun (_ : Evidence.signed) -> "") session ~random raw
      : (string, error) result =
    match session.msg2_cache with
    | Some (prev, m3) when String.equal prev raw ->
      T.instant session.trace T.Secure ~session:session.sid "ra.retransmit_msg2";
      Ok m3 (* retransmit: idempotent *)
    | _ when session.accepted_evidence <> None ->
      (* A *different* msg2 after acceptance must not reopen appraisal. *)
      Error (Malformed "verifier: msg2 after completed appraisal")
    | _ ->
    if String.length raw < point_len + mac_len then Error (Malformed "msg2 length")
    else tspan session.trace session.sid "ra.msg2_handle" @@ fun () ->
    begin
      let content2 = String.sub raw 0 (String.length raw - mac_len) in
      let tag = String.sub raw (String.length raw - mac_len) mac_len in
      let* () = check_mac session.session_keys.C.Kdf.k_m ~tag content2 ~where:"msg2" in
      let ga_raw = String.sub content2 0 point_len in
      let evidence_raw = String.sub content2 point_len (String.length content2 - point_len) in
      if not (String.equal ga_raw session.ga_raw) then Error Session_key_mismatch
      else begin
        match Evidence.decode evidence_raw with
        | exception Evidence.Malformed m -> Error (Malformed ("evidence: " ^ m))
        | evidence ->
          let gv_raw = C.P256.encode session.keys.C.Ecdh.pub in
          let expected_anchor = anchor_of ~ga:ga_raw ~gv:gv_raw in
          if not (String.equal evidence.Evidence.body.Evidence.anchor expected_anchor) then
            Error Anchor_mismatch
          else begin
            match
              List.find_opt
                (C.P256.equal evidence.Evidence.body.Evidence.attestation_pubkey)
                session.policy.endorsed_keys
            with
          | None -> Error Unknown_device
          | Some endorsed ->
          (* Verify with the policy's own key object rather than the
             equal point decoded from the wire, so its window table and
             comb are shared across every session of this device. *)
          if
            not
              (tspan session.trace session.sid "ra.quote_verify" (fun () ->
                   Evidence.verify_signature_with endorsed evidence))
          then Error Bad_evidence_signature
          else if not (session.policy.accept_version evidence.Evidence.body.Evidence.version)
          then Error (Outdated_version evidence.Evidence.body.Evidence.version)
          else if
            not
              (List.exists
                 (String.equal evidence.Evidence.body.Evidence.claim)
                 session.policy.reference_claims)
          then Error Unknown_measurement
          else begin
            session.accepted_evidence <- Some evidence;
            let iv = random iv_len in
            let plain = session.policy.secret_blob ^ augment evidence in
            let ct, gcm_tag =
              tspan session.trace session.sid "crypto.aes_gcm_encrypt" (fun () ->
                  C.Gcm.encrypt ~key:session.session_keys.C.Kdf.k_e ~iv plain)
            in
            let m3 = iv ^ ct ^ gcm_tag in
            session.msg2_cache <- Some (raw, m3);
            Ok m3
          end
          end
      end
    end
end

(* ------------------------------------------------------------------ *)
(* In-memory end-to-end run (no transport) — used by tests, the fuzzer
   and the examples. *)

type run_result = { blob : string; evidence : Evidence.signed }

let run_local ?(trace = T.null) ~random ~(policy : Verifier.policy) ~issue ~expected_verifier () :
    (run_result, error) result =
  let attester = Attester.create ~trace ~random ~expected_verifier () in
  let m0 = Attester.msg0 attester in
  let* vsession, m1 = Verifier.handle_msg0 ~trace policy ~random m0 in
  let* anchor = Attester.handle_msg1 attester m1 in
  let evidence = issue ~anchor in
  let* m2 = Attester.msg2 attester ~evidence in
  let* m3 = Verifier.handle_msg2 vsession ~random m2 in
  let* blob = Attester.handle_msg3 attester m3 in
  match vsession.Verifier.accepted_evidence with
  | None -> Error (Malformed "verifier accepted nothing")
  | Some evidence -> Ok { blob; evidence }

(** Table III's split of a stretch of traced endpoint work, in the
    tracer's clock: [(keygen, asym, rest)] is the time in key
    generation and agreement, in signatures and their checks, and in
    the rest of the outermost spans, so the three add up to those. *)
let table3_split events =
  let totals = Watz_obs.Export.phase_totals events in
  let part names =
    List.fold_left
      (fun acc (p : Watz_obs.Export.phase) ->
        if List.mem p.Watz_obs.Export.phase_name names then acc + p.Watz_obs.Export.total_ns
        else acc)
      0 totals
  in
  let keygen = part [ "crypto.ecdh_keygen"; "crypto.ecdh" ]
  and asym = part [ "crypto.ecdsa_sign"; "crypto.ecdsa_verify"; "ra.quote_verify" ] in
  (keygen, asym, Watz_obs.Export.outermost_total events - keygen - asym)
