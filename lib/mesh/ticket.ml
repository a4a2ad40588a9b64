(** HMAC-sealed, expiring session-resumption tickets (the mesh's
    STEK — session-ticket encryption key — in the TLS 1.3 sense).

    After a full msg0–msg3 attestation the verifier mints a ticket
    binding the attester's identity, code measurement, boot digest and
    the session's resumption master secret. The ticket is stateless on
    the verifier side: everything needed to resume lives inside it,
    sealed under the verifier's current ticket key.

    Wire layout (fixed 196 bytes):

    {v
    key_id(4) || epoch(u32 LE) || iv(12) || AES-GCM(body)(128) ||
    gcm_tag(16) || HMAC-SHA256(all preceding)(32)
    v}

    The body travels encrypted because it carries the resumption
    master secret and the ticket is presented over the untrusted
    network in resume0. The outer HMAC gives a cheap constant-shape
    reject for tampered tickets before any decryption. It is also what
    keeps tickets unforgeable should an IV ever repeat under one epoch
    key: a repeated (key, IV) leaks the XOR of two sealed bodies,
    resumption secrets included, and exposes GCM's authentication key,
    so the GCM tag alone would not hold. Federated shards share the
    STEK, so each verifier draws its IVs from a stream seeded by its
    own identity ({!Watz.Verifier_app}).

    [key_id] names the ticket master (stable across rotations),
    [epoch] the rotation generation. The two fields let {!redeem}
    distinguish {e rotated} (fall back, re-handshake, get a new
    ticket) from {e unknown key} (the ticket is alien: another master
    minted it). Both are classified before the MAC check, so their
    classification is best-effort: every mismatch path rejects, none
    accepts. *)

module C = Watz_crypto
module W = Watz_util.Bytesio.Writer
module R = Watz_util.Bytesio.Reader

let key_id_len = 4
let iv_len = 12
let gcm_tag_len = 16
let hmac_len = 32
let body_len = 32 + 32 + 32 + 16 + 8 + 8
let wire_len = key_id_len + 4 + iv_len + body_len + gcm_tag_len + hmac_len

type master = {
  key_id : string; (* 4 bytes; names this master *)
  base : string; (* instance secret every epoch key derives from *)
  mutable epoch : int;
  mutable enc_key : string; (* 16 bytes, current epoch *)
  mutable mac_key : string; (* 32 bytes, current epoch *)
}

let epoch_bytes epoch =
  let w = W.create ~capacity:4 () in
  W.u32 w (Int32.of_int epoch);
  W.contents w

let derive_epoch_keys base epoch =
  let e = epoch_bytes epoch in
  ( String.sub (C.Hmac.sha256 ~key:base ("WZ-MESH-TK-ENC" ^ e)) 0 16,
    C.Hmac.sha256 ~key:base ("WZ-MESH-TK-MAC" ^ e) )

(** [make ~seed] derives a fresh ticket master. The same seed always
    yields the same master (so federated verifier shards sharing a
    seed accept each other's tickets); a master from another seed
    rejects them as unknown. *)
let make ~seed =
  let base = C.Hmac.sha256 ~key:"WZ-MESH-STEK" seed in
  let key_id = String.sub (C.Hmac.sha256 ~key:"WZ-MESH-KID" seed) 0 key_id_len in
  let enc_key, mac_key = derive_epoch_keys base 0 in
  { key_id; base; epoch = 0; enc_key; mac_key }

(** Rotate the ticket key: every ticket minted under the previous
    epoch is rejected as [rotated] from now on (the attester falls
    back to a full handshake and earns a fresh ticket). *)
let rotate m =
  m.epoch <- m.epoch + 1;
  let enc_key, mac_key = derive_epoch_keys m.base m.epoch in
  m.enc_key <- enc_key;
  m.mac_key <- mac_key

type body = {
  attester_id : string; (* 32 bytes *)
  claim : string; (* 32-byte code measurement the session attested *)
  boot : string; (* 32-byte boot digest from the evidence TCB descriptor *)
  rms : string; (* 16-byte resumption master secret *)
  issued_ns : int64;
  expires_ns : int64;
}

let encode_body b =
  let w = W.create ~capacity:body_len () in
  W.bytes w b.attester_id;
  W.bytes w b.claim;
  W.bytes w b.boot;
  W.bytes w b.rms;
  W.u64 w b.issued_ns;
  W.u64 w b.expires_ns;
  W.contents w

let decode_body raw =
  let r = R.of_string raw in
  let attester_id = R.bytes r 32 in
  let claim = R.bytes r 32 in
  let boot = R.bytes r 32 in
  let rms = R.bytes r 16 in
  let issued_ns = R.u64 r in
  let expires_ns = R.u64 r in
  { attester_id; claim; boot; rms; issued_ns; expires_ns }

(** Mint a ticket for [body] under the current epoch key. [random]
    supplies the GCM IV. *)
let mint m ~random ~now_ns ~ttl_ns ~attester_id ~claim ~boot ~rms =
  if String.length attester_id <> 32 || String.length claim <> 32 || String.length boot <> 32
  then invalid_arg "Ticket.mint: ids, claims and boot digests are 32 bytes";
  if String.length rms <> 16 then invalid_arg "Ticket.mint: rms is 16 bytes";
  let body =
    { attester_id; claim; boot; rms; issued_ns = now_ns; expires_ns = Int64.add now_ns ttl_ns }
  in
  let iv = random iv_len in
  let aad = m.key_id ^ epoch_bytes m.epoch in
  let ct, tag = C.Gcm.encrypt ~key:m.enc_key ~iv ~aad (encode_body body) in
  let sealed = aad ^ iv ^ ct ^ tag in
  sealed ^ C.Hmac.sha256 ~key:m.mac_key sealed

(** Redeem a presented ticket against the verifier's current master.
    Every check must pass — length, key id, epoch, outer HMAC, GCM
    tag, expiry — before the body is released; any failure rejects
    with the first applicable reason. *)
let redeem m ~now_ns wire : (body, Resume.reject_reason) result =
  if String.length wire <> wire_len then Error Resume.Rj_malformed
  else if not (String.equal (String.sub wire 0 key_id_len) m.key_id) then
    Error Resume.Rj_unknown_key
  else if not (String.equal (String.sub wire key_id_len 4) (epoch_bytes m.epoch)) then
    Error Resume.Rj_rotated
  else begin
    let sealed = String.sub wire 0 (wire_len - hmac_len) in
    let mac = String.sub wire (wire_len - hmac_len) hmac_len in
    if not (String.equal mac (C.Hmac.sha256 ~key:m.mac_key sealed)) then Error Resume.Rj_forged
    else begin
      let aad = String.sub wire 0 (key_id_len + 4) in
      let iv = String.sub wire (key_id_len + 4) iv_len in
      let ct = String.sub wire (key_id_len + 4 + iv_len) body_len in
      let tag = String.sub wire (key_id_len + 4 + iv_len + body_len) gcm_tag_len in
      match C.Gcm.decrypt ~key:m.enc_key ~iv ~aad ~tag ct with
      | None -> Error Resume.Rj_forged
      | Some plain ->
        let body = decode_body plain in
        if Int64.compare now_ns body.expires_ns >= 0 then Error Resume.Rj_expired else Ok body
    end
  end
