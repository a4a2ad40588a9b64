(** The 1-RTT session-resumption exchange.

    {v
    resume0  attester -> verifier : "WZR0" || attester_id(32) ||
             nonce_a(16) || len(ticket) || ticket ||
             HMAC_Kbind("WZ-MESH-R0" || attester_id || nonce_a || ticket)
    resume1  verifier -> attester : "WZR1" || nonce_v(16) || iv(12) ||
             AES-GCM_K'(blob) || tag       (aad = nonce_a || nonce_v)
    reject   verifier -> attester : "WZRF" || reason(1)
    v}

    [Kbind] and the resume traffic key [K'] both derive from the
    resumption master secret [rms] that only the two endpoints of the
    original full handshake hold ({!Watz_attest.Protocol} derives it
    from the session KDK; the ticket carries a sealed copy so the
    verifier stays stateless). The binding MAC proves the presenter
    of the ticket knows [rms] — a ticket replayed by anyone else, or
    replayed under a different attester id, fails here. Fresh nonces
    on both sides make [K'] unique per resumption, so a recorded
    resume1 cannot be replayed into a later resume.

    A reject is advisory (it carries no MAC — the verifier may not
    even be able to authenticate, e.g. an unknown ticket): the only
    thing an attacker gains by forging one is pushing the attester
    into a full handshake, which is the secure fallback anyway. *)

module C = Watz_crypto
module W = Watz_util.Bytesio.Writer
module R = Watz_util.Bytesio.Reader

let magic0 = "WZR0"
let magic1 = "WZR1"
let magicf = "WZRF"
let nonce_len = 16
let bind_len = 32
let iv_len = 12
let gcm_tag_len = 16

let is_resume0 f = String.length f >= 4 && String.equal (String.sub f 0 4) magic0
let is_accept f = String.length f >= 4 && String.equal (String.sub f 0 4) magic1
let is_reject f = String.length f >= 4 && String.equal (String.sub f 0 4) magicf

let bind_key ~rms = C.Hmac.sha256 ~key:rms "WZ-MESH-BIND"

(** Per-resumption traffic key: both nonces salt the derivation, so
    every resumption of one ticket uses a distinct key. *)
let resume_key ~rms ~nonce_a ~nonce_v =
  String.sub (C.Hmac.sha256 ~key:rms ("WZ-MESH-SK" ^ nonce_a ^ nonce_v)) 0 16

let bind_mac ~rms ~attester_id ~nonce_a ~ticket =
  C.Hmac.sha256 ~key:(bind_key ~rms) ("WZ-MESH-R0" ^ attester_id ^ nonce_a ^ ticket)

let build_resume0 ~rms ~attester_id ~nonce_a ~ticket =
  let w = W.create () in
  W.bytes w magic0;
  W.bytes w attester_id;
  W.bytes w nonce_a;
  W.len_bytes w ticket;
  W.bytes w (bind_mac ~rms ~attester_id ~nonce_a ~ticket);
  W.contents w

type resume0 = {
  r_attester_id : string;
  r_nonce_a : string;
  r_ticket : string;
  r_bind : string;
}

let parse_resume0 raw : resume0 option =
  if not (is_resume0 raw) then None
  else
    match
      let r = R.of_string raw in
      let _magic = R.bytes r 4 in
      let r_attester_id = R.bytes r 32 in
      let r_nonce_a = R.bytes r nonce_len in
      let r_ticket = R.len_bytes r in
      let r_bind = R.bytes r bind_len in
      if not (R.eof r) then None else Some { r_attester_id; r_nonce_a; r_ticket; r_bind }
    with
    | (exception R.Truncated) | (exception R.Overflow) -> None
    | v -> v

let check_binding ~rms r =
  String.equal r.r_bind
    (bind_mac ~rms ~attester_id:r.r_attester_id ~nonce_a:r.r_nonce_a ~ticket:r.r_ticket)

let build_accept ~rms ~nonce_a ~nonce_v ~iv blob =
  let key = resume_key ~rms ~nonce_a ~nonce_v in
  let ct, tag = C.Gcm.encrypt ~key ~iv ~aad:(nonce_a ^ nonce_v) blob in
  magic1 ^ nonce_v ^ iv ^ ct ^ tag

(** Attester side of resume1: recover the secret blob, or [None] when
    the frame does not authenticate under this session's keys. *)
let open_accept ~rms ~nonce_a raw : string option =
  let n = String.length raw in
  if n < 4 + nonce_len + iv_len + gcm_tag_len || not (is_accept raw) then None
  else begin
    let nonce_v = String.sub raw 4 nonce_len in
    let iv = String.sub raw (4 + nonce_len) iv_len in
    let ct_len = n - 4 - nonce_len - iv_len - gcm_tag_len in
    let ct = String.sub raw (4 + nonce_len + iv_len) ct_len in
    let tag = String.sub raw (n - gcm_tag_len) gcm_tag_len in
    let key = resume_key ~rms ~nonce_a ~nonce_v in
    C.Gcm.decrypt ~key ~iv ~aad:(nonce_a ^ nonce_v) ~tag ct
  end

(** Why a verifier turned a resume0 down: the one reject vocabulary
    of the resume path, the ticket's own checks included. *)
type reject_reason =
  | Rj_malformed
  | Rj_unknown_key
  | Rj_rotated
  | Rj_forged
  | Rj_expired
  | Rj_id_mismatch
  | Rj_bad_binding
  | Rj_cache_stale
  | Rj_policy

(** Every reason with its name, the suffix of its
    [resume_rejected.<name>] counter. A reason's index here is its
    wire code in a ["WZRF"] frame. *)
let reasons =
  [|
    (Rj_malformed, "malformed");
    (Rj_unknown_key, "unknown_key");
    (Rj_rotated, "rotated");
    (Rj_forged, "forged");
    (Rj_expired, "expired");
    (Rj_id_mismatch, "id_mismatch");
    (Rj_bad_binding, "bad_binding");
    (Rj_cache_stale, "cache_stale");
    (Rj_policy, "policy");
  |]

let reason_code reason =
  let rec find i = if fst reasons.(i) = reason then i else find (i + 1) in
  find 0

let reason_to_string reason = snd reasons.(reason_code reason)
let build_reject reason = magicf ^ String.make 1 (Char.chr (reason_code reason))

let parse_reject raw : reject_reason option =
  if String.length raw = 5 && is_reject raw && Char.code raw.[4] < Array.length reasons then
    Some (fst reasons.(Char.code raw.[4]))
  else None

(* ------------------------------------------------------------------ *)
(* Ticket delivery: the full handshake hands the ticket to the
   attester inside msg3's authenticated encryption, appended to the
   secret blob as a self-describing trailer (parsed from the end, so
   the attester needs no out-of-band blob length). *)

let trailer_magic = "WZTK"

let seal_trailer ticket =
  let w = W.create () in
  W.bytes w ticket;
  W.u32 w (Int32.of_int (String.length ticket));
  W.bytes w trailer_magic;
  W.contents w

(** Split an augmented msg3 blob into (secret blob, ticket). A blob
    with no trailer is returned whole. *)
let split_blob blob : string * string option =
  let n = String.length blob in
  if n < 8 || not (String.equal (String.sub blob (n - 4) 4) trailer_magic) then (blob, None)
  else begin
    let r = R.of_string ~pos:(n - 8) ~len:4 blob in
    let tlen = Int32.to_int (R.u32 r) in
    if tlen < 0 || tlen + 8 > n then (blob, None)
    else (String.sub blob 0 (n - 8 - tlen), Some (String.sub blob (n - 8 - tlen) tlen))
  end
