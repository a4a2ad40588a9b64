(** Hierarchical attestation: per-module sub-claims under an attested
    session.

    The full handshake (or a resumption chained to one) attests the
    {e runtime} once and leaves both ends holding the resumption
    master secret [rms]. Loading a Wasm module afterwards does not
    re-run msg0–msg3: the attester sends a sub-claim — the module's
    name and measurement MACed under a key derived from [rms] — and
    the verifier appraises just the measurement.

    The sub-claim key depends only on [rms], not on which connection
    carries it, so a resumed session produces byte-identical sub-claim
    tokens to the full handshake it chains to: the token proves "the
    runtime attested in the session that owns [rms] measured this
    module", which is exactly as true over a resumed channel. *)

module C = Watz_crypto
module W = Watz_util.Bytesio.Writer
module R = Watz_util.Bytesio.Reader

let magic = "WZSC"
let ack_magic = "WZSA"
let mac_len = 32

(** The sub-claim MAC key for a session's resumption master secret. *)
let derive_key ~rms = C.Hmac.sha256 ~key:rms "WZ-MESH-SUB"

let is_subclaim frame = String.length frame >= 4 && String.equal (String.sub frame 0 4) magic

let body ~name ~measurement =
  let w = W.create () in
  W.bytes w magic;
  W.len_bytes w name;
  W.bytes w measurement;
  W.contents w

(** Build a sub-claim token for a module [name] with a 32-byte
    [measurement]. *)
let make ~k_sub ~name ~measurement =
  if String.length measurement <> 32 then invalid_arg "Hier.make: measurements are 32 bytes";
  let b = body ~name ~measurement in
  b ^ C.Hmac.sha256 ~key:k_sub b

type verified = { name : string; measurement : string }

(** Verify a sub-claim frame under the session's sub-claim key:
    [None] for a frame that does not parse or whose MAC fails. *)
let verify ~k_sub frame : verified option =
  let n = String.length frame in
  if n < 4 + 1 + 32 + mac_len || not (is_subclaim frame) then None
  else begin
    let b = String.sub frame 0 (n - mac_len) in
    let mac = String.sub frame (n - mac_len) mac_len in
    match
      let r = R.of_string b in
      let _magic = R.bytes r 4 in
      let name = R.len_bytes r in
      let measurement = R.bytes r 32 in
      if not (R.eof r) then None else Some { name; measurement }
    with
    | None | (exception R.Truncated) | (exception R.Overflow) -> None
    | Some _ as v -> if String.equal mac (C.Hmac.sha256 ~key:k_sub b) then v else None
  end

(** The verifier's acknowledgement of an accepted sub-claim: a MAC
    over the sub-claim's own MAC, so the attester knows {e this}
    sub-claim was appraised by the holder of [k_sub]. *)
let ack ~k_sub subclaim_frame =
  let n = String.length subclaim_frame in
  let mac = String.sub subclaim_frame (n - mac_len) mac_len in
  ack_magic ^ C.Hmac.sha256 ~key:k_sub ("WZ-MESH-SA" ^ mac)

let check_ack ~k_sub ~subclaim frame =
  String.length subclaim >= mac_len && String.equal frame (ack ~k_sub subclaim)
