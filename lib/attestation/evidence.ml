(** Attestation evidence (§IV, "Proof of trust").

    Evidence is a signed report binding together: the {e anchor} (a
    transport-session value — the hash of both ECDHE public session
    keys), the WaTZ {e version} (so verifiers can reject outdated
    runtimes), the {e claim} (the SHA-256 measurement of the Wasm
    bytecode), and the device's public {e attestation key} (checked
    against the verifier's endorsements). The signature is produced by
    the kernel attestation service with the private attestation key,
    which never leaves the trusted kernel. *)

type t = {
  anchor : string; (* 32 bytes *)
  version : string;
  claim : string; (* 32-byte code measurement *)
  attestation_pubkey : Watz_crypto.P256.point;
}

type signed = { body : t; signature : string }

let body_bytes e =
  let w = Watz_util.Bytesio.Writer.create () in
  Watz_util.Bytesio.Writer.bytes w e.anchor;
  Watz_util.Bytesio.Writer.len_bytes w e.version;
  Watz_util.Bytesio.Writer.bytes w e.claim;
  Watz_util.Bytesio.Writer.bytes w (Watz_crypto.P256.encode e.attestation_pubkey);
  Watz_util.Bytesio.Writer.contents w

let encode (s : signed) =
  let w = Watz_util.Bytesio.Writer.create () in
  Watz_util.Bytesio.Writer.len_bytes w (body_bytes s.body);
  Watz_util.Bytesio.Writer.bytes w s.signature;
  Watz_util.Bytesio.Writer.contents w

exception Malformed of string

let bytes_fn = Watz_util.Bytesio.Reader.bytes

let decode raw =
  let open Watz_util.Bytesio.Reader in
  try
    let r = of_string raw in
    let body_raw = len_bytes r in
    let signature = bytes_fn r 64 in
    let br = of_string body_raw in
    let anchor = bytes_fn br 32 in
    let version = len_bytes br in
    let claim = bytes_fn br 32 in
    let pub_raw = bytes_fn br 65 in
    if not (eof br) then raise (Malformed "trailing bytes in evidence body");
    match Watz_crypto.P256.decode pub_raw with
    | None -> raise (Malformed "invalid attestation public key")
    | Some attestation_pubkey ->
      if not (eof r) then raise (Malformed "trailing bytes after evidence");
      { body = { anchor; version; claim; attestation_pubkey }; signature }
  with
  | Truncated -> raise (Malformed "truncated evidence")
  | Overflow -> raise (Malformed "malformed length in evidence")

(** [verify_signature s] checks the evidence signature against the
    attestation public key {e carried in the evidence} — the verifier
    must separately check that key against its endorsements. *)
let verify_signature (s : signed) =
  Watz_crypto.Ecdsa.verify s.body.attestation_pubkey ~msg:(body_bytes s.body)
    ~signature:s.signature

(** [verify_signature_with key s] verifies against [key] instead of the
    key decoded out of the evidence. The caller must have already
    established [P256.equal key s.body.attestation_pubkey]; passing its
    own long-lived endorsed key object lets the verifier reuse that
    key's memoized window table across sessions and, once the key has
    verified {!Watz_crypto.P256.comb_threshold} signatures, its comb. *)
let verify_signature_with key (s : signed) =
  Watz_crypto.Ecdsa.verify key ~msg:(body_bytes s.body) ~signature:s.signature
