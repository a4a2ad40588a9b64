(** A logical attester in the mesh simulation.

    The storm runs hundreds of attesters against one verifier over one
    simulated link; manufacturing a full board per attester would
    drown the run in setup cost, so each logical attester owns its own
    attestation keypair (derived from its seed and key generation —
    the stand-in for a HUK-derived device key) and signs its own
    evidence. Every generation's public key is endorsed by the
    verifier policy exactly as board service keys are.

    The attester id is the hash of the current attestation public key:
    rotating the key {e changes the id}, so cached appraisals and
    outstanding tickets for the old key can never speak for the new
    one even before explicit invalidation.

    The boot digest models the measured boot chain. It rides inside
    the evidence's version string as a TCB descriptor
    (["watz-1;tcb=<hex>"]) — authenticated by the evidence signature
    without touching the evidence wire format — and changes on every
    reboot, so stale cache entries stop matching. Tickets and the
    resumption secret live in volatile memory: a reboot drops both. *)

module C = Watz_crypto

type t = {
  seed : string;
  mutable boot_count : int;
  mutable key_gen : int;
  mutable priv : C.Ecdsa.private_key;
  mutable pub : C.P256.point;
  mutable claim : string; (* measurement of the module this attester runs *)
  mutable ticket : string option; (* volatile: survives sessions, not reboots *)
  mutable rms : string option; (* resumption master secret for [ticket] *)
}

let keypair_for seed gen = C.Ecdsa.keypair_of_seed (Printf.sprintf "mesh-attester:%s:gen%d" seed gen)

let create ~seed ~claim =
  let priv, pub = keypair_for seed 0 in
  { seed; boot_count = 0; key_gen = 0; priv; pub; claim; ticket = None; rms = None }

let attester_id_of_pub pub = C.Sha256.digest ("WZ-MESH-ID:" ^ C.P256.encode pub)
let attester_id t = attester_id_of_pub t.pub
let public_key t = t.pub

let boot_digest t =
  C.Sha256.digest (Printf.sprintf "WZ-MESH-BOOT:%s:%d" t.seed t.boot_count)

let version_base = "watz-1"
let version t = version_base ^ ";tcb=" ^ Watz_util.Hex.encode (boot_digest t)

(** Parse the boot digest back out of an evidence version string. *)
let boot_digest_of_version v : string option =
  let marker = ";tcb=" in
  match String.index_opt v ';' with
  | Some i
    when String.length v >= i + String.length marker
         && String.equal (String.sub v i (String.length marker)) marker -> (
    let hex = String.sub v (i + String.length marker) (String.length v - i - String.length marker) in
    match Watz_util.Hex.decode hex with
    | d when String.length d = 32 -> Some d
    | _ -> None
    | exception Invalid_argument _ -> None)
  | _ -> None

(** Reboot: new boot digest, volatile ticket state gone. *)
let reboot t =
  t.boot_count <- t.boot_count + 1;
  t.ticket <- None;
  t.rms <- None

(** Rotate the attestation key: a new keypair, hence a new attester
    id. The stale ticket is deliberately kept so the rotation shows up
    as an id-mismatch reject on the next resume attempt (exercising
    the fallback) instead of silently looking like a first contact. *)
let rotate_key t =
  t.key_gen <- t.key_gen + 1;
  let priv, pub = keypair_for t.seed t.key_gen in
  t.priv <- priv;
  t.pub <- pub

(** Sign evidence for [anchor] with this attester's key, embedding the
    TCB descriptor in the version field. *)
let issue_evidence t ~anchor =
  let body =
    {
      Watz_attest.Evidence.anchor;
      version = version t;
      claim = t.claim;
      attestation_pubkey = t.pub;
    }
  in
  let signature = C.Ecdsa.sign t.priv (Watz_attest.Evidence.body_bytes body) in
  Watz_attest.Evidence.encode { Watz_attest.Evidence.body; signature }
