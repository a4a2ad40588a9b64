(** ECDSA over P-256 with SHA-256, with deterministic nonces (RFC 6979).

    Deterministic nonces remove the dependency on run-time entropy: the
    simulated device derives its attestation key pair from the hardware
    root of trust and must never sign with a repeated or biased nonce.
    Signatures are encoded as the raw 64-byte [r || s] concatenation.
    Keys, nonces and both signature halves are 32 big-endian bytes,
    and the arithmetic mod n runs on {!P256.scalar_ring}. *)

type private_key
type public_key = P256.point

val private_of_bytes : string -> private_key
(** [private_of_bytes d] interprets 32 bytes big-endian; the value is
    reduced into [\[1, n-1\]]. *)

val private_to_bytes : private_key -> string
val public_of_private : private_key -> public_key
val keypair_of_seed : string -> private_key * public_key
(** Derives a key pair from arbitrary seed bytes (via SHA-256 candidate
    generation), the mechanism WaTZ uses to turn the MKVB-seeded Fortuna
    stream into its attestation keys. *)

val sign : private_key -> string -> string
(** [sign key msg] hashes [msg] with SHA-256 and returns the 64-byte
    signature. *)

val sign_digest : private_key -> string -> string
(** Signs a precomputed 32-byte digest. *)

val verify : public_key -> msg:string -> signature:string -> bool
(** [verify key ~msg ~signature] hashes [msg] and checks the signature.
    A key object reused across calls gets faster after
    {!P256.comb_threshold} verifications (see {!P256.double_mul}), so
    long-lived keys should be kept and reused rather than re-decoded. *)

val verify_digest : public_key -> digest:string -> signature:string -> bool
