(** AES-GCM authenticated encryption (NIST SP 800-38D).

    WaTZ uses AES-GCM-128 to protect the secret blob of msg3 in the
    remote-attestation protocol. The CTR keystream comes from
    {!Aes.encrypt_into}, one block at a time into a per-call 16-byte
    scratch, XORed into a single output buffer; GHASH runs on a per-key
    4-bit table (Shoup's method) over unboxed 32-bit words. Neither
    allocates per block, so a call's minor allocation does not grow
    with the message: only the output buffer does. Like {!Aes}, it is
    not cache-timing safe. *)

val encrypt :
  key:string -> iv:string -> ?aad:string -> string -> string * string
(** [encrypt ~key ~iv ~aad plaintext] is [(ciphertext, tag)] with a
    16-byte tag. The IV may be any non-empty length; 12 bytes is the
    fast path. *)

val decrypt :
  key:string -> iv:string -> ?aad:string -> tag:string -> string -> string option
(** [decrypt ~key ~iv ~aad ~tag ciphertext] is [Some plaintext] when the
    tag authenticates, [None] otherwise. *)

val ghash_bytes : h:string -> string list -> string
(** Table-driven GHASH over 16-byte-zero-padded parts under the 16-byte
    hash subkey [h]. Exposed for differential testing against
    {!Refcrypto.Gcm.ghash_bytes}. *)
