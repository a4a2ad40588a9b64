(** AES-GCM authenticated encryption (NIST SP 800-38D).

    WaTZ uses AES-GCM-128 to protect the secret blob of msg3 in the
    remote-attestation protocol. CTR hands each counter block to
    {!Aes.encrypt_words} as four ints, which writes the keystream
    straight into the single output buffer, where the input is XORed
    in. GHASH runs on an 8-bit table (Shoup's method) of the 256 byte
    multiples of the hash subkey, over unboxed 32-bit words: 16 steps
    per block. The 8 KiB table lives in one per-domain array and is
    rebuilt in place for each call's key, so no call allocates it.
    Neither half allocates per block, so a call's minor allocation does
    not grow with the message: only the output buffer does. Like
    {!Aes}, it is not cache-timing safe: GHASH reads its table at
    data-dependent indices. *)

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
