(** SHA-256 (FIPS 180-4) on native unboxed word arithmetic.

    Used for code measurements of Wasm bytecode, the evidence anchor,
    RFC 6979 nonce derivation, and Fortuna reseeding.

    The streaming API lets callers hash straight out of their own
    buffers ([update_bytes]/[update_substring]) and write digests into
    preallocated storage ([finalize_into]), so the hot paths in [Hmac],
    [Kdf] and [Evidence] avoid intermediate copies. A context must not
    be shared between domains; the module itself is domain-safe (the
    message schedule and the one-shot context are per-domain scratch). *)

type ctx

val init : unit -> ctx

val blit : ctx -> ctx -> unit
(** [blit src dst] overwrites [dst] with [src]'s state, allocation-free. *)

val update : ctx -> string -> unit
val update_substring : ctx -> string -> int -> int -> unit
val update_bytes : ctx -> Bytes.t -> int -> int -> unit

val finalize : ctx -> string
(** 32-byte digest. The context must not be reused afterwards unless
    {!blit} overwrites it first. *)

val finalize_into : ctx -> Bytes.t -> int -> unit
(** Writes the 32-byte digest at the given offset. *)

val digest : string -> string
(** One-shot hash of a whole string. *)

val digest_list : string list -> string
(** Hash of the concatenation of the list, without materializing it. *)
