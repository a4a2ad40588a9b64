(** AES block cipher (FIPS 197) for 128-, 192- and 256-bit keys,
    encryption only.

    Every mode WaTZ uses (GCM's CTR keystream and tag mask, CMAC, the
    Fortuna generator) runs the cipher forward, so there is no
    decryption direction; the textbook cipher with both directions is
    kept frozen as {!Refcrypto.Aes} for differential tests. Rounds run
    on 32-bit T-tables derived from the algebraic S-box, four rows of
    256 entries in one array, and are checked by the FIPS 197
    known-answer tests. Lookups are indexed by key- and data-dependent
    bytes, so the cipher is not cache-timing safe (DESIGN.md §7). *)

type key

val expand_key : string -> key
(** Accepts 16-, 24- or 32-byte keys; raises [Invalid_argument]
    otherwise. *)

val encrypt_into : key -> Bytes.t -> int -> Bytes.t -> int -> unit
(** [encrypt_into key src soff dst doff] encrypts the 16-byte block at
    [src.[soff..soff+15]] into [dst.[doff..doff+15]] and allocates
    nothing. [src] and [dst] may be the same buffer: the whole block is
    read before any byte is written, so in-place encryption
    ([src == dst], [soff = doff]) is safe. Raises [Invalid_argument]
    if either block lies outside its buffer. *)

val encrypt_words : key -> int -> int -> int -> int -> Bytes.t -> int -> unit
(** [encrypt_words key w0 w1 w2 w3 dst doff] encrypts the block whose
    big-endian 32-bit words are [w0..w3] (only the low 32 bits of each
    are read) into [dst.[doff..doff+15]] and allocates nothing. It is
    the round body under {!encrypt_into}, for callers that hold their
    block as ints, such as GCM's counter. Raises [Invalid_argument] if
    the block lies outside [dst]. *)
