(** The Fortuna pseudo-random generator (Ferguson–Schneier), generator
    part: an AES-256-CTR stream rekeyed after every request.

    The paper extends OP-TEE's LibTomCrypt with Fortuna because the
    stock PRNG cannot be seeded: WaTZ must derive the {e same}
    attestation key pair at every boot from the hardware root of trust.
    A [t] seeded with identical bytes yields an identical stream. *)

type t

val of_seed : string -> t
(** [of_seed s] is a generator seeded with [s]: its key is
    SHA-256(0{^32} || [s]), Fortuna's reseed from the all-zero key. *)

val generate : t -> int -> string
(** [generate t n] produces [n] pseudo-random bytes and rekeys.
    Raises [Invalid_argument] beyond the per-request limit of 2{^20}
    bytes. *)
