(** The pre-fast-path crypto, frozen verbatim.

    Reference implementations kept only for differential testing and for
    the [crypto] bench target's old-vs-new speedup measurements: the
    optimized {!Sha256}, {!P256}, {!Ecdsa}, {!Aes} and {!Gcm} modules
    must stay bit-identical to these. Nothing in the runtime calls this
    module. *)

module Sha256 : sig
  type ctx

  val init : unit -> ctx
  val update : ctx -> string -> unit
  val finalize : ctx -> string
  val digest : string -> string
end

val sha256 : string -> string
(** Alias for {!Sha256.digest}. *)

module P256 : sig
  type point = { x : Bn.t; y : Bn.t; z : Bn.t }

  val infinity : point
  val is_infinity : point -> bool
  val base : point
  val on_curve : Bn.t -> Bn.t -> bool
  val to_affine : point -> (Bn.t * Bn.t) option
  val add : point -> point -> point
  val double : point -> point

  val mul : Bn.t -> point -> point
  (** Left-to-right double-and-add, one Modring operation per bit. *)

  val base_mul : Bn.t -> point

  val of_bytes : string -> point option
  (** Parses an uncompressed SEC 1 point (65 bytes). *)
end

module Ecdsa : sig
  val sign : Bn.t -> string -> string
  val sign_digest : Bn.t -> string -> string
  val verify : P256.point -> msg:string -> signature:string -> bool
  val verify_digest : P256.point -> digest:string -> signature:string -> bool
end

module Aes : sig
  (** The textbook FIPS 197 cipher, one byte per array slot, with the
      decryption direction the production {!Watz_crypto.Aes} dropped. *)

  type key

  val expand_key : string -> key
  val encrypt_block : key -> string -> string
  val decrypt_block : key -> string -> string
end

module Gcm : sig
  val encrypt : key:string -> iv:string -> ?aad:string -> string -> string * string

  val ghash_bytes : h:string -> string list -> string
  (** Bit-by-bit GHASH over 16-byte-padded parts; [h] is the 16-byte
      hash subkey. Ground truth for the table-driven implementation. *)
end
