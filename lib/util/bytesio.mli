(** Binary readers and writers used by every codec in the project
    (Wasm binary format, attestation messages, network frames).

    Integers are little-endian unless the function name says otherwise,
    matching both the Wasm specification and the attestation wire
    format. *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val contents : t -> string
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int32 -> unit
  val u64 : t -> int64 -> unit
  val uleb : t -> int64 -> unit
  val sleb : t -> int64 -> unit
  val bytes : t -> string -> unit

  val len_bytes : t -> string -> unit
  (** [len_bytes w s] writes the ULEB128 length of [s] followed by [s]. *)
end

module Reader : sig
  type t

  exception Truncated
  (** Raised when reading past the end of the input. *)

  exception Overflow
  (** Raised by the LEB128 readers when a variable-length integer needs
      more than [max_bits] bits (an overlong continuation chain, or a
      final byte with payload bits beyond the limit). A typed sibling
      of {!Truncated}, so untrusted-input decoders can translate both
      into their own malformed-input error instead of leaking an
      [Invalid_argument] out of a parsing hot path. *)

  val of_string : ?pos:int -> ?len:int -> string -> t
  val pos : t -> int
  val remaining : t -> int
  val eof : t -> bool
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int32
  val u64 : t -> int64

  val uleb : t -> max_bits:int -> int
  (** ULEB128 decoding into a native int, [max_bits] <= 62; raises
      {!Overflow} if the encoding needs more than [max_bits] bits or
      sets payload bits beyond them in its final byte. *)

  val sleb_int : t -> max_bits:int -> int
  (** SLEB128 decoding into a native int, [max_bits] <= 62; raises
      {!Overflow} on an overlong encoding or when the final byte's bits
      beyond [max_bits] are not copies of the sign bit. *)

  val sleb : t -> max_bits:int -> int64
  (** SLEB128 decoding for values up to 64 bits (Wasm [i64.const]). *)

  val bytes : t -> int -> string

  val len_bytes : t -> string
  (** Inverse of {!Writer.len_bytes}. *)

  val sub : t -> int -> t
  (** [sub r n] is a reader over the next [n] bytes, advancing [r]. *)
end
