(** Arbitrary-precision natural numbers.

    Numbers are little-endian arrays of 26-bit limbs stored in OCaml
    [int]s, sized so that schoolbook multiplication never overflows a
    63-bit native integer. This is the bignum of the reference crypto
    and the tests: it backs the Barrett rings of {!Modring} and the
    reference curve of {!Refcrypto}, and the tests build scalars and
    read points with it. The production crypto ([Watz_crypto]) has no
    bignum; its numbers are {!Watz_crypto.Fe256} limbs and 32-byte
    big-endian strings.

    All values are non-negative; [sub] raises on underflow. *)

type t

val zero : t
val one : t
val of_int : int -> t
(** Requires a non-negative argument. *)

val to_int : t -> int
(** Raises [Invalid_argument] if the value does not fit in an [int]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] requires [a >= b]. *)

val mul : t -> t -> t
val div_mod : t -> t -> t * t
(** [div_mod a b] is [(a / b, a mod b)]. Raises [Division_by_zero]. *)

val mod_ : t -> t -> t
val bit_length : t -> int
val testbit : t -> int -> bool
val shift_left : t -> int -> t
(** Shift by a bit count. *)

val shift_right : t -> int -> t
val shift_left_limbs : t -> int -> t
val shift_right_limbs : t -> int -> t
val truncate_limbs : t -> int -> t
(** [truncate_limbs a k] is [a mod base{^k}]. *)

val limb_count : t -> int
val of_bytes_be : string -> t
val to_bytes_be : len:int -> t -> string
(** Big-endian, left-padded with zeros to [len] bytes. Raises
    [Invalid_argument] if the value needs more than [len] bytes. *)

val of_hex : string -> t
val to_hex : t -> string
val pp : Format.formatter -> t -> unit
