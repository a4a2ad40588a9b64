(** Montgomery arithmetic for 256-bit prime rings.

    The fast-path replacement for the generic Barrett ring ([Modring],
    now only in the reference crypto of [lib/crypto/ref]) in the P-256
    hot loops: 9 limbs of 29 bits in native ints, a Montgomery product
    in product-scanning columns, and safegcd inversion (Bernstein and
    Yang's divsteps: a fixed count, with no branch on the input). One
    {!ring} instance each backs the P-256 field (mod p) and scalar ring
    (mod n). {!create} gives the ring mod p its own straight-line
    product and squaring, which reduce by p's shape with shifts; every
    other modulus gets the generic product, one loop over the columns,
    and squares with it. Both products give the same limbs. Numbers
    enter and leave as 32 big-endian bytes, or as limbs in flat tables:
    the production crypto has no other number type.

    The arithmetic is destination-passing and allocates nothing:
    [op_into r dst a b] overwrites [dst], which may be [a], [b] or both.
    Only the constructors ({!zero}, {!one}, {!of_bytes},
    {!of_bytes_mod}) and {!to_string} allocate; the generic product,
    {!to_bytes} and {!inv_into} work in per-domain scratch. Elements
    are tied to the ring they were created with;
    mixing rings is a caller bug and silently computes garbage. All
    values stay fully reduced, so {!equal}/{!is_zero} are plain
    representation comparisons. *)

type t
(** A mutable ring element, internally in Montgomery form. *)

type ring

val create : string -> ring
(** [create m] for an odd modulus [2^255 < m < 2^256] as 32 big-endian
    bytes; raises [Invalid_argument] on any other. {!inv_into} and the
    semantics of the ring additionally assume [m] prime. *)

val zero : ring -> t
(** A fresh element holding 0. *)

val one : ring -> t
(** A fresh element holding 1. *)

val of_bytes : ring -> string -> int -> t option
(** [of_bytes r s off] is a fresh element holding the 32 big-endian
    bytes at [s.[off]], or [None] if their value is not below the
    modulus. *)

val of_bytes_mod : ring -> string -> int -> t
(** [of_bytes_mod r s off] is a fresh element holding the 32 big-endian
    bytes at [s.[off]] reduced mod m, by one conditional subtraction:
    any 32 bytes are below 2m. *)

val to_bytes : ring -> Bytes.t -> int -> t -> unit
(** [to_bytes r b off a] writes [a] as 32 big-endian bytes at
    [b.[off]]. Allocates nothing. *)

val to_string : ring -> t -> string
(** [a] as a fresh string of 32 big-endian bytes. *)

val mul_into : ring -> t -> t -> t -> unit
(** [mul_into r dst a b] sets [dst] to [a * b]. *)

val sqr_into : ring -> t -> t -> unit
(** [sqr_into r dst a] sets [dst] to [a * a]. *)

val add_into : ring -> t -> t -> t -> unit
val sub_into : ring -> t -> t -> t -> unit

val inv_into : ring -> t -> t -> unit
(** [inv_into r dst a] sets [dst] to [a{^-1}] by 609 branch-free
    divsteps on [a]'s limbs, then one product that returns to
    Montgomery form; requires a prime modulus. Inverting zero gives
    zero. Uses per-domain scratch and allocates nothing. *)

val set : t -> t -> unit
(** [set dst a] copies [a] into [dst]. *)

val set_one : ring -> t -> unit

val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : ring -> t -> bool

(** {2 Flat storage}

    Tables of many elements live in one [int array], {!limbs} ints per
    element, so a table is one heap block rather than one per element. *)

val limbs : int

val load : t -> int array -> int -> unit
(** [load dst buf off] copies the element stored at [buf.(off)]. *)

val store : int array -> int -> t -> unit
(** [store buf off a] writes [a] at [buf.(off)]. *)
