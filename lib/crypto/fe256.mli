(** Montgomery arithmetic for 256-bit prime rings.

    The fast-path replacement for the generic Barrett ring ([Modring],
    now only in the reference crypto of [lib/crypto/ref]) in the P-256
    hot loops: 9 limbs of 29 bits in native ints, CIOS Montgomery
    products, and Fermat inversion. One {!ring} instance each backs the
    P-256 field (mod p) and scalar ring (mod n).

    Elements are tied to the ring they were created with; mixing rings
    is a caller bug and silently computes garbage. All values stay
    fully reduced, so {!equal}/{!is_zero} are plain representation
    comparisons. *)

type t
(** A ring element, internally in Montgomery form. *)

type ring

val create : Bn.t -> ring
(** [create m] for an odd modulus [m], [3 <= m < 2^256]. {!inv} and the
    semantics of the ring additionally assume [m] prime. *)

val modulus : ring -> Bn.t

val zero : ring -> t
val one : ring -> t
val of_bn : ring -> Bn.t -> t
(** Reduces mod [m] first, so any non-negative value is accepted. *)

val of_int : ring -> int -> t
val to_bn : ring -> t -> Bn.t

val add : ring -> t -> t -> t
val sub : ring -> t -> t -> t
val neg : ring -> t -> t
val mul : ring -> t -> t -> t
val sqr : ring -> t -> t

val inv : ring -> t -> t
(** Fermat inversion [a^(m-2)]; requires a prime modulus. [inv zero]
    returns zero. *)

val pow : ring -> t -> Bn.t -> t

val equal : t -> t -> bool
val is_zero : t -> bool
val copy : t -> t
