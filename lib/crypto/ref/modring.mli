(** Modular arithmetic over a fixed odd modulus using Barrett reduction.

    A [t] caches the Barrett constant for its modulus so that a modular
    multiplication costs three bignum multiplications instead of a long
    division. The reference P-256 ({!Refcrypto.P256}) runs its field
    and scalar rings on this; the production curve uses
    {!Watz_crypto.Fe256}, and the tests check the two agree. *)

type t

val create : Bn.t -> t
(** [create m] precomputes the reduction context for modulus [m > 1]. *)

val modulus : t -> Bn.t

val reduce : t -> Bn.t -> Bn.t
(** [reduce r x] is [x mod m] for any [x]. Fast when
    [x < m]{^2}[ * base]; falls back to division otherwise. *)

val add : t -> Bn.t -> Bn.t -> Bn.t
(** Arguments must already be reduced. *)

val sub : t -> Bn.t -> Bn.t -> Bn.t
val neg : t -> Bn.t -> Bn.t
val mul : t -> Bn.t -> Bn.t -> Bn.t
val sqr : t -> Bn.t -> Bn.t
val pow : t -> Bn.t -> Bn.t -> Bn.t
(** [pow r b e] is [b]{^e}[ mod m] by square-and-multiply. *)

val inv_prime : t -> Bn.t -> Bn.t
(** Inverse modulo a {e prime} modulus via Fermat's little theorem.
    Raises [Division_by_zero] on zero input. *)
