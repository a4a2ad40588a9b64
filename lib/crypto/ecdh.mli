(** Ephemeral elliptic-curve Diffie–Hellman on P-256 (ECDHE): key pairs
    are fresh for every remote-attestation run, for §IV's freshness and
    forward secrecy. A private key is 32 big-endian bytes in
    [\[1, n-1\]], kept abstract. *)

type private_key
type keypair = { priv : private_key; pub : P256.point }

val generate : random:(int -> string) -> keypair
(** [generate ~random] draws 32-byte candidate scalars from [random] (a
    byte source such as {!Fortuna.generate}) until one is in [\[1, n-1\]]. *)

val shared_secret : priv:private_key -> peer:P256.point -> string option
(** The 32-byte big-endian x-coordinate of [priv * peer], or [None] if
    the result is the point at infinity (invalid peer key). *)
