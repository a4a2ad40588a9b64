(** The NIST P-256 (secp256r1) elliptic curve.

    WaTZ selects this curve (§V) for the attestation key pair (ECDSA),
    the session keys (ECDHE) and the evidence signatures. Points are
    computed in Jacobian coordinates over the {!Fe256} Montgomery
    field, with 4-bit windowed scalar multiplication, a fixed-base comb
    for the generator, and Shamir's trick for the ECDSA-verify shape
    until a key has verified often enough to earn its own comb. The
    formulas run in place on a per-domain workspace, so each call
    allocates little beyond its result. Scalars, the curve's constants
    and the coordinates a point gives out are 32 big-endian bytes.

    Caution: like the rest of this simulation's crypto, the scalar
    ladders here are *not* constant-time (window digits index tables,
    special cases branch). See DESIGN.md on the fast-path contract. *)

type point
(** A point on the curve, including the point at infinity. Points carry
    memo state that is part of the cache, not the value ({!equal}
    ignores it): a window table (see {!prepare}), their SEC 1 encoding,
    and a {!double_mul} use count that moves a key used often enough
    onto its own comb (see {!comb_threshold}). *)

val field_ring : Fe256.ring
(** Montgomery ring for F{_p} — the fast path used by the point ops. *)

val scalar_ring : Fe256.ring
(** Montgomery ring for F{_n}, shared with {!Ecdsa}. *)

val infinity : point
val is_infinity : point -> bool
val base : point
(** The standard generator G. *)

val affine_x : point -> string option
(** The affine x-coordinate as 32 big-endian bytes, or [None] for the
    point at infinity. *)

val add : point -> point -> point
val double : point -> point

val mul : string -> point -> point
(** Scalar multiplication, 4-bit windowed. The scalar is 32 big-endian
    bytes (any other length raises [Invalid_argument]), reduced mod n.
    Builds (and memoizes) the point's window table. *)

val base_mul : string -> point
(** [k]G via the fixed-base comb: at most 64 mixed additions. *)

val double_mul : string -> string -> point -> point
(** [double_mul u1 u2 q] is [u1]G + [u2]Q — the ECDSA verification
    inner loop. Its first {!comb_threshold} calls on a point run
    Shamir's trick on one shared doubling ladder over the point's
    window table; the next call builds and memoizes the point's comb
    ([1..15] * 16{^j} * Q for every nibble position, ~64x the window
    table) and every call from then on walks it doubling-free. Same
    result either way. *)

val comb_threshold : int
(** The number of window-ladder {!double_mul} calls a point makes
    before it moves to its comb. A constant, not a setting: a comb
    pays for itself after 12 to 16 uses, which long-lived keys reach
    and keys decoded for a single handshake never do. *)

val prepare : point -> unit
(** Precompute and memoize the point's window table so later {!mul} /
    {!double_mul} calls skip table setup. Idempotent; a no-op on the
    point at infinity. Long-lived verifier keys should be prepared
    once and reused.

    Domain ownership: the memo — window table, encoding, {!double_mul}
    use count and comb — is an unsynchronised per-point cache, so a
    point must not be mutated from two domains at once. Either keep
    every point domain-private (the fleet constructs each shard's keys
    inside the shard's domain) or fully [prepare]/[encode] shared
    points before spawning and verify against them from one domain
    only — [Domain.spawn] publishes everything the parent wrote, but
    every {!double_mul} below the threshold bumps the count. The
    generator's comb is the one cross-domain table and is published
    atomically by {!prewarm}. *)

val prewarm : unit -> unit
(** Force the one-time lazy tables (the fixed-base comb for G) so a
    server's first request does not pay their construction. Safe to
    call from any domain (atomic publication; concurrent builders race
    benignly to identical tables). *)

val equal : point -> point -> bool

val encode : point -> string
(** Uncompressed SEC 1 encoding: [0x04 || x || y], 65 bytes, memoized
    per point (the first call pays the field inversion; later calls
    return the cached string). Raises [Invalid_argument] on the point
    at infinity. *)

val decode : string -> point option
(** Parses and validates an uncompressed point. *)
