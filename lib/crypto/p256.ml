(* Domain parameters from SEC 2 / FIPS 186-4.

   Point arithmetic runs on the {!Fe256} Montgomery field. Hot paths:
   4-bit windowed scalar multiplication, mixed (Z=1) additions against
   affine tables, a lazily-built fixed-base comb for the generator
   (base_mul is 64 mixed adds and no doublings), and Shamir's trick for
   the u1*G + u2*Q shape of ECDSA verification. Points carry a
   memoized affine window table, and a key that verifies often moves
   to its own memoized comb, so long-lived keys (verifier identity,
   endorsed attestation keys) pay table setup once across sessions. *)

let p = Bn.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"
let n = Bn.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"
let b_coeff = Bn.of_hex "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"
let gx = Bn.of_hex "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
let gy = Bn.of_hex "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"
let field_ring = Fe256.create p
let scalar_ring = Fe256.create n

module Fe = Fe256

let fp = field_ring
let fadd = Fe.add fp
let fsub = Fe.sub fp
let fmul = Fe.mul fp
let fsqr = Fe.sqr fp

let fe_a = Fe.of_bn fp (Bn.sub p (Bn.of_int 3)) (* a = -3 mod p *)
let fe_b = Fe.of_bn fp b_coeff

(* An affine point in Montgomery form; never the point at infinity. *)
type affine = { ax : Fe.t; ay : Fe.t }

(* Jacobian coordinates: (X, Y, Z) represents (X/Z^2, Y/Z^3); Z = 0 is
   the point at infinity. [memo] caches the [1..15]P affine window
   table for this exact point value; [enc] caches the uncompressed
   SEC 1 encoding (each fresh encode costs a field inversion, and
   session keys are encoded several times per protocol run); [uses]
   counts the point's window-ladder [double_mul] calls until
   [comb_memo] holds its comb (see {!comb_threshold}). *)
type point = {
  x : Fe.t;
  y : Fe.t;
  z : Fe.t;
  mutable memo : affine array option;
  mutable enc : string option;
  mutable uses : int;
  mutable comb_memo : affine array array option;
}

let jac x y z = { x; y; z; memo = None; enc = None; uses = 0; comb_memo = None }
let infinity = jac (Fe.one fp) (Fe.one fp) (Fe.zero fp)
let is_infinity pt = Fe.is_zero pt.z

let on_curve_fe x y =
  let lhs = fsqr y in
  let rhs = fadd (fmul (fsqr x) x) (fadd (fmul fe_a x) fe_b) in
  Fe.equal lhs rhs

let on_curve x y =
  if Bn.compare x p >= 0 || Bn.compare y p >= 0 then false
  else on_curve_fe (Fe.of_bn fp x) (Fe.of_bn fp y)

let of_affine x y =
  if not (on_curve x y) then invalid_arg "P256.of_affine: point not on curve";
  jac (Fe.of_bn fp x) (Fe.of_bn fp y) (Fe.one fp)

let base = jac (Fe.of_bn fp gx) (Fe.of_bn fp gy) (Fe.one fp)

let to_affine_fe pt =
  if is_infinity pt then None
  else if Fe.equal pt.z (Fe.one fp) then Some { ax = pt.x; ay = pt.y }
  else begin
    let zinv = Fe.inv fp pt.z in
    let zinv2 = fsqr zinv in
    Some { ax = fmul pt.x zinv2; ay = fmul pt.y (fmul zinv2 zinv) }
  end

let to_affine pt =
  match to_affine_fe pt with
  | None -> None
  | Some a -> Some (Fe.to_bn fp a.ax, Fe.to_bn fp a.ay)

(* dbl-2001-b: Jacobian doubling for a = -3; small-constant products
   are addition chains (3M + 5S, no generic constant muls). *)
let double pt =
  if is_infinity pt || Fe.is_zero pt.y then infinity
  else begin
    let delta = fsqr pt.z in
    let gamma = fsqr pt.y in
    let beta = fmul pt.x gamma in
    let t = fmul (fsub pt.x delta) (fadd pt.x delta) in
    let alpha = fadd (fadd t t) t in
    let beta2 = fadd beta beta in
    let beta4 = fadd beta2 beta2 in
    let x3 = fsub (fsqr alpha) (fadd beta4 beta4) in
    let z3 = fsub (fsqr (fadd pt.y pt.z)) (fadd gamma delta) in
    let g2 = fsqr gamma in
    let g4 = fadd g2 g2 in
    let g8 = fadd g4 g4 in
    let y3 = fsub (fmul alpha (fsub beta4 x3)) (fadd g8 g8) in
    jac x3 y3 z3
  end

(* add-2007-bl, with the equal/opposite special cases dispatched. *)
let add p1 p2 =
  if is_infinity p1 then p2
  else if is_infinity p2 then p1
  else begin
    let z1z1 = fsqr p1.z in
    let z2z2 = fsqr p2.z in
    let u1 = fmul p1.x z2z2 in
    let u2 = fmul p2.x z1z1 in
    let s1 = fmul p1.y (fmul z2z2 p2.z) in
    let s2 = fmul p2.y (fmul z1z1 p1.z) in
    if Fe.equal u1 u2 then if Fe.equal s1 s2 then double p1 else infinity
    else begin
      let h = fsub u2 u1 in
      let h2 = fadd h h in
      let i = fsqr h2 in
      let j = fmul h i in
      let sd = fsub s2 s1 in
      let r = fadd sd sd in
      let v = fmul u1 i in
      let x3 = fsub (fsub (fsqr r) j) (fadd v v) in
      let s1j = fmul s1 j in
      let y3 = fsub (fmul r (fsub v x3)) (fadd s1j s1j) in
      let z3 = fmul h (fsub (fsqr (fadd p1.z p2.z)) (fadd z1z1 z2z2)) in
      jac x3 y3 z3
    end
  end

(* Mixed addition (madd-2007-bl): the second operand is affine (Z = 1),
   saving ~5 field products over the general add. *)
let add_affine p1 a =
  if is_infinity p1 then jac a.ax a.ay (Fe.one fp)
  else begin
    let z1z1 = fsqr p1.z in
    let u2 = fmul a.ax z1z1 in
    let s2 = fmul a.ay (fmul p1.z z1z1) in
    if Fe.equal p1.x u2 then
      if Fe.equal p1.y s2 then double p1 else infinity
    else begin
      let h = fsub u2 p1.x in
      let hh = fsqr h in
      let hh2 = fadd hh hh in
      let i = fadd hh2 hh2 in
      let j = fmul h i in
      let sd = fsub s2 p1.y in
      let r = fadd sd sd in
      let v = fmul p1.x i in
      let x3 = fsub (fsub (fsqr r) j) (fadd v v) in
      let yj = fmul p1.y j in
      let y3 = fsub (fmul r (fsub v x3)) (fadd yj yj) in
      let z3 = fsub (fsqr (fadd p1.z h)) (fadd z1z1 hh) in
      jac x3 y3 z3
    end
  end

(* Montgomery's batch-inversion trick: one field inversion for a whole
   table of Jacobian points (none may be infinity). *)
let batch_to_affine pts =
  let k = Array.length pts in
  let prefix = Array.make k (Fe.one fp) in
  let acc = ref (Fe.one fp) in
  for i = 0 to k - 1 do
    prefix.(i) <- !acc;
    acc := fmul !acc pts.(i).z
  done;
  let inv = ref (Fe.inv fp !acc) in
  let out = Array.make k { ax = Fe.zero fp; ay = Fe.zero fp } in
  for i = k - 1 downto 0 do
    let zinv = fmul !inv prefix.(i) in
    inv := fmul !inv pts.(i).z;
    let zinv2 = fsqr zinv in
    out.(i) <- { ax = fmul pts.(i).x zinv2; ay = fmul pts.(i).y (fmul zinv2 zinv) }
  done;
  out

(* The [1..15]P affine window table, memoized on the point. *)
let window_table pt =
  match pt.memo with
  | Some tbl -> tbl
  | None ->
      let jtbl = Array.make 15 pt in
      for d = 1 to 14 do
        jtbl.(d) <- add jtbl.(d - 1) pt
      done;
      let tbl = batch_to_affine jtbl in
      pt.memo <- Some tbl;
      tbl

let prepare pt = if not (is_infinity pt) then ignore (window_table pt)

(* Scalars as 64 big-endian nibbles; index 0 is the most significant. *)
let scalar_nibbles k = Bn.to_bytes_be ~len:32 (Bn.mod_ k n)

let nibble s i =
  let b = Char.code (String.unsafe_get s (i lsr 1)) in
  if i land 1 = 0 then b lsr 4 else b land 0xf

let mul k pt =
  if is_infinity pt then infinity
  else begin
    let s = scalar_nibbles k in
    let tbl = window_table pt in
    let acc = ref infinity in
    for i = 0 to 63 do
      if not (is_infinity !acc) then begin
        acc := double !acc;
        acc := double !acc;
        acc := double !acc;
        acc := double !acc
      end;
      let d = nibble s i in
      if d > 0 then acc := add_affine !acc tbl.(d - 1)
    done;
    !acc
  end

(* A comb: row j holds [1..15] * 16^j * P, affine. Every scalar
   d * 16^j stays below n (15 * 16^63 < n), so no entry of a finite
   point's comb is infinity and one batch inversion normalises all 960. *)
let build_comb pt =
  let jrows = Array.make 64 [||] in
  let pj = ref pt in
  for j = 0 to 63 do
    let row = Array.make 15 !pj in
    for d = 1 to 14 do
      row.(d) <- add row.(d - 1) !pj
    done;
    jrows.(j) <- row;
    if j < 63 then pj := double (double (double (double !pj)))
  done;
  let affine = batch_to_affine (Array.concat (Array.to_list jrows)) in
  Array.init 64 (fun j -> Array.sub affine (j * 15) 15)

(* The fixed-base comb for G, built lazily (one-time ~5 ms); after that
   base_mul is at most 64 mixed additions and zero doublings.

   The cell is [Atomic] because the comb is the one lazy table shared
   by every fleet domain: the atomic store publishes the fully-built
   (and thereafter immutable) arrays, so a reader either sees [None]
   and builds its own, or sees a complete comb. Concurrent builders
   race benignly — the construction is deterministic, so whichever
   store lands last publishes the same table the loser computed. *)
let comb = Atomic.make None

let get_comb () =
  match Atomic.get comb with
  | Some c -> c
  | None ->
      let c = build_comb base in
      Atomic.set comb (Some c);
      c

let base_mul k =
  let s = scalar_nibbles k in
  let c = get_comb () in
  let acc = ref infinity in
  for i = 0 to 63 do
    let d = nibble s i in
    (* nibble index i has significance 63 - i *)
    if d > 0 then acc := add_affine !acc c.(63 - i).(d - 1)
  done;
  !acc

(* Shamir/Straus interleaving for u1*G + u2*Q: one shared doubling
   ladder, window adds from the generator comb's position-0 table and
   from Q's memoized window table. *)
let ladder_double_mul u1 u2 q =
  let s1 = scalar_nibbles u1 in
  let s2 = scalar_nibbles u2 in
  let gtbl = (get_comb ()).(0) in
  let qtbl = window_table q in
  let acc = ref infinity in
  for i = 0 to 63 do
    if not (is_infinity !acc) then begin
      acc := double !acc;
      acc := double !acc;
      acc := double !acc;
      acc := double !acc
    end;
    let d1 = nibble s1 i in
    if d1 > 0 then acc := add_affine !acc gtbl.(d1 - 1);
    let d2 = nibble s2 i in
    if d2 > 0 then acc := add_affine !acc qtbl.(d2 - 1)
  done;
  !acc

(* u1*G + u2*Q with both scalars walking combs: at most 128 mixed
   additions and none of the ladder's 252 doublings. *)
let comb_double_mul u1 u2 qc =
  let s1 = scalar_nibbles u1 in
  let s2 = scalar_nibbles u2 in
  let gc = get_comb () in
  let acc = ref infinity in
  for i = 0 to 63 do
    let d1 = nibble s1 i in
    if d1 > 0 then acc := add_affine !acc gc.(63 - i).(d1 - 1);
    let d2 = nibble s2 i in
    if d2 > 0 then acc := add_affine !acc qc.(63 - i).(d2 - 1)
  done;
  !acc

(* Measured with OCaml 5.1 on a 2-vCPU Xeon VM: a comb costs 7.6-9 ms
   and 863k minor words to build, and each double_mul on it saves
   0.65-0.9 ms and 113k words against the window ladder (83k vs 196k
   words), so it pays for itself after 8 to 12 uses. The threshold sits
   at the low end of that range because the keys that pass it (endorsed
   attestation keys, a pinned verifier identity, a board's vendor key)
   keep verifying for the rest of the run, while a key decoded for one
   handshake never gets near it. *)
let comb_threshold = 8

let double_mul u1 u2 q =
  if is_infinity q then base_mul u1
  else
    match q.comb_memo with
    | Some qc -> comb_double_mul u1 u2 qc
    | None when q.uses < comb_threshold ->
        q.uses <- q.uses + 1;
        ladder_double_mul u1 u2 q
    | None ->
        let qc = build_comb q in
        q.comb_memo <- Some qc;
        comb_double_mul u1 u2 qc

(* Cross-multiplied comparison: x1*z2^2 = x2*z1^2 (and same for y with
   cubes) avoids any inversion. *)
let equal p1 p2 =
  match (is_infinity p1, is_infinity p2) with
  | true, true -> true
  | true, false | false, true -> false
  | false, false ->
      let z1z1 = fsqr p1.z in
      let z2z2 = fsqr p2.z in
      Fe.equal (fmul p1.x z2z2) (fmul p2.x z1z1)
      && Fe.equal (fmul p1.y (fmul z2z2 p2.z)) (fmul p2.y (fmul z1z1 p1.z))

let encode pt =
  match pt.enc with
  | Some s -> s
  | None -> (
    match to_affine pt with
    | None -> invalid_arg "P256.encode: point at infinity"
    | Some (x, y) ->
      let s = "\x04" ^ Bn.to_bytes_be ~len:32 x ^ Bn.to_bytes_be ~len:32 y in
      pt.enc <- Some s;
      s)

let decode s =
  if String.length s <> 65 || s.[0] <> '\x04' then None
  else begin
    let x = Bn.of_bytes_be (String.sub s 1 32) in
    let y = Bn.of_bytes_be (String.sub s 33 32) in
    if on_curve x y then begin
      (* a decoded point re-encodes to its own input for free *)
      let pt = jac (Fe.of_bn fp x) (Fe.of_bn fp y) (Fe.one fp) in
      pt.enc <- Some s;
      Some pt
    end
    else None
  end

(* Force the one-time lazy tables (the fixed-base comb) so a server's
   first session does not pay their construction inside its latency. *)
let prewarm () = ignore (get_comb ())
