(* Domain parameters from SEC 2 / FIPS 186-4.

   Point arithmetic runs on the {!Fe256} Montgomery field, in place: the
   formulas read and write the elements of a per-domain workspace, and
   tables are flat limb arrays, so a public call allocates only its
   result (plus, once per point, its memoized tables). Hot paths:
   4-bit windowed scalar multiplication, mixed (Z=1) additions against
   affine tables, a lazily-built fixed-base comb for the generator
   (base_mul is 64 mixed adds and no doublings), and Shamir's trick for
   the u1*G + u2*Q shape of ECDSA verification. Points carry a
   memoized affine window table, and a key that verifies often moves
   to its own memoized comb, so long-lived keys (verifier identity,
   endorsed attestation keys) pay table setup once across sessions. *)

let hex = Watz_util.Hex.decode
let field_ring = Fe256.create (hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
let scalar_ring = Fe256.create (hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")

module Fe = Fe256

let fp = field_ring
let fe c = Fe.of_bytes_mod fp (hex c) 0
let fe_a = fe "ffffffff00000001000000000000000000000000fffffffffffffffffffffffc" (* -3 *)
let fe_b = fe "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"

(* Flat limb storage: an affine table entry is (x, y), [aff] ints; a
   Jacobian entry is (X, Y, Z), [jac_w] ints. *)
let lw = Fe.limbs
let aff = 2 * lw
let jac_w = 3 * lw

(* Jacobian coordinates: (X, Y, Z) represents (X/Z^2, Y/Z^3); Z = 0 is
   the point at infinity. [memo] caches the [1..15]P affine window
   table for this exact point value (15 flat entries); [enc] caches the
   uncompressed SEC 1 encoding (each fresh encode costs a field
   inversion, and session keys are encoded several times per protocol
   run); [uses] counts the point's window-ladder [double_mul] calls
   until [comb_memo] holds its comb (see {!comb_threshold}). A point's
   coordinates are never written after construction. *)
type point = {
  x : Fe.t;
  y : Fe.t;
  z : Fe.t;
  mutable memo : int array option;
  mutable enc : string option;
  mutable uses : int;
  mutable comb_memo : int array option;
}

let jac x y z = { x; y; z; memo = None; enc = None; uses = 0; comb_memo = None }
let infinity = jac (Fe.one fp) (Fe.one fp) (Fe.zero fp)
let is_infinity pt = Fe.is_zero pt.z

let fresh a =
  let e = Fe.zero fp in
  Fe.set e a;
  e

(* The working registers of every formula below: a Jacobian
   accumulator (A), an affine operand (P, loaded from a table), eight
   temporaries, and room for the 15 Jacobian multiples of a window
   table. One per domain, because fleet shards are domains; each public
   call fetches it once and passes it down, and no public function is
   called while it holds live values. *)
type ws = {
  ax : Fe.t;
  ay : Fe.t;
  az : Fe.t;
  px : Fe.t;
  py : Fe.t;
  t0 : Fe.t;
  t1 : Fe.t;
  t2 : Fe.t;
  t3 : Fe.t;
  t4 : Fe.t;
  t5 : Fe.t;
  t6 : Fe.t;
  t7 : Fe.t;
  jtbl : int array;
}

let workspace =
  Domain.DLS.new_key (fun () ->
      let e () = Fe.zero fp in
      { ax = e (); ay = e (); az = e (); px = e (); py = e (); t0 = e (); t1 = e (); t2 = e ();
        t3 = e (); t4 = e (); t5 = e (); t6 = e (); t7 = e (); jtbl = Array.make (15 * jac_w) 0 })

let set_acc ws x y z =
  Fe.set ws.ax x;
  Fe.set ws.ay y;
  Fe.set ws.az z

let set_infinity ws = set_acc ws infinity.x infinity.y infinity.z

let point_of_acc ws =
  if Fe.is_zero ws.az then infinity else jac (fresh ws.ax) (fresh ws.ay) (fresh ws.az)

let store_acc ws buf i =
  Fe.store buf (i * jac_w) ws.ax;
  Fe.store buf ((i * jac_w) + lw) ws.ay;
  Fe.store buf ((i * jac_w) + (2 * lw)) ws.az

let load_affine ws tbl i =
  Fe.load ws.px tbl (i * aff);
  Fe.load ws.py tbl ((i * aff) + lw)

(* A <- 2A. dbl-2001-b, Jacobian doubling for a = -3; small-constant
   products are addition chains (3M + 5S, no generic constant muls). *)
let dbl ws =
  let { ax = x; ay = y; az = z; t0; t1; t2; t3; t4; _ } = ws in
  if Fe.is_zero z || Fe.is_zero y then set_infinity ws
  else begin
    Fe.sqr_into fp t0 z (* delta *);
    Fe.sqr_into fp t1 y (* gamma *);
    Fe.mul_into fp t2 x t1 (* beta *);
    Fe.sub_into fp t3 x t0;
    Fe.add_into fp t4 x t0;
    Fe.mul_into fp t3 t3 t4;
    Fe.add_into fp t4 t3 t3;
    Fe.add_into fp t3 t4 t3 (* alpha = 3 (X - delta)(X + delta) *);
    (* Z3 = (Y + Z)^2 - (gamma + delta) *)
    Fe.add_into fp z y z;
    Fe.sqr_into fp z z;
    Fe.add_into fp t0 t1 t0;
    Fe.sub_into fp z z t0;
    (* X3 = alpha^2 - 8 beta *)
    Fe.add_into fp t2 t2 t2;
    Fe.add_into fp t2 t2 t2 (* 4 beta *);
    Fe.sqr_into fp x t3;
    Fe.add_into fp t0 t2 t2;
    Fe.sub_into fp x x t0;
    (* Y3 = alpha (4 beta - X3) - 8 gamma^2 *)
    Fe.sub_into fp t2 t2 x;
    Fe.mul_into fp t2 t3 t2;
    Fe.sqr_into fp t1 t1;
    Fe.add_into fp t1 t1 t1;
    Fe.add_into fp t1 t1 t1;
    Fe.add_into fp t1 t1 t1;
    Fe.sub_into fp y t2 t1
  end

(* A <- A + (X2, Y2, Z2). add-2007-bl, with the equal/opposite special
   cases dispatched; the operand must not be A's own elements. *)
let jadd ws x2 y2 z2 =
  let { ax = x1; ay = y1; az = z1; t0; t1; t2; t3; t4; t5; t6; t7; _ } = ws in
  if Fe.is_zero z2 then ()
  else if Fe.is_zero z1 then set_acc ws x2 y2 z2
  else begin
    Fe.sqr_into fp t0 z1 (* Z1Z1 *);
    Fe.sqr_into fp t1 z2 (* Z2Z2 *);
    Fe.mul_into fp t2 x1 t1 (* U1 *);
    Fe.mul_into fp t3 x2 t0 (* U2 *);
    Fe.mul_into fp t4 z2 t1;
    Fe.mul_into fp t4 y1 t4 (* S1 *);
    Fe.mul_into fp t5 z1 t0;
    Fe.mul_into fp t5 y2 t5 (* S2 *);
    if Fe.equal t2 t3 then if Fe.equal t4 t5 then dbl ws else set_infinity ws
    else begin
      Fe.sub_into fp t3 t3 t2 (* H *);
      Fe.add_into fp t6 t3 t3;
      Fe.sqr_into fp t6 t6 (* I = (2H)^2 *);
      Fe.mul_into fp t7 t3 t6 (* J *);
      Fe.sub_into fp t5 t5 t4;
      Fe.add_into fp t5 t5 t5 (* r = 2 (S2 - S1) *);
      Fe.mul_into fp t2 t2 t6 (* V *);
      (* Z3 = ((Z1 + Z2)^2 - (Z1Z1 + Z2Z2)) H *)
      Fe.add_into fp z1 z1 z2;
      Fe.sqr_into fp z1 z1;
      Fe.add_into fp t0 t0 t1;
      Fe.sub_into fp z1 z1 t0;
      Fe.mul_into fp z1 z1 t3;
      (* X3 = r^2 - J - 2V *)
      Fe.sqr_into fp x1 t5;
      Fe.sub_into fp x1 x1 t7;
      Fe.add_into fp t0 t2 t2;
      Fe.sub_into fp x1 x1 t0;
      (* Y3 = r (V - X3) - 2 S1 J *)
      Fe.mul_into fp t4 t4 t7;
      Fe.add_into fp t4 t4 t4;
      Fe.sub_into fp t2 t2 x1;
      Fe.mul_into fp y1 t5 t2;
      Fe.sub_into fp y1 y1 t4
    end
  end

(* A <- A + P, P = (px, py) affine. Mixed addition (madd-2007-bl)
   saves ~5 field products over the general add. *)
let madd ws =
  let { ax = x; ay = y; az = z; px; py; t0; t1; t2; t3; t4; t5; t6; _ } = ws in
  if Fe.is_zero z then begin
    Fe.set x px;
    Fe.set y py;
    Fe.set_one fp z
  end
  else begin
    Fe.sqr_into fp t0 z (* Z1Z1 *);
    Fe.mul_into fp t1 px t0 (* U2 *);
    Fe.mul_into fp t2 z t0;
    Fe.mul_into fp t2 py t2 (* S2 *);
    if Fe.equal x t1 then if Fe.equal y t2 then dbl ws else set_infinity ws
    else begin
      Fe.sub_into fp t1 t1 x (* H *);
      Fe.sqr_into fp t3 t1 (* HH *);
      Fe.add_into fp t4 t3 t3;
      Fe.add_into fp t4 t4 t4 (* I = 4 HH *);
      Fe.mul_into fp t5 t1 t4 (* J *);
      Fe.sub_into fp t2 t2 y;
      Fe.add_into fp t2 t2 t2 (* r = 2 (S2 - Y1) *);
      Fe.mul_into fp t4 x t4 (* V *);
      (* Z3 = (Z1 + H)^2 - (Z1Z1 + HH) *)
      Fe.add_into fp z z t1;
      Fe.sqr_into fp z z;
      Fe.add_into fp t0 t0 t3;
      Fe.sub_into fp z z t0;
      (* X3 = r^2 - J - 2V *)
      Fe.sqr_into fp x t2;
      Fe.sub_into fp x x t5;
      Fe.add_into fp t6 t4 t4;
      Fe.sub_into fp x x t6;
      (* Y3 = r (V - X3) - 2 Y1 J *)
      Fe.mul_into fp t5 y t5;
      Fe.add_into fp t5 t5 t5;
      Fe.sub_into fp t4 t4 x;
      Fe.mul_into fp y t2 t4;
      Fe.sub_into fp y y t5
    end
  end

(* P <- the affine form of a finite point. *)
let affine_of ws pt =
  if Fe.is_one fp pt.z then begin
    Fe.set ws.px pt.x;
    Fe.set ws.py pt.y
  end
  else begin
    Fe.inv_into fp ws.t0 pt.z;
    Fe.sqr_into fp ws.t1 ws.t0;
    Fe.mul_into fp ws.px pt.x ws.t1;
    Fe.mul_into fp ws.t1 ws.t1 ws.t0;
    Fe.mul_into fp ws.py pt.y ws.t1
  end

let on_curve_fe ws x y =
  let { t0; t1; t2; _ } = ws in
  Fe.sqr_into fp t0 y;
  Fe.sqr_into fp t1 x;
  Fe.mul_into fp t1 t1 x;
  Fe.mul_into fp t2 fe_a x;
  Fe.add_into fp t2 t2 fe_b;
  Fe.add_into fp t1 t1 t2;
  Fe.equal t0 t1

let gx = fe "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
let gy = fe "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"
let base = jac gx gy (Fe.one fp)

let affine_x pt =
  if is_infinity pt then None
  else begin
    let ws = Domain.DLS.get workspace in
    affine_of ws pt;
    Some (Fe.to_string fp ws.px)
  end

let double pt =
  if is_infinity pt || Fe.is_zero pt.y then infinity
  else begin
    let ws = Domain.DLS.get workspace in
    set_acc ws pt.x pt.y pt.z;
    dbl ws;
    point_of_acc ws
  end

let add p1 p2 =
  if is_infinity p1 then p2
  else if is_infinity p2 then p1
  else begin
    let ws = Domain.DLS.get workspace in
    set_acc ws p1.x p1.y p1.z;
    jadd ws p2.x p2.y p2.z;
    point_of_acc ws
  end

(* Montgomery's batch-inversion trick: [k] Jacobian entries of [jflat]
   (none infinity) to affine entries of [out], with one field
   inversion. Entry i's x slot holds the prefix product z_0...z_(i-1)
   until the backward pass replaces it. *)
let batch_to_affine ws jflat k out =
  let { t0 = acc; t1 = zi; t2 = zinv; t3 = zinv2; t4 = c; _ } = ws in
  Fe.set_one fp acc;
  for i = 0 to k - 1 do
    Fe.store out (i * aff) acc;
    Fe.load zi jflat ((i * jac_w) + (2 * lw));
    Fe.mul_into fp acc acc zi
  done;
  Fe.inv_into fp acc acc;
  for i = k - 1 downto 0 do
    Fe.load zi jflat ((i * jac_w) + (2 * lw));
    Fe.load zinv out (i * aff);
    Fe.mul_into fp zinv acc zinv (* 1 / z_i *);
    Fe.mul_into fp acc acc zi;
    Fe.sqr_into fp zinv2 zinv;
    Fe.load c jflat (i * jac_w);
    Fe.mul_into fp c c zinv2;
    Fe.store out (i * aff) c;
    Fe.mul_into fp zinv2 zinv2 zinv;
    Fe.load c jflat ((i * jac_w) + lw);
    Fe.mul_into fp c c zinv2;
    Fe.store out ((i * aff) + lw) c
  done

(* The [1..15]P affine window table, memoized on the point. *)
let window_table ws pt =
  match pt.memo with
  | Some tbl -> tbl
  | None ->
      set_acc ws pt.x pt.y pt.z;
      store_acc ws ws.jtbl 0;
      for d = 1 to 14 do
        jadd ws pt.x pt.y pt.z;
        store_acc ws ws.jtbl d
      done;
      let tbl = Array.make (15 * aff) 0 in
      batch_to_affine ws ws.jtbl 15 tbl;
      pt.memo <- Some tbl;
      tbl

let prepare pt =
  if not (is_infinity pt) then ignore (window_table (Domain.DLS.get workspace) pt)

(* A scalar is 32 big-endian bytes, reduced mod n by [Fe]'s one
   conditional subtraction and read as 64 nibbles, the first the most
   significant. *)
let scalar_nibbles k =
  if String.length k <> 32 then invalid_arg "P256: a scalar is 32 bytes";
  Fe.to_string scalar_ring (Fe.of_bytes_mod scalar_ring k 0)

let nibble s i =
  let b = Char.code (String.unsafe_get s (i lsr 1)) in
  if i land 1 = 0 then b lsr 4 else b land 0xf

let mul k pt =
  if is_infinity pt then infinity
  else begin
    let ws = Domain.DLS.get workspace in
    let s = scalar_nibbles k in
    let tbl = window_table ws pt in
    set_infinity ws;
    for i = 0 to 63 do
      if not (Fe.is_zero ws.az) then begin
        dbl ws;
        dbl ws;
        dbl ws;
        dbl ws
      end;
      let d = nibble s i in
      if d > 0 then begin
        load_affine ws tbl (d - 1);
        madd ws
      end
    done;
    point_of_acc ws
  end

(* A comb: row j holds [1..15] * 16^j * P, affine, at entries
   15j .. 15j + 14. Every scalar d * 16^j stays below n
   (15 * 16^63 < n), so no entry of a finite point's comb is infinity
   and one batch inversion normalises all 960. *)
let build_comb ws pt =
  let jflat = Array.make (960 * jac_w) 0 in
  (* (bx, by, bz) = 16^j P *)
  let bx = fresh pt.x and by = fresh pt.y and bz = fresh pt.z in
  for j = 0 to 63 do
    set_acc ws bx by bz;
    store_acc ws jflat (15 * j);
    for d = 1 to 14 do
      jadd ws bx by bz;
      store_acc ws jflat ((15 * j) + d)
    done;
    if j < 63 then begin
      set_acc ws bx by bz;
      dbl ws;
      dbl ws;
      dbl ws;
      dbl ws;
      Fe.set bx ws.ax;
      Fe.set by ws.ay;
      Fe.set bz ws.az
    end
  done;
  let out = Array.make (960 * aff) 0 in
  batch_to_affine ws jflat 960 out;
  out

(* The fixed-base comb for G, built lazily (one-time ~4 ms); after that
   base_mul is at most 64 mixed additions and zero doublings.

   The cell is [Atomic] because the comb is the one lazy table shared
   by every fleet domain: the atomic store publishes the fully-built
   (and thereafter immutable) array, so a reader either sees [None]
   and builds its own, or sees a complete comb. Concurrent builders
   race benignly — the construction is deterministic, so whichever
   store lands last publishes the same table the loser computed. *)
let comb = Atomic.make None

(* Builds through [ws], so callers fetch the comb before loading the
   accumulator. *)
let get_comb ws =
  match Atomic.get comb with
  | Some c -> c
  | None ->
      let c = build_comb ws base in
      Atomic.set comb (Some c);
      c

(* A <- sum of comb entries for the nibbles of [s]; nibble index i
   has significance 63 - i. *)
let comb_walk ws c s =
  for i = 0 to 63 do
    let d = nibble s i in
    if d > 0 then begin
      load_affine ws c ((15 * (63 - i)) + d - 1);
      madd ws
    end
  done

let base_mul k =
  let ws = Domain.DLS.get workspace in
  let s = scalar_nibbles k in
  let c = get_comb ws in
  set_infinity ws;
  comb_walk ws c s;
  point_of_acc ws

(* Shamir/Straus interleaving for u1*G + u2*Q: one shared doubling
   ladder, window adds from the generator comb's row 0 and from Q's
   memoized window table. *)
let ladder_double_mul ws u1 u2 q =
  let s1 = scalar_nibbles u1 in
  let s2 = scalar_nibbles u2 in
  let gc = get_comb ws in
  let qtbl = window_table ws q in
  set_infinity ws;
  for i = 0 to 63 do
    if not (Fe.is_zero ws.az) then begin
      dbl ws;
      dbl ws;
      dbl ws;
      dbl ws
    end;
    let d1 = nibble s1 i in
    if d1 > 0 then begin
      load_affine ws gc (d1 - 1);
      madd ws
    end;
    let d2 = nibble s2 i in
    if d2 > 0 then begin
      load_affine ws qtbl (d2 - 1);
      madd ws
    end
  done

(* u1*G + u2*Q with both scalars walking combs: at most 128 mixed
   additions and none of the ladder's 252 doublings. *)
let comb_double_mul ws u1 u2 qc =
  let s1 = scalar_nibbles u1 in
  let s2 = scalar_nibbles u2 in
  let gc = get_comb ws in
  set_infinity ws;
  for i = 0 to 63 do
    let row = 15 * (63 - i) in
    let d1 = nibble s1 i in
    if d1 > 0 then begin
      load_affine ws gc (row + d1 - 1);
      madd ws
    end;
    let d2 = nibble s2 i in
    if d2 > 0 then begin
      load_affine ws qc (row + d2 - 1);
      madd ws
    end
  done

(* Measured with OCaml 5.1 on a 2-vCPU Xeon VM, quartiles over 40 fresh
   keys in each of six runs, on a host whose pace moved ~1.5x between
   runs: a comb costs 2.6-4.7 ms to build (its two flat arrays, 42k
   words, go straight to the major heap), and each ECDSA verify on it
   takes 0.14-0.28 ms against 0.34-0.64 ms on the window ladder; both
   paths allocate 138 words per verify. The build over the saving read
   9.8-13.8 uses, medians 12.0-13.1, so a comb pays for itself after
   12 to 14 uses. The threshold sits at the low end of that range
   because the keys that pass it (endorsed attestation keys, a pinned
   verifier identity, a board's vendor key) keep verifying for the rest
   of the run, while a key decoded for one handshake never gets near
   it. *)
let comb_threshold = 12

let double_mul u1 u2 q =
  if is_infinity q then base_mul u1
  else begin
    let ws = Domain.DLS.get workspace in
    (match q.comb_memo with
    | Some qc -> comb_double_mul ws u1 u2 qc
    | None when q.uses < comb_threshold ->
        q.uses <- q.uses + 1;
        ladder_double_mul ws u1 u2 q
    | None ->
        let qc = build_comb ws q in
        q.comb_memo <- Some qc;
        comb_double_mul ws u1 u2 qc);
    point_of_acc ws
  end

(* Cross-multiplied comparison: x1*z2^2 = x2*z1^2 (and same for y with
   cubes) avoids any inversion. *)
let equal p1 p2 =
  match (is_infinity p1, is_infinity p2) with
  | true, true -> true
  | true, false | false, true -> false
  | false, false ->
      let { t0; t1; t2; t3; _ } = Domain.DLS.get workspace in
      Fe.sqr_into fp t0 p1.z;
      Fe.sqr_into fp t1 p2.z;
      Fe.mul_into fp t2 p1.x t1;
      Fe.mul_into fp t3 p2.x t0;
      Fe.equal t2 t3
      &&
      (Fe.mul_into fp t1 t1 p2.z;
       Fe.mul_into fp t2 p1.y t1;
       Fe.mul_into fp t0 t0 p1.z;
       Fe.mul_into fp t3 p2.y t0;
       Fe.equal t2 t3)

let encode pt =
  match pt.enc with
  | Some s -> s
  | None ->
      if is_infinity pt then invalid_arg "P256.encode: point at infinity";
      let ws = Domain.DLS.get workspace in
      affine_of ws pt;
      let b = Bytes.create 65 in
      Bytes.set b 0 '\x04';
      Fe.to_bytes fp b 1 ws.px;
      Fe.to_bytes fp b 33 ws.py;
      let s = Bytes.unsafe_to_string b in
      pt.enc <- Some s;
      s

let decode s =
  if String.length s <> 65 || s.[0] <> '\x04' then None
  else
    match (Fe.of_bytes fp s 1, Fe.of_bytes fp s 33) with
    | Some fx, Some fy when on_curve_fe (Domain.DLS.get workspace) fx fy ->
        (* a decoded point re-encodes to its own input for free *)
        let pt = jac fx fy (Fe.one fp) in
        pt.enc <- Some s;
        Some pt
    | _ -> None

(* Force the one-time lazy tables (the fixed-base comb) so a server's
   first session does not pay their construction inside its latency. *)
let prewarm () = ignore (get_comb (Domain.DLS.get workspace))
