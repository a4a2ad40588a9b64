(* The pre-fast-path crypto, frozen verbatim.

   This module preserves the original textbook implementations — boxed
   Int32 SHA-256, generic Bn/Modring Jacobian P-256 with left-to-right
   double-and-add, reference ECDSA, the textbook AES and the bit-by-bit
   GHASH — exactly as they shipped before the crypto fast path. They
   exist for two reasons only:

   - the differential test suites check that the optimized path is
     bit-identical to these on random inputs, and
   - the `crypto` bench target measures old-vs-new speedups against
     them, so per-PR numbers in BENCH_crypto.json are self-contained.

   Nothing in the runtime calls this module. Do not optimize it. *)

(* ------------------------------------------------------------------ *)
(* SHA-256 over boxed int32 words (FIPS 180-4). *)

module Sha256 = struct
  let k =
    [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
       0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
       0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
       0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
       0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
       0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
       0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
       0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
       0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
       0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
       0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

  type ctx = {
    h : int32 array;
    buf : Bytes.t;
    mutable buf_len : int;
    mutable total : int64;
  }

  let init () =
    {
      h =
        [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl; 0x9b05688cl;
           0x1f83d9abl; 0x5be0cd19l |];
      buf = Bytes.create 64;
      buf_len = 0;
      total = 0L;
    }

  let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
  let ( ^^ ) = Int32.logxor
  let ( &&& ) = Int32.logand
  let ( +% ) = Int32.add

  let w = Array.make 64 0l

  let compress ctx block off =
    let get i =
      let b j = Int32.of_int (Char.code (Bytes.unsafe_get block (off + (4 * i) + j))) in
      Int32.logor
        (Int32.shift_left (b 0) 24)
        (Int32.logor (Int32.shift_left (b 1) 16) (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))
    in
    for i = 0 to 15 do
      w.(i) <- get i
    done;
    for i = 16 to 63 do
      let s0 = rotr w.(i - 15) 7 ^^ rotr w.(i - 15) 18 ^^ Int32.shift_right_logical w.(i - 15) 3 in
      let s1 = rotr w.(i - 2) 17 ^^ rotr w.(i - 2) 19 ^^ Int32.shift_right_logical w.(i - 2) 10 in
      w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
    done;
    let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2) and d = ref ctx.h.(3) in
    let e = ref ctx.h.(4) and f = ref ctx.h.(5) and g = ref ctx.h.(6) and hh = ref ctx.h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 ^^ rotr !e 11 ^^ rotr !e 25 in
      let ch = (!e &&& !f) ^^ (Int32.lognot !e &&& !g) in
      let temp1 = !hh +% s1 +% ch +% k.(i) +% w.(i) in
      let s0 = rotr !a 2 ^^ rotr !a 13 ^^ rotr !a 22 in
      let maj = (!a &&& !b) ^^ (!a &&& !c) ^^ (!b &&& !c) in
      let temp2 = s0 +% maj in
      hh := !g;
      g := !f;
      f := !e;
      e := !d +% temp1;
      d := !c;
      c := !b;
      b := !a;
      a := temp1 +% temp2
    done;
    ctx.h.(0) <- ctx.h.(0) +% !a;
    ctx.h.(1) <- ctx.h.(1) +% !b;
    ctx.h.(2) <- ctx.h.(2) +% !c;
    ctx.h.(3) <- ctx.h.(3) +% !d;
    ctx.h.(4) <- ctx.h.(4) +% !e;
    ctx.h.(5) <- ctx.h.(5) +% !f;
    ctx.h.(6) <- ctx.h.(6) +% !g;
    ctx.h.(7) <- ctx.h.(7) +% !hh

  let update ctx s =
    let len = String.length s in
    ctx.total <- Int64.add ctx.total (Int64.of_int len);
    let pos = ref 0 in
    if ctx.buf_len > 0 then begin
      let take = min (64 - ctx.buf_len) len in
      Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      pos := take;
      if ctx.buf_len = 64 then begin
        compress ctx ctx.buf 0;
        ctx.buf_len <- 0
      end
    end;
    while len - !pos >= 64 do
      compress ctx (Bytes.unsafe_of_string s) !pos;
      pos := !pos + 64
    done;
    let rest = len - !pos in
    if rest > 0 then begin
      Bytes.blit_string s !pos ctx.buf ctx.buf_len rest;
      ctx.buf_len <- ctx.buf_len + rest
    end

  let finalize ctx =
    let bit_len = Int64.mul ctx.total 8L in
    let pad_len =
      let rem = Int64.to_int (Int64.rem ctx.total 64L) in
      if rem < 56 then 56 - rem else 120 - rem
    in
    let pad = Bytes.make (pad_len + 8) '\000' in
    Bytes.set pad 0 '\x80';
    for i = 0 to 7 do
      Bytes.set pad (pad_len + i)
        (Char.chr (Int64.to_int (Int64.shift_right_logical bit_len (8 * (7 - i))) land 0xff))
    done;
    update ctx (Bytes.to_string pad);
    assert (ctx.buf_len = 0);
    String.init 32 (fun i ->
        Char.chr
          (Int32.to_int (Int32.shift_right_logical ctx.h.(i / 4) (8 * (3 - (i mod 4)))) land 0xff))

  let digest s =
    let ctx = init () in
    update ctx s;
    finalize ctx
end

let sha256 = Sha256.digest

(* ------------------------------------------------------------------ *)
(* P-256 over Bn/Modring Jacobian coordinates, double-and-add. *)

module P256 = struct
  let p = Bn.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"
  let n = Bn.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"
  let b_coeff = Bn.of_hex "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"
  let gx = Bn.of_hex "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
  let gy = Bn.of_hex "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"
  let field = Modring.create p
  let order = Modring.create n
  let a_coeff = Bn.sub p (Bn.of_int 3)

  type point = { x : Bn.t; y : Bn.t; z : Bn.t }

  let infinity = { x = Bn.one; y = Bn.one; z = Bn.zero }
  let is_infinity pt = Bn.is_zero pt.z

  let on_curve x y =
    let f = field in
    if Bn.compare x p >= 0 || Bn.compare y p >= 0 then false
    else
      let lhs = Modring.sqr f y in
      let rhs =
        Modring.add f
          (Modring.mul f (Modring.sqr f x) x)
          (Modring.add f (Modring.mul f a_coeff x) b_coeff)
      in
      Bn.equal lhs rhs

  let base = { x = gx; y = gy; z = Bn.one }

  let to_affine pt =
    if is_infinity pt then None
    else begin
      let f = field in
      let zinv = Modring.inv_prime f pt.z in
      let zinv2 = Modring.sqr f zinv in
      let zinv3 = Modring.mul f zinv2 zinv in
      Some (Modring.mul f pt.x zinv2, Modring.mul f pt.y zinv3)
    end

  let double pt =
    if is_infinity pt || Bn.is_zero pt.y then infinity
    else begin
      let f = field in
      let delta = Modring.sqr f pt.z in
      let gamma = Modring.sqr f pt.y in
      let beta = Modring.mul f pt.x gamma in
      let alpha =
        Modring.mul f (Bn.of_int 3)
          (Modring.mul f (Modring.sub f pt.x delta) (Modring.add f pt.x delta))
      in
      let x3 = Modring.sub f (Modring.sqr f alpha) (Modring.mul f (Bn.of_int 8) beta) in
      let z3 =
        Modring.sub f (Modring.sqr f (Modring.add f pt.y pt.z)) (Modring.add f gamma delta)
      in
      let y3 =
        Modring.sub f
          (Modring.mul f alpha (Modring.sub f (Modring.mul f (Bn.of_int 4) beta) x3))
          (Modring.mul f (Bn.of_int 8) (Modring.sqr f gamma))
      in
      { x = x3; y = y3; z = z3 }
    end

  let add p1 p2 =
    if is_infinity p1 then p2
    else if is_infinity p2 then p1
    else begin
      let f = field in
      let z1z1 = Modring.sqr f p1.z in
      let z2z2 = Modring.sqr f p2.z in
      let u1 = Modring.mul f p1.x z2z2 in
      let u2 = Modring.mul f p2.x z1z1 in
      let s1 = Modring.mul f p1.y (Modring.mul f z2z2 p2.z) in
      let s2 = Modring.mul f p2.y (Modring.mul f z1z1 p1.z) in
      if Bn.equal u1 u2 then
        if Bn.equal s1 s2 then double p1 else infinity
      else begin
        let h = Modring.sub f u2 u1 in
        let i = Modring.sqr f (Modring.mul f (Bn.of_int 2) h) in
        let j = Modring.mul f h i in
        let r = Modring.mul f (Bn.of_int 2) (Modring.sub f s2 s1) in
        let v = Modring.mul f u1 i in
        let x3 =
          Modring.sub f (Modring.sub f (Modring.sqr f r) j) (Modring.mul f (Bn.of_int 2) v)
        in
        let y3 =
          Modring.sub f
            (Modring.mul f r (Modring.sub f v x3))
            (Modring.mul f (Bn.of_int 2) (Modring.mul f s1 j))
        in
        let z3 =
          Modring.mul f h
            (Modring.sub f
               (Modring.sqr f (Modring.add f p1.z p2.z))
               (Bn.add z1z1 z2z2 |> Modring.reduce f))
        in
        { x = x3; y = y3; z = z3 }
      end
    end

  let mul k pt =
    let k = Bn.mod_ k n in
    let bits = Bn.bit_length k in
    let rec go i acc =
      if i < 0 then acc
      else
        let acc = double acc in
        let acc = if Bn.testbit k i then add acc pt else acc in
        go (i - 1) acc
    in
    go (bits - 1) infinity

  let base_mul k = mul k base

  let of_bytes s =
    if String.length s <> 65 || s.[0] <> '\x04' then None
    else begin
      let x = Bn.of_bytes_be (String.sub s 1 32) in
      let y = Bn.of_bytes_be (String.sub s 33 32) in
      if on_curve x y then Some { x; y; z = Bn.one } else None
    end
end

(* ------------------------------------------------------------------ *)
(* Reference ECDSA (RFC 6979 nonces) over the reference curve. *)

module Ecdsa = struct
  let n = P256.n

  let hmac_sha256 ~key msg =
    let block = 64 in
    let key = if String.length key > block then Sha256.digest key else key in
    let pad c =
      String.init block (fun i ->
          let k = if i < String.length key then Char.code key.[i] else 0 in
          Char.chr (k lxor c))
    in
    Sha256.digest (pad 0x5c ^ Sha256.digest (pad 0x36 ^ msg))

  let rfc6979_k d digest =
    let x = Bn.to_bytes_be ~len:32 d in
    let h1 = Bn.to_bytes_be ~len:32 (Bn.mod_ (Bn.of_bytes_be digest) n) in
    let v = ref (String.make 32 '\x01') in
    let k = ref (String.make 32 '\x00') in
    k := hmac_sha256 ~key:!k (!v ^ "\x00" ^ x ^ h1);
    v := hmac_sha256 ~key:!k !v;
    k := hmac_sha256 ~key:!k (!v ^ "\x01" ^ x ^ h1);
    v := hmac_sha256 ~key:!k !v;
    let rec attempt () =
      v := hmac_sha256 ~key:!k !v;
      let candidate = Bn.of_bytes_be !v in
      if (not (Bn.is_zero candidate)) && Bn.compare candidate n < 0 then candidate
      else begin
        k := hmac_sha256 ~key:!k (!v ^ "\x00");
        v := hmac_sha256 ~key:!k !v;
        attempt ()
      end
    in
    attempt ()

  let sign_digest d digest =
    if String.length digest <> 32 then invalid_arg "Refcrypto.Ecdsa.sign_digest: need 32 bytes";
    let z = Bn.mod_ (Bn.of_bytes_be digest) n in
    let rec attempt k =
      match P256.to_affine (P256.base_mul k) with
      | None -> attempt (Bn.add k Bn.one)
      | Some (x1, _) ->
        let r = Bn.mod_ x1 n in
        if Bn.is_zero r then attempt (Bn.add k Bn.one)
        else begin
          let kinv = Modring.inv_prime P256.order k in
          let s =
            Modring.mul P256.order kinv
              (Modring.add P256.order z (Modring.mul P256.order r d))
          in
          if Bn.is_zero s then attempt (Bn.add k Bn.one)
          else Bn.to_bytes_be ~len:32 r ^ Bn.to_bytes_be ~len:32 s
        end
    in
    attempt (rfc6979_k d digest)

  let sign d msg = sign_digest d (Sha256.digest msg)

  let verify_digest q ~digest ~signature =
    String.length signature = 64 && String.length digest = 32
    && (not (P256.is_infinity q))
    &&
    let r = Bn.of_bytes_be (String.sub signature 0 32) in
    let s = Bn.of_bytes_be (String.sub signature 32 32) in
    let valid_range v = (not (Bn.is_zero v)) && Bn.compare v n < 0 in
    valid_range r && valid_range s
    &&
    let z = Bn.mod_ (Bn.of_bytes_be digest) n in
    let sinv = Modring.inv_prime P256.order s in
    let u1 = Modring.mul P256.order z sinv in
    let u2 = Modring.mul P256.order r sinv in
    let pt = P256.add (P256.base_mul u1) (P256.mul u2 q) in
    match P256.to_affine pt with
    | None -> false
    | Some (x1, _) -> Bn.equal (Bn.mod_ x1 n) r

  let verify q ~msg ~signature = verify_digest q ~digest:(Sha256.digest msg) ~signature
end

(* ------------------------------------------------------------------ *)
(* The textbook AES (FIPS 197), decryption included: one byte per
   [int array] slot, S-box lookups, [shift_rows] and [mix_columns] per
   round. The reference GCM below runs on it, so the GCM differential
   has a cipher independent of the T-table [Watz_crypto.Aes]. *)

module Aes = struct
  (* FIPS 197. State is column-major: state.(4*c + r) is row r, column c,
     matching the byte order of the input block. *)

  let xtime b =
    let b = b lsl 1 in
    if b land 0x100 <> 0 then (b lxor 0x1b) land 0xff else b

  (* GF(2^8) multiplication with the AES polynomial x^8+x^4+x^3+x+1. *)
  let gmul a b =
    let rec go a b acc =
      if b = 0 then acc
      else go (xtime a) (b lsr 1) (if b land 1 = 1 then acc lxor a else acc)
    in
    go a b 0

  (* The S-box is the GF inverse followed by the FIPS affine transform
     b ^ rot1(b) ^ rot2(b) ^ rot3(b) ^ rot4(b) ^ 0x63. *)
  let sbox, inv_sbox =
    let inv = Array.make 256 0 in
    for a = 1 to 255 do
      for b = 1 to 255 do
        if gmul a b = 1 then inv.(a) <- b
      done
    done;
    let s = Array.make 256 0 and si = Array.make 256 0 in
    let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
    for a = 0 to 255 do
      let b = inv.(a) in
      let v = b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63 in
      s.(a) <- v;
      si.(v) <- a
    done;
    (s, si)

  type key = { rounds : int; rk : int array (* (rounds+1) * 16 bytes *) }

  let expand_key key_bytes =
    let nk =
      match String.length key_bytes with
      | 16 -> 4
      | 24 -> 6
      | 32 -> 8
      | _ -> invalid_arg "Aes.expand_key: key must be 16, 24 or 32 bytes"
    in
    let rounds = nk + 6 in
    let words = 4 * (rounds + 1) in
    (* w.(i) is a 4-byte word stored as an int array of bytes. *)
    let w = Array.make_matrix words 4 0 in
    for i = 0 to nk - 1 do
      for j = 0 to 3 do
        w.(i).(j) <- Char.code key_bytes.[(4 * i) + j]
      done
    done;
    let rcon = ref 1 in
    for i = nk to words - 1 do
      let temp = Array.copy w.(i - 1) in
      if i mod nk = 0 then begin
        (* RotWord then SubWord then Rcon. *)
        let t0 = temp.(0) in
        temp.(0) <- sbox.(temp.(1));
        temp.(1) <- sbox.(temp.(2));
        temp.(2) <- sbox.(temp.(3));
        temp.(3) <- sbox.(t0);
        temp.(0) <- temp.(0) lxor !rcon;
        rcon := xtime !rcon
      end
      else if nk > 6 && i mod nk = 4 then
        for j = 0 to 3 do
          temp.(j) <- sbox.(temp.(j))
        done;
      for j = 0 to 3 do
        w.(i).(j) <- w.(i - nk).(j) lxor temp.(j)
      done
    done;
    let rk = Array.make (16 * (rounds + 1)) 0 in
    for i = 0 to words - 1 do
      for j = 0 to 3 do
        rk.((4 * i) + j) <- w.(i).(j)
      done
    done;
    { rounds; rk }

  let add_round_key state rk round =
    for i = 0 to 15 do
      state.(i) <- state.(i) lxor rk.((16 * round) + i)
    done

  let sub_bytes state box =
    for i = 0 to 15 do
      state.(i) <- box.(state.(i))
    done

  let shift_rows state =
    (* Row r (bytes r, r+4, r+8, r+12) rotates left by r. *)
    for r = 1 to 3 do
      let row = Array.init 4 (fun c -> state.((4 * c) + r)) in
      for c = 0 to 3 do
        state.((4 * c) + r) <- row.((c + r) mod 4)
      done
    done

  let inv_shift_rows state =
    for r = 1 to 3 do
      let row = Array.init 4 (fun c -> state.((4 * c) + r)) in
      for c = 0 to 3 do
        state.((4 * c) + r) <- row.((c - r + 4) mod 4)
      done
    done

  let mix_columns state =
    for c = 0 to 3 do
      let a0 = state.(4 * c) and a1 = state.((4 * c) + 1) in
      let a2 = state.((4 * c) + 2) and a3 = state.((4 * c) + 3) in
      state.(4 * c) <- xtime a0 lxor (xtime a1 lxor a1) lxor a2 lxor a3;
      state.((4 * c) + 1) <- a0 lxor xtime a1 lxor (xtime a2 lxor a2) lxor a3;
      state.((4 * c) + 2) <- a0 lxor a1 lxor xtime a2 lxor (xtime a3 lxor a3);
      state.((4 * c) + 3) <- (xtime a0 lxor a0) lxor a1 lxor a2 lxor xtime a3
    done

  let inv_mix_columns state =
    for c = 0 to 3 do
      let a0 = state.(4 * c) and a1 = state.((4 * c) + 1) in
      let a2 = state.((4 * c) + 2) and a3 = state.((4 * c) + 3) in
      state.(4 * c) <- gmul a0 14 lxor gmul a1 11 lxor gmul a2 13 lxor gmul a3 9;
      state.((4 * c) + 1) <- gmul a0 9 lxor gmul a1 14 lxor gmul a2 11 lxor gmul a3 13;
      state.((4 * c) + 2) <- gmul a0 13 lxor gmul a1 9 lxor gmul a2 14 lxor gmul a3 11;
      state.((4 * c) + 3) <- gmul a0 11 lxor gmul a1 13 lxor gmul a2 9 lxor gmul a3 14
    done

  let state_of_block block =
    if String.length block <> 16 then invalid_arg "Aes: block must be 16 bytes";
    Array.init 16 (fun i -> Char.code block.[i])

  let block_of_state state = String.init 16 (fun i -> Char.chr state.(i))

  let encrypt_block key block =
    let state = state_of_block block in
    add_round_key state key.rk 0;
    for round = 1 to key.rounds - 1 do
      sub_bytes state sbox;
      shift_rows state;
      mix_columns state;
      add_round_key state key.rk round
    done;
    sub_bytes state sbox;
    shift_rows state;
    add_round_key state key.rk key.rounds;
    block_of_state state

  let decrypt_block key block =
    let state = state_of_block block in
    add_round_key state key.rk key.rounds;
    for round = key.rounds - 1 downto 1 do
      inv_shift_rows state;
      sub_bytes state inv_sbox;
      add_round_key state key.rk round;
      inv_mix_columns state
    done;
    inv_shift_rows state;
    sub_bytes state inv_sbox;
    add_round_key state key.rk 0;
    block_of_state state
end

(* ------------------------------------------------------------------ *)
(* Bit-by-bit GHASH and a reference GCM encrypt built on it. *)

module Gcm = struct
  type block = int64 * int64

  let block_of_string s off : block =
    let get i =
      if off + i < String.length s then Int64.of_int (Char.code s.[off + i]) else 0L
    in
    let half base =
      let v = ref 0L in
      for i = 0 to 7 do
        v := Int64.logor (Int64.shift_left !v 8) (get (base + i))
      done;
      !v
    in
    (half 0, half 8)

  let string_of_block ((hi, lo) : block) =
    String.init 16 (fun i ->
        let word = if i < 8 then hi else lo in
        Char.chr (Int64.to_int (Int64.shift_right_logical word (8 * (7 - (i mod 8)))) land 0xff))

  let xor_block ((a, b) : block) ((c, d) : block) : block =
    (Int64.logxor a c, Int64.logxor b d)

  (* GF(2^128) multiplication, right-shift method from SP 800-38D 6.3. *)
  let gf_mul (x : block) (y : block) : block =
    let z = ref (0L, 0L) in
    let v = ref y in
    let xhi, xlo = x in
    for i = 0 to 127 do
      let bit =
        if i < 64 then Int64.logand (Int64.shift_right_logical xhi (63 - i)) 1L
        else Int64.logand (Int64.shift_right_logical xlo (127 - i)) 1L
      in
      if Int64.equal bit 1L then z := xor_block !z !v;
      let vhi, vlo = !v in
      let lsb = Int64.logand vlo 1L in
      let vlo' = Int64.logor (Int64.shift_right_logical vlo 1) (Int64.shift_left vhi 63) in
      let vhi' = Int64.shift_right_logical vhi 1 in
      v :=
        if Int64.equal lsb 1L then (Int64.logxor vhi' 0xe100000000000000L, vlo')
        else (vhi', vlo')
    done;
    !z

  let ghash h data_parts =
    let y = ref (0L, 0L) in
    let absorb s =
      let len = String.length s in
      let blocks = (len + 15) / 16 in
      for i = 0 to blocks - 1 do
        y := gf_mul (xor_block !y (block_of_string s (16 * i))) h
      done
    in
    List.iter absorb data_parts;
    !y

  let inc32 ((hi, lo) : block) : block =
    let counter = Int64.logand lo 0xffffffffL in
    let counter' = Int64.logand (Int64.add counter 1L) 0xffffffffL in
    (hi, Int64.logor (Int64.logand lo 0xffffffff00000000L) counter')

  let length_block aad_len ct_len : block = (Int64.of_int (8 * aad_len), Int64.of_int (8 * ct_len))

  let derive ~key ~iv =
    let aes = Aes.expand_key key in
    let h = block_of_string (Aes.encrypt_block aes (String.make 16 '\000')) 0 in
    let j0 =
      if String.length iv = 12 then block_of_string (iv ^ "\000\000\000\001") 0
      else begin
        if String.length iv = 0 then invalid_arg "Refcrypto.Gcm: empty IV";
        let pad = (16 - (String.length iv mod 16)) mod 16 in
        let lenb = string_of_block (0L, Int64.of_int (8 * String.length iv)) in
        ghash h [ iv ^ String.make pad '\000' ^ lenb ]
      end
    in
    (aes, h, j0)

  let ctr_transform aes j0 input =
    let len = String.length input in
    let out = Bytes.create len in
    let counter = ref j0 in
    let blocks = (len + 15) / 16 in
    for i = 0 to blocks - 1 do
      counter := inc32 !counter;
      let keystream = Aes.encrypt_block aes (string_of_block !counter) in
      let base = 16 * i in
      let n = min 16 (len - base) in
      for j = 0 to n - 1 do
        Bytes.set out (base + j)
          (Char.chr (Char.code input.[base + j] lxor Char.code keystream.[j]))
      done
    done;
    Bytes.to_string out

  let compute_tag aes h j0 ~aad ~ct =
    let pad s = String.make ((16 - (String.length s mod 16)) mod 16) '\000' in
    let s =
      ghash h
        [ aad ^ pad aad; ct ^ pad ct;
          string_of_block (length_block (String.length aad) (String.length ct)) ]
    in
    let ek_j0 = block_of_string (Aes.encrypt_block aes (string_of_block j0)) 0 in
    string_of_block (xor_block s ek_j0)

  let encrypt ~key ~iv ?(aad = "") plaintext =
    let aes, h, j0 = derive ~key ~iv in
    let ct = ctr_transform aes j0 plaintext in
    (ct, compute_tag aes h j0 ~aad ~ct)

  (* GHASH as 16-byte-block strings, for differential tests against the
     table-driven implementation. *)
  let ghash_bytes ~h parts = string_of_block (ghash (block_of_string h 0) parts)
end
