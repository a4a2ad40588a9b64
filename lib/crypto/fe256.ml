(* Montgomery arithmetic for 256-bit prime rings.

   Elements are 9 little-endian limbs of 29 bits each (beta = 2^29,
   R = 2^261), stored in native ints and kept fully reduced, so
   limb-array equality is value equality. Every operation writes a
   caller-owned destination and allocates nothing; the destination may
   be either operand. One module instance backs both P-256 rings: the
   field mod p and the scalar ring mod n. *)

let limbs = 9
let limb_bits = 29
let limb_mask = (1 lsl limb_bits) - 1

type t = int array

type ring = {
  m : int array; (* modulus limbs *)
  m_bn : Bn.t;
  n0 : int; (* -m^-1 mod beta *)
  r2 : t; (* R^2 mod m, ordinary representation *)
  one_m : t; (* R mod m: the Montgomery image of 1 *)
  fermat : string; (* m - 2 as 64 big-endian nibbles, one per char *)
}

let limbs_of_bn v =
  let s = Bn.to_bytes_be ~len:32 v in
  let out = Array.make limbs 0 in
  let acc = ref 0 and bits = ref 0 and li = ref 0 in
  for i = 31 downto 0 do
    acc := !acc lor (Char.code s.[i] lsl !bits);
    bits := !bits + 8;
    if !bits >= limb_bits then begin
      out.(!li) <- !acc land limb_mask;
      incr li;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits
    end
  done;
  if !bits > 0 then out.(!li) <- !acc;
  out

let bn_of_limbs a =
  let b = Bytes.make 33 '\000' in
  let acc = ref 0 and bits = ref 0 and bi = ref 32 in
  for i = 0 to limbs - 1 do
    acc := !acc lor (a.(i) lsl !bits);
    bits := !bits + limb_bits;
    while !bits >= 8 do
      Bytes.set b !bi (Char.unsafe_chr (!acc land 0xff));
      decr bi;
      acc := !acc lsr 8;
      bits := !bits - 8
    done
  done;
  if !bits > 0 then Bytes.set b !bi (Char.unsafe_chr (!acc land 0xff));
  Bn.of_bytes_be (Bytes.unsafe_to_string b)

(* Writes r - m into [dst] if r = (r0..r8) >= m, else r itself; r is
   below 2m with limbs r0..r7 < beta and r8 < 2^25. Each difference
   limb is in [-beta, beta), so [asr] yields its borrow (0 or -1). *)
let[@inline] reduce_store dst m r0 r1 r2 r3 r4 r5 r6 r7 r8 =
  let d0 = r0 - Array.unsafe_get m 0 in
  let d1 = r1 - Array.unsafe_get m 1 + (d0 asr limb_bits) in
  let d2 = r2 - Array.unsafe_get m 2 + (d1 asr limb_bits) in
  let d3 = r3 - Array.unsafe_get m 3 + (d2 asr limb_bits) in
  let d4 = r4 - Array.unsafe_get m 4 + (d3 asr limb_bits) in
  let d5 = r5 - Array.unsafe_get m 5 + (d4 asr limb_bits) in
  let d6 = r6 - Array.unsafe_get m 6 + (d5 asr limb_bits) in
  let d7 = r7 - Array.unsafe_get m 7 + (d6 asr limb_bits) in
  let d8 = r8 - Array.unsafe_get m 8 + (d7 asr limb_bits) in
  if d8 < 0 then begin
    Array.unsafe_set dst 0 r0;
    Array.unsafe_set dst 1 r1;
    Array.unsafe_set dst 2 r2;
    Array.unsafe_set dst 3 r3;
    Array.unsafe_set dst 4 r4;
    Array.unsafe_set dst 5 r5;
    Array.unsafe_set dst 6 r6;
    Array.unsafe_set dst 7 r7;
    Array.unsafe_set dst 8 r8
  end
  else begin
    Array.unsafe_set dst 0 (d0 land limb_mask);
    Array.unsafe_set dst 1 (d1 land limb_mask);
    Array.unsafe_set dst 2 (d2 land limb_mask);
    Array.unsafe_set dst 3 (d3 land limb_mask);
    Array.unsafe_set dst 4 (d4 land limb_mask);
    Array.unsafe_set dst 5 (d5 land limb_mask);
    Array.unsafe_set dst 6 (d6 land limb_mask);
    Array.unsafe_set dst 7 (d7 land limb_mask);
    Array.unsafe_set dst 8 d8
  end

(* Montgomery product dst <- a * b * R^-1 mod m, straight-line in
   product-scanning order: column k sums every a_i * b_j and q_i * m_j
   with i + j = k plus the carry c from column k - 1. Columns 0-8 each
   fix a quotient digit q_k that makes the column a multiple of beta;
   columns 9-16 emit the result limbs. All operand limbs are read
   before [dst] is written, so [dst] may alias [a] or [b]. Each product
   is added to the running sum by its own [let]: one chained [+]
   expression would have the compiler form every product of a column
   before the first addition and spill them, which measured ~1.3x
   slower.

   Why no column overflows OCaml's 63-bit int (max 2^62 - 1): a full
   product of two 29-bit limbs is at most (2^29 - 1)^2 < 2^58 - 2^29; a
   product with a top limb (index 8) is below 2^53, since fully reduced
   operands and m < 2^256 all have a top limb below 2^24; and c is a
   column sum shifted right by 29, so below 2^33. The widest column, 7,
   is 16 full products + c < 16 (2^58 - 2^29) + 2^33 = 2^62. Column 8
   would hold 18 full products (> 2^62) without the top-limb bound; with
   it, 15 full + 3 top-limb products + c < 15 * 2^58 + 2^55 < 2^62. The
   later columns are narrower still. The result is below 2m (ab < m^2
   and qm < Rm), so one conditional subtraction fully reduces it. *)
let mul_into r dst a b =
  let m = r.m and n0 = r.n0 in
  let a0 = Array.unsafe_get a 0 and a1 = Array.unsafe_get a 1 and a2 = Array.unsafe_get a 2 in
  let a3 = Array.unsafe_get a 3 and a4 = Array.unsafe_get a 4 and a5 = Array.unsafe_get a 5 in
  let a6 = Array.unsafe_get a 6 and a7 = Array.unsafe_get a 7 and a8 = Array.unsafe_get a 8 in
  let b0 = Array.unsafe_get b 0 and b1 = Array.unsafe_get b 1 and b2 = Array.unsafe_get b 2 in
  let b3 = Array.unsafe_get b 3 and b4 = Array.unsafe_get b 4 and b5 = Array.unsafe_get b 5 in
  let b6 = Array.unsafe_get b 6 and b7 = Array.unsafe_get b 7 and b8 = Array.unsafe_get b 8 in
  let m0 = Array.unsafe_get m 0 and m1 = Array.unsafe_get m 1 and m2 = Array.unsafe_get m 2 in
  let m3 = Array.unsafe_get m 3 and m4 = Array.unsafe_get m 4 and m5 = Array.unsafe_get m 5 in
  let m6 = Array.unsafe_get m 6 and m7 = Array.unsafe_get m 7 and m8 = Array.unsafe_get m 8 in
  (* column 0: 2 full products *)
  let s = a0 * b0 in
  let q0 = (s * n0) land limb_mask in
  let c = (s + (q0 * m0)) lsr limb_bits in
  (* column 1: 4 full products + c *)
  let s = c + a0 * b1 in
  let s = s + a1 * b0 in
  let s = s + q0 * m1 in
  let q1 = (s * n0) land limb_mask in
  let c = (s + (q1 * m0)) lsr limb_bits in
  (* column 2: 6 full products + c *)
  let s = c + a0 * b2 in
  let s = s + a1 * b1 in
  let s = s + a2 * b0 in
  let s = s + q0 * m2 in
  let s = s + q1 * m1 in
  let q2 = (s * n0) land limb_mask in
  let c = (s + (q2 * m0)) lsr limb_bits in
  (* column 3: 8 full products + c *)
  let s = c + a0 * b3 in
  let s = s + a1 * b2 in
  let s = s + a2 * b1 in
  let s = s + a3 * b0 in
  let s = s + q0 * m3 in
  let s = s + q1 * m2 in
  let s = s + q2 * m1 in
  let q3 = (s * n0) land limb_mask in
  let c = (s + (q3 * m0)) lsr limb_bits in
  (* column 4: 10 full products + c *)
  let s = c + a0 * b4 in
  let s = s + a1 * b3 in
  let s = s + a2 * b2 in
  let s = s + a3 * b1 in
  let s = s + a4 * b0 in
  let s = s + q0 * m4 in
  let s = s + q1 * m3 in
  let s = s + q2 * m2 in
  let s = s + q3 * m1 in
  let q4 = (s * n0) land limb_mask in
  let c = (s + (q4 * m0)) lsr limb_bits in
  (* column 5: 12 full products + c *)
  let s = c + a0 * b5 in
  let s = s + a1 * b4 in
  let s = s + a2 * b3 in
  let s = s + a3 * b2 in
  let s = s + a4 * b1 in
  let s = s + a5 * b0 in
  let s = s + q0 * m5 in
  let s = s + q1 * m4 in
  let s = s + q2 * m3 in
  let s = s + q3 * m2 in
  let s = s + q4 * m1 in
  let q5 = (s * n0) land limb_mask in
  let c = (s + (q5 * m0)) lsr limb_bits in
  (* column 6: 14 full products + c *)
  let s = c + a0 * b6 in
  let s = s + a1 * b5 in
  let s = s + a2 * b4 in
  let s = s + a3 * b3 in
  let s = s + a4 * b2 in
  let s = s + a5 * b1 in
  let s = s + a6 * b0 in
  let s = s + q0 * m6 in
  let s = s + q1 * m5 in
  let s = s + q2 * m4 in
  let s = s + q3 * m3 in
  let s = s + q4 * m2 in
  let s = s + q5 * m1 in
  let q6 = (s * n0) land limb_mask in
  let c = (s + (q6 * m0)) lsr limb_bits in
  (* column 7: 16 full products + c *)
  let s = c + a0 * b7 in
  let s = s + a1 * b6 in
  let s = s + a2 * b5 in
  let s = s + a3 * b4 in
  let s = s + a4 * b3 in
  let s = s + a5 * b2 in
  let s = s + a6 * b1 in
  let s = s + a7 * b0 in
  let s = s + q0 * m7 in
  let s = s + q1 * m6 in
  let s = s + q2 * m5 in
  let s = s + q3 * m4 in
  let s = s + q4 * m3 in
  let s = s + q5 * m2 in
  let s = s + q6 * m1 in
  let q7 = (s * n0) land limb_mask in
  let c = (s + (q7 * m0)) lsr limb_bits in
  (* column 8: 15 full + 3 top-limb products + c *)
  let s = c + a0 * b8 in
  let s = s + a1 * b7 in
  let s = s + a2 * b6 in
  let s = s + a3 * b5 in
  let s = s + a4 * b4 in
  let s = s + a5 * b3 in
  let s = s + a6 * b2 in
  let s = s + a7 * b1 in
  let s = s + a8 * b0 in
  let s = s + q0 * m8 in
  let s = s + q1 * m7 in
  let s = s + q2 * m6 in
  let s = s + q3 * m5 in
  let s = s + q4 * m4 in
  let s = s + q5 * m3 in
  let s = s + q6 * m2 in
  let s = s + q7 * m1 in
  let q8 = (s * n0) land limb_mask in
  let c = (s + (q8 * m0)) lsr limb_bits in
  (* column 9: 13 full + 3 top-limb products + c *)
  let s = c + a1 * b8 in
  let s = s + a2 * b7 in
  let s = s + a3 * b6 in
  let s = s + a4 * b5 in
  let s = s + a5 * b4 in
  let s = s + a6 * b3 in
  let s = s + a7 * b2 in
  let s = s + a8 * b1 in
  let s = s + q1 * m8 in
  let s = s + q2 * m7 in
  let s = s + q3 * m6 in
  let s = s + q4 * m5 in
  let s = s + q5 * m4 in
  let s = s + q6 * m3 in
  let s = s + q7 * m2 in
  let s = s + q8 * m1 in
  let r0 = s land limb_mask and c = s lsr limb_bits in
  (* column 10: 11 full + 3 top-limb products + c *)
  let s = c + a2 * b8 in
  let s = s + a3 * b7 in
  let s = s + a4 * b6 in
  let s = s + a5 * b5 in
  let s = s + a6 * b4 in
  let s = s + a7 * b3 in
  let s = s + a8 * b2 in
  let s = s + q2 * m8 in
  let s = s + q3 * m7 in
  let s = s + q4 * m6 in
  let s = s + q5 * m5 in
  let s = s + q6 * m4 in
  let s = s + q7 * m3 in
  let s = s + q8 * m2 in
  let r1 = s land limb_mask and c = s lsr limb_bits in
  (* column 11: 9 full + 3 top-limb products + c *)
  let s = c + a3 * b8 in
  let s = s + a4 * b7 in
  let s = s + a5 * b6 in
  let s = s + a6 * b5 in
  let s = s + a7 * b4 in
  let s = s + a8 * b3 in
  let s = s + q3 * m8 in
  let s = s + q4 * m7 in
  let s = s + q5 * m6 in
  let s = s + q6 * m5 in
  let s = s + q7 * m4 in
  let s = s + q8 * m3 in
  let r2 = s land limb_mask and c = s lsr limb_bits in
  (* column 12: 7 full + 3 top-limb products + c *)
  let s = c + a4 * b8 in
  let s = s + a5 * b7 in
  let s = s + a6 * b6 in
  let s = s + a7 * b5 in
  let s = s + a8 * b4 in
  let s = s + q4 * m8 in
  let s = s + q5 * m7 in
  let s = s + q6 * m6 in
  let s = s + q7 * m5 in
  let s = s + q8 * m4 in
  let r3 = s land limb_mask and c = s lsr limb_bits in
  (* column 13: 5 full + 3 top-limb products + c *)
  let s = c + a5 * b8 in
  let s = s + a6 * b7 in
  let s = s + a7 * b6 in
  let s = s + a8 * b5 in
  let s = s + q5 * m8 in
  let s = s + q6 * m7 in
  let s = s + q7 * m6 in
  let s = s + q8 * m5 in
  let r4 = s land limb_mask and c = s lsr limb_bits in
  (* column 14: 3 full + 3 top-limb products + c *)
  let s = c + a6 * b8 in
  let s = s + a7 * b7 in
  let s = s + a8 * b6 in
  let s = s + q6 * m8 in
  let s = s + q7 * m7 in
  let s = s + q8 * m6 in
  let r5 = s land limb_mask and c = s lsr limb_bits in
  (* column 15: 1 full + 3 top-limb products + c *)
  let s = c + a7 * b8 in
  let s = s + a8 * b7 in
  let s = s + q7 * m8 in
  let s = s + q8 * m7 in
  let r6 = s land limb_mask and c = s lsr limb_bits in
  (* column 16: 0 full + 2 top-limb products + c *)
  let s = c + a8 * b8 in
  let s = s + q8 * m8 in
  let r7 = s land limb_mask and r8 = s lsr limb_bits in
  reduce_store dst m r0 r1 r2 r3 r4 r5 r6 r7 r8

let sqr_into r dst a = mul_into r dst a a

(* dst <- a + b mod m. The sum is below 2m, so its top limb s8 stays
   below 2^25 and one conditional subtraction reduces it. *)
let add_into r dst a b =
  let s0 = Array.unsafe_get a 0 + Array.unsafe_get b 0 in
  let s1 = Array.unsafe_get a 1 + Array.unsafe_get b 1 + (s0 lsr limb_bits) in
  let s2 = Array.unsafe_get a 2 + Array.unsafe_get b 2 + (s1 lsr limb_bits) in
  let s3 = Array.unsafe_get a 3 + Array.unsafe_get b 3 + (s2 lsr limb_bits) in
  let s4 = Array.unsafe_get a 4 + Array.unsafe_get b 4 + (s3 lsr limb_bits) in
  let s5 = Array.unsafe_get a 5 + Array.unsafe_get b 5 + (s4 lsr limb_bits) in
  let s6 = Array.unsafe_get a 6 + Array.unsafe_get b 6 + (s5 lsr limb_bits) in
  let s7 = Array.unsafe_get a 7 + Array.unsafe_get b 7 + (s6 lsr limb_bits) in
  let s8 = Array.unsafe_get a 8 + Array.unsafe_get b 8 + (s7 lsr limb_bits) in
  reduce_store dst r.m (s0 land limb_mask) (s1 land limb_mask) (s2 land limb_mask)
    (s3 land limb_mask) (s4 land limb_mask) (s5 land limb_mask) (s6 land limb_mask)
    (s7 land limb_mask) s8

(* dst <- a - b mod m. A negative difference (d8 < 0 after the borrow
   chain) gets m added back; that final carry cancels the borrow. *)
let sub_into r dst a b =
  let d0 = Array.unsafe_get a 0 - Array.unsafe_get b 0 in
  let d1 = Array.unsafe_get a 1 - Array.unsafe_get b 1 + (d0 asr limb_bits) in
  let d2 = Array.unsafe_get a 2 - Array.unsafe_get b 2 + (d1 asr limb_bits) in
  let d3 = Array.unsafe_get a 3 - Array.unsafe_get b 3 + (d2 asr limb_bits) in
  let d4 = Array.unsafe_get a 4 - Array.unsafe_get b 4 + (d3 asr limb_bits) in
  let d5 = Array.unsafe_get a 5 - Array.unsafe_get b 5 + (d4 asr limb_bits) in
  let d6 = Array.unsafe_get a 6 - Array.unsafe_get b 6 + (d5 asr limb_bits) in
  let d7 = Array.unsafe_get a 7 - Array.unsafe_get b 7 + (d6 asr limb_bits) in
  let d8 = Array.unsafe_get a 8 - Array.unsafe_get b 8 + (d7 asr limb_bits) in
  let d0 = d0 land limb_mask and d1 = d1 land limb_mask and d2 = d2 land limb_mask in
  let d3 = d3 land limb_mask and d4 = d4 land limb_mask and d5 = d5 land limb_mask in
  let d6 = d6 land limb_mask and d7 = d7 land limb_mask in
  if d8 >= 0 then begin
    Array.unsafe_set dst 0 d0;
    Array.unsafe_set dst 1 d1;
    Array.unsafe_set dst 2 d2;
    Array.unsafe_set dst 3 d3;
    Array.unsafe_set dst 4 d4;
    Array.unsafe_set dst 5 d5;
    Array.unsafe_set dst 6 d6;
    Array.unsafe_set dst 7 d7;
    Array.unsafe_set dst 8 d8
  end
  else begin
    let m = r.m in
    let e0 = d0 + Array.unsafe_get m 0 in
    let e1 = d1 + Array.unsafe_get m 1 + (e0 lsr limb_bits) in
    let e2 = d2 + Array.unsafe_get m 2 + (e1 lsr limb_bits) in
    let e3 = d3 + Array.unsafe_get m 3 + (e2 lsr limb_bits) in
    let e4 = d4 + Array.unsafe_get m 4 + (e3 lsr limb_bits) in
    let e5 = d5 + Array.unsafe_get m 5 + (e4 lsr limb_bits) in
    let e6 = d6 + Array.unsafe_get m 6 + (e5 lsr limb_bits) in
    let e7 = d7 + Array.unsafe_get m 7 + (e6 lsr limb_bits) in
    Array.unsafe_set dst 0 (e0 land limb_mask);
    Array.unsafe_set dst 1 (e1 land limb_mask);
    Array.unsafe_set dst 2 (e2 land limb_mask);
    Array.unsafe_set dst 3 (e3 land limb_mask);
    Array.unsafe_set dst 4 (e4 land limb_mask);
    Array.unsafe_set dst 5 (e5 land limb_mask);
    Array.unsafe_set dst 6 (e6 land limb_mask);
    Array.unsafe_set dst 7 (e7 land limb_mask);
    Array.unsafe_set dst 8 (d8 + Array.unsafe_get m 8 + (e7 lsr limb_bits))
  end

let create m_bn =
  if Bn.is_zero m_bn || not (Bn.testbit m_bn 0) then
    invalid_arg "Fe256.create: modulus must be odd";
  if Bn.bit_length m_bn > 256 || Bn.compare m_bn (Bn.of_int 3) < 0 then
    invalid_arg "Fe256.create: modulus out of range";
  let m = limbs_of_bn m_bn in
  let m0 = m.(0) in
  (* Newton's iteration doubles the valid bit-width each round:
     odd m0 is its own inverse mod 8, so 5 rounds cover 29 bits. *)
  let inv = ref m0 in
  for _ = 1 to 5 do
    let p = (m0 * !inv) land limb_mask in
    inv := (!inv * (2 - p)) land limb_mask
  done;
  let n0 = ((1 lsl limb_bits) - !inv) land limb_mask in
  let mont_bits = limbs * limb_bits in
  let r2 = limbs_of_bn (Bn.mod_ (Bn.shift_left Bn.one (2 * mont_bits)) m_bn) in
  let one_m = limbs_of_bn (Bn.mod_ (Bn.shift_left Bn.one mont_bits) m_bn) in
  let e = Bn.to_bytes_be ~len:32 (Bn.sub m_bn (Bn.of_int 2)) in
  let fermat =
    String.init 64 (fun i ->
        let b = Char.code e.[i / 2] in
        Char.unsafe_chr (if i land 1 = 0 then b lsr 4 else b land 0xf))
  in
  { m; m_bn; n0; r2; one_m; fermat }

let modulus r = r.m_bn

let is_zero a =
  Array.unsafe_get a 0 lor Array.unsafe_get a 1 lor Array.unsafe_get a 2
  lor Array.unsafe_get a 3 lor Array.unsafe_get a 4 lor Array.unsafe_get a 5
  lor Array.unsafe_get a 6 lor Array.unsafe_get a 7 lor Array.unsafe_get a 8
  = 0

let[@inline] diff a b i = Array.unsafe_get a i lxor Array.unsafe_get b i

let equal a b =
  diff a b 0 lor diff a b 1 lor diff a b 2 lor diff a b 3 lor diff a b 4 lor diff a b 5
  lor diff a b 6 lor diff a b 7 lor diff a b 8
  = 0

(* Copies limbs [src.(so..so+8)] to [dst.(do_..do_+8)]; inlined into
   [set], [load] and [store] so table lookups make no C call. *)
let[@inline] copy9 src so dst do_ =
  Array.unsafe_set dst do_ (Array.unsafe_get src so);
  Array.unsafe_set dst (do_ + 1) (Array.unsafe_get src (so + 1));
  Array.unsafe_set dst (do_ + 2) (Array.unsafe_get src (so + 2));
  Array.unsafe_set dst (do_ + 3) (Array.unsafe_get src (so + 3));
  Array.unsafe_set dst (do_ + 4) (Array.unsafe_get src (so + 4));
  Array.unsafe_set dst (do_ + 5) (Array.unsafe_get src (so + 5));
  Array.unsafe_set dst (do_ + 6) (Array.unsafe_get src (so + 6));
  Array.unsafe_set dst (do_ + 7) (Array.unsafe_get src (so + 7));
  Array.unsafe_set dst (do_ + 8) (Array.unsafe_get src (so + 8))

let set dst a = copy9 a 0 dst 0

let load dst buf off =
  if off < 0 || off > Array.length buf - limbs then invalid_arg "Fe256.load";
  copy9 buf off dst 0

let store buf off a =
  if off < 0 || off > Array.length buf - limbs then invalid_arg "Fe256.store";
  copy9 a 0 buf off

let zero _ = Array.make limbs 0
let one r = Array.copy r.one_m
let set_one r dst = set dst r.one_m
let is_one r a = equal a r.one_m

let of_bn r v =
  let v = if Bn.compare v r.m_bn >= 0 then Bn.mod_ v r.m_bn else v in
  let a = limbs_of_bn v in
  mul_into r a a r.r2;
  a

let to_bn r a =
  let o = Array.make limbs 0 in
  o.(0) <- 1;
  mul_into r o a o;
  bn_of_limbs o

(* The inversion's window table, a^d in slot d, per domain so fleet
   shards never share it. *)
let powers = Domain.DLS.new_key (fun () -> Array.init 16 (fun _ -> Array.make limbs 0))

(* Fermat inversion a^(m-2) with fixed 4-bit windows: 14 products for
   the table, then 4 squarings per exponent nibble and one product per
   non-zero nibble, ~300 products where bit-by-bit square-and-multiply
   takes 380-420. The table holds a copy of [a], so [dst] may alias it;
   [inv_into r dst zero] writes zero. *)
let inv_into r dst a =
  let pw = Domain.DLS.get powers in
  set pw.(1) a;
  for d = 2 to 15 do
    mul_into r pw.(d) pw.(d - 1) pw.(1)
  done;
  set_one r dst;
  for i = 0 to 63 do
    if i > 0 then begin
      sqr_into r dst dst;
      sqr_into r dst dst;
      sqr_into r dst dst;
      sqr_into r dst dst
    end;
    let d = Char.code (String.unsafe_get r.fermat i) in
    if d > 0 then mul_into r dst dst pw.(d)
  done
