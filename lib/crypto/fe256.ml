(* Montgomery arithmetic for 256-bit prime rings.

   Elements are 9 little-endian limbs of 29 bits each (beta = 2^29,
   R = 2^261), stored in native ints and kept fully reduced, so
   limb-array equality is value equality. Every operation writes a
   caller-owned destination and allocates nothing; the destination may
   be either operand. One module instance backs both P-256 rings: the
   field mod p and the scalar ring mod n. [create] gives the ring mod p
   its own product and squaring, which reduce by p's shape with shifts
   ([mul_p], [sqr_p]); any other modulus runs the generic product
   ([mul_mont], one loop over the product's columns), which squares
   too. Numbers enter and leave as 32 big-endian bytes, or as limbs in
   flat tables ([load], [store]); [create] derives its constants from
   the modulus limbs. *)

let limbs = 9
let limb_bits = 29
let limb_mask = (1 lsl limb_bits) - 1

type t = int array

type ring = {
  m : int array; (* modulus limbs *)
  n0 : int; (* -m^-1 mod beta *)
  r2 : t; (* R^2 mod m, ordinary representation *)
  r3 : t; (* R^3 mod m, ordinary: takes an inverse back to Montgomery form *)
  one_m : t; (* R mod m: the Montgomery image of 1 *)
  p_shape : bool; (* m = p_limbs: products reduce by shifts *)
}

(* The 32 big-endian bytes at [s.[off]] as ordinary limbs. *)
let limbs_of_bytes s off =
  let out = Array.make limbs 0 in
  let acc = ref 0 and bits = ref 0 and li = ref 0 in
  for i = off + 31 downto off do
    acc := !acc lor (Char.code (String.unsafe_get s i) lsl !bits);
    bits := !bits + 8;
    if !bits >= limb_bits then begin
      out.(!li) <- !acc land limb_mask;
      incr li;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits
    end
  done;
  out.(!li) <- !acc;
  out

(* Writes ordinary limbs of a value below 2^256 as 32 big-endian bytes
   at [b.[off]]; the 5 bits left over after the last byte are zero. *)
let bytes_of_limbs a b off =
  let acc = ref 0 and bits = ref 0 and bi = ref (off + 31) in
  for i = 0 to limbs - 1 do
    acc := !acc lor (Array.unsafe_get a i lsl !bits);
    bits := !bits + limb_bits;
    while !bits >= 8 do
      Bytes.unsafe_set b !bi (Char.unsafe_chr (!acc land 0xff));
      decr bi;
      acc := !acc lsr 8;
      bits := !bits - 8
    done
  done

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

(* Per-domain scratch, so fleet shards never share it: [q] and [res]
   of [mul_mont], [f], [g], [d] and [e] of [inv_into], and [out], the
   ordinary form [to_bytes] writes out. [mul_mont] must not use the
   others: [inv_into]'s closing product reads [d], and [to_bytes]'s
   writes [out]. *)
type scratch = {
  q : int array;
  res : int array;
  f : int array;
  g : int array;
  d : int array;
  e : int array;
  out : t;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      let l () = Array.make limbs 0 in
      { q = l (); res = l (); f = l (); g = l (); d = l (); e = l (); out = l () })

(* Montgomery product dst <- a * b * R^-1 mod m in product-scanning
   order: column k sums every a_i * b_j and q_i * m_j with i + j = k
   plus the carry c from column k - 1. Columns 0-8 each fix a quotient
   digit q_k that makes the column a multiple of beta; columns 9-16
   emit the result limbs. All operand limbs are read before [dst] is
   written, so [dst] may alias [a] or [b]. The column bounds are ints
   picked with [<]: the polymorphic [max] and [min] are external calls,
   and made this loop 2.5-2.8x slower.

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
let mul_mont r dst a b =
  let m = r.m and n0 = r.n0 in
  let { q; res; _ } = Domain.DLS.get scratch in
  let c = ref 0 in
  for k = 0 to (2 * limbs) - 2 do
    let lo = if k < limbs then 0 else k - (limbs - 1) in
    let hi = if k < limbs then k else limbs - 1 in
    let s = ref !c in
    for i = lo to hi do
      s := !s + (Array.unsafe_get a i * Array.unsafe_get b (k - i))
    done;
    (* q_k is not known yet in columns 0-8; its term follows below. *)
    for i = lo to (if k < limbs then k - 1 else hi) do
      s := !s + (Array.unsafe_get q i * Array.unsafe_get m (k - i))
    done;
    if k < limbs then begin
      let qk = (!s * n0) land limb_mask in
      Array.unsafe_set q k qk;
      c := (!s + (qk * Array.unsafe_get m 0)) lsr limb_bits
    end
    else begin
      Array.unsafe_set res (k - limbs) (!s land limb_mask);
      c := !s lsr limb_bits
    end
  done;
  reduce_store dst m (Array.unsafe_get res 0) (Array.unsafe_get res 1) (Array.unsafe_get res 2)
    (Array.unsafe_get res 3) (Array.unsafe_get res 4) (Array.unsafe_get res 5)
    (Array.unsafe_get res 6) (Array.unsafe_get res 7) !c

(* The P-256 prime p = 2^256 - 2^224 + 2^192 + 2^96 - 1 in limbs. *)
let p_limbs =
  [| limb_mask; limb_mask; limb_mask; (1 lsl 9) - 1; 0; 0; 1 lsl 18; 0xff lsl 21; (1 lsl 24) - 1 |]

(* The Montgomery product for m = p, reduced by p's shape. Since
   p = -1 mod beta, n0 = 1 and each quotient digit is its column's low
   limb, q_k = s land limb_mask; adding q_k * p's -q_k then clears that
   limb exactly, so the carry is s asr 29. The rest of q_k * p is
   q_k * (2^9 beta^3 + 2^18 beta^6 - 2^21 beta^7 + 2^24 beta^8): four
   shifted terms, q_k lsl 9 in column k + 3, q_k lsl 18 in k + 6,
   -(q_k lsl 21) in k + 7 and q_k lsl 24 in k + 8, in place of
   [mul_mont]'s nine q_k * m_j products. The digits are the ones
   [mul_mont] picks (Q = -ab p^-1 mod R either way), so the two agree
   limb for limb.

   Why no column leaves (-2^62, 2^62): a column holds at most 9 limb
   products, each below 2^58, at most three positive shifted terms,
   each below 2^53, one negative shifted term, above -2^50, and the
   carry of the column before. So every column lies in (-2^51, 2^61)
   and every carry in [-2^22, 2^32]. The negative term can make a
   column negative, which is why every carry is an [asr]: [lsr] would
   read a column of -1 as 2^63 - 1 and carry 2^34 - 1. The result
   (ab + Qp) / R is below 2p as in [mul_mont], and the floor carries
   leave r0..r7 in [0, beta) and r8 = floor (result / beta^8) in
   [0, 2^25), as [reduce_store] needs. *)
let mul_p dst a b =
  let a0 = Array.unsafe_get a 0 and a1 = Array.unsafe_get a 1 and a2 = Array.unsafe_get a 2 in
  let a3 = Array.unsafe_get a 3 and a4 = Array.unsafe_get a 4 and a5 = Array.unsafe_get a 5 in
  let a6 = Array.unsafe_get a 6 and a7 = Array.unsafe_get a 7 and a8 = Array.unsafe_get a 8 in
  let b0 = Array.unsafe_get b 0 and b1 = Array.unsafe_get b 1 and b2 = Array.unsafe_get b 2 in
  let b3 = Array.unsafe_get b 3 and b4 = Array.unsafe_get b 4 and b5 = Array.unsafe_get b 5 in
  let b6 = Array.unsafe_get b 6 and b7 = Array.unsafe_get b 7 and b8 = Array.unsafe_get b 8 in
  (* column 0 *)
  let s = a0 * b0 in
  let q0 = s land limb_mask and c = s asr limb_bits in
  (* column 1 *)
  let s = c + a0 * b1 in
  let s = s + a1 * b0 in
  let q1 = s land limb_mask and c = s asr limb_bits in
  (* column 2 *)
  let s = c + a0 * b2 in
  let s = s + a1 * b1 in
  let s = s + a2 * b0 in
  let q2 = s land limb_mask and c = s asr limb_bits in
  (* column 3 *)
  let s = c + a0 * b3 in
  let s = s + a1 * b2 in
  let s = s + a2 * b1 in
  let s = s + a3 * b0 in
  let s = s + (q0 lsl 9) in
  let q3 = s land limb_mask and c = s asr limb_bits in
  (* column 4 *)
  let s = c + a0 * b4 in
  let s = s + a1 * b3 in
  let s = s + a2 * b2 in
  let s = s + a3 * b1 in
  let s = s + a4 * b0 in
  let s = s + (q1 lsl 9) in
  let q4 = s land limb_mask and c = s asr limb_bits in
  (* column 5 *)
  let s = c + a0 * b5 in
  let s = s + a1 * b4 in
  let s = s + a2 * b3 in
  let s = s + a3 * b2 in
  let s = s + a4 * b1 in
  let s = s + a5 * b0 in
  let s = s + (q2 lsl 9) in
  let q5 = s land limb_mask and c = s asr limb_bits in
  (* column 6 *)
  let s = c + a0 * b6 in
  let s = s + a1 * b5 in
  let s = s + a2 * b4 in
  let s = s + a3 * b3 in
  let s = s + a4 * b2 in
  let s = s + a5 * b1 in
  let s = s + a6 * b0 in
  let s = s + (q3 lsl 9) in
  let s = s + (q0 lsl 18) in
  let q6 = s land limb_mask and c = s asr limb_bits in
  (* column 7 *)
  let s = c + a0 * b7 in
  let s = s + a1 * b6 in
  let s = s + a2 * b5 in
  let s = s + a3 * b4 in
  let s = s + a4 * b3 in
  let s = s + a5 * b2 in
  let s = s + a6 * b1 in
  let s = s + a7 * b0 in
  let s = s + (q4 lsl 9) in
  let s = s + (q1 lsl 18) in
  let s = s - (q0 lsl 21) in
  let q7 = s land limb_mask and c = s asr limb_bits in
  (* column 8 *)
  let s = c + a0 * b8 in
  let s = s + a1 * b7 in
  let s = s + a2 * b6 in
  let s = s + a3 * b5 in
  let s = s + a4 * b4 in
  let s = s + a5 * b3 in
  let s = s + a6 * b2 in
  let s = s + a7 * b1 in
  let s = s + a8 * b0 in
  let s = s + (q5 lsl 9) in
  let s = s + (q2 lsl 18) in
  let s = s - (q1 lsl 21) in
  let s = s + (q0 lsl 24) in
  let q8 = s land limb_mask and c = s asr limb_bits in
  (* column 9 *)
  let s = c + a1 * b8 in
  let s = s + a2 * b7 in
  let s = s + a3 * b6 in
  let s = s + a4 * b5 in
  let s = s + a5 * b4 in
  let s = s + a6 * b3 in
  let s = s + a7 * b2 in
  let s = s + a8 * b1 in
  let s = s + (q6 lsl 9) in
  let s = s + (q3 lsl 18) in
  let s = s - (q2 lsl 21) in
  let s = s + (q1 lsl 24) in
  let r0 = s land limb_mask and c = s asr limb_bits in
  (* column 10 *)
  let s = c + a2 * b8 in
  let s = s + a3 * b7 in
  let s = s + a4 * b6 in
  let s = s + a5 * b5 in
  let s = s + a6 * b4 in
  let s = s + a7 * b3 in
  let s = s + a8 * b2 in
  let s = s + (q7 lsl 9) in
  let s = s + (q4 lsl 18) in
  let s = s - (q3 lsl 21) in
  let s = s + (q2 lsl 24) in
  let r1 = s land limb_mask and c = s asr limb_bits in
  (* column 11 *)
  let s = c + a3 * b8 in
  let s = s + a4 * b7 in
  let s = s + a5 * b6 in
  let s = s + a6 * b5 in
  let s = s + a7 * b4 in
  let s = s + a8 * b3 in
  let s = s + (q8 lsl 9) in
  let s = s + (q5 lsl 18) in
  let s = s - (q4 lsl 21) in
  let s = s + (q3 lsl 24) in
  let r2 = s land limb_mask and c = s asr limb_bits in
  (* column 12 *)
  let s = c + a4 * b8 in
  let s = s + a5 * b7 in
  let s = s + a6 * b6 in
  let s = s + a7 * b5 in
  let s = s + a8 * b4 in
  let s = s + (q6 lsl 18) in
  let s = s - (q5 lsl 21) in
  let s = s + (q4 lsl 24) in
  let r3 = s land limb_mask and c = s asr limb_bits in
  (* column 13 *)
  let s = c + a5 * b8 in
  let s = s + a6 * b7 in
  let s = s + a7 * b6 in
  let s = s + a8 * b5 in
  let s = s + (q7 lsl 18) in
  let s = s - (q6 lsl 21) in
  let s = s + (q5 lsl 24) in
  let r4 = s land limb_mask and c = s asr limb_bits in
  (* column 14 *)
  let s = c + a6 * b8 in
  let s = s + a7 * b7 in
  let s = s + a8 * b6 in
  let s = s + (q8 lsl 18) in
  let s = s - (q7 lsl 21) in
  let s = s + (q6 lsl 24) in
  let r5 = s land limb_mask and c = s asr limb_bits in
  (* column 15 *)
  let s = c + a7 * b8 in
  let s = s + a8 * b7 in
  let s = s - (q8 lsl 21) in
  let s = s + (q7 lsl 24) in
  let r6 = s land limb_mask and c = s asr limb_bits in
  (* column 16 *)
  let s = c + a8 * b8 in
  let s = s + (q8 lsl 24) in
  let r7 = s land limb_mask and r8 = s asr limb_bits in
  reduce_store dst p_limbs r0 r1 r2 r3 r4 r5 r6 r7 r8

(* a * a for m = p: [mul_p] with 45 limb products instead of 81. Column
   k sums a_i * a_i for 2i = k and, for i < j, the cross term
   a_i * a_j twice, as a_i * d_j against the doubled limb d_j = 2 a_j.
   A doubled limb is below 2^30, so a cross product is below 2^59; a
   column holds at most four of them and one square, so with the
   shifted terms and the carry it stays below 2^62 as in [mul_p]. *)
let sqr_p dst a =
  let a0 = Array.unsafe_get a 0 and a1 = Array.unsafe_get a 1 and a2 = Array.unsafe_get a 2 in
  let a3 = Array.unsafe_get a 3 and a4 = Array.unsafe_get a 4 and a5 = Array.unsafe_get a 5 in
  let a6 = Array.unsafe_get a 6 and a7 = Array.unsafe_get a 7 and a8 = Array.unsafe_get a 8 in
  let d1 = a1 + a1 and d2 = a2 + a2 and d3 = a3 + a3 and d4 = a4 + a4 in
  let d5 = a5 + a5 and d6 = a6 + a6 and d7 = a7 + a7 and d8 = a8 + a8 in
  (* column 0 *)
  let s = a0 * a0 in
  let q0 = s land limb_mask and c = s asr limb_bits in
  (* column 1 *)
  let s = c + a0 * d1 in
  let q1 = s land limb_mask and c = s asr limb_bits in
  (* column 2 *)
  let s = c + a0 * d2 in
  let s = s + a1 * a1 in
  let q2 = s land limb_mask and c = s asr limb_bits in
  (* column 3 *)
  let s = c + a0 * d3 in
  let s = s + a1 * d2 in
  let s = s + (q0 lsl 9) in
  let q3 = s land limb_mask and c = s asr limb_bits in
  (* column 4 *)
  let s = c + a0 * d4 in
  let s = s + a1 * d3 in
  let s = s + a2 * a2 in
  let s = s + (q1 lsl 9) in
  let q4 = s land limb_mask and c = s asr limb_bits in
  (* column 5 *)
  let s = c + a0 * d5 in
  let s = s + a1 * d4 in
  let s = s + a2 * d3 in
  let s = s + (q2 lsl 9) in
  let q5 = s land limb_mask and c = s asr limb_bits in
  (* column 6 *)
  let s = c + a0 * d6 in
  let s = s + a1 * d5 in
  let s = s + a2 * d4 in
  let s = s + a3 * a3 in
  let s = s + (q3 lsl 9) in
  let s = s + (q0 lsl 18) in
  let q6 = s land limb_mask and c = s asr limb_bits in
  (* column 7 *)
  let s = c + a0 * d7 in
  let s = s + a1 * d6 in
  let s = s + a2 * d5 in
  let s = s + a3 * d4 in
  let s = s + (q4 lsl 9) in
  let s = s + (q1 lsl 18) in
  let s = s - (q0 lsl 21) in
  let q7 = s land limb_mask and c = s asr limb_bits in
  (* column 8 *)
  let s = c + a0 * d8 in
  let s = s + a1 * d7 in
  let s = s + a2 * d6 in
  let s = s + a3 * d5 in
  let s = s + a4 * a4 in
  let s = s + (q5 lsl 9) in
  let s = s + (q2 lsl 18) in
  let s = s - (q1 lsl 21) in
  let s = s + (q0 lsl 24) in
  let q8 = s land limb_mask and c = s asr limb_bits in
  (* column 9 *)
  let s = c + a1 * d8 in
  let s = s + a2 * d7 in
  let s = s + a3 * d6 in
  let s = s + a4 * d5 in
  let s = s + (q6 lsl 9) in
  let s = s + (q3 lsl 18) in
  let s = s - (q2 lsl 21) in
  let s = s + (q1 lsl 24) in
  let r0 = s land limb_mask and c = s asr limb_bits in
  (* column 10 *)
  let s = c + a2 * d8 in
  let s = s + a3 * d7 in
  let s = s + a4 * d6 in
  let s = s + a5 * a5 in
  let s = s + (q7 lsl 9) in
  let s = s + (q4 lsl 18) in
  let s = s - (q3 lsl 21) in
  let s = s + (q2 lsl 24) in
  let r1 = s land limb_mask and c = s asr limb_bits in
  (* column 11 *)
  let s = c + a3 * d8 in
  let s = s + a4 * d7 in
  let s = s + a5 * d6 in
  let s = s + (q8 lsl 9) in
  let s = s + (q5 lsl 18) in
  let s = s - (q4 lsl 21) in
  let s = s + (q3 lsl 24) in
  let r2 = s land limb_mask and c = s asr limb_bits in
  (* column 12 *)
  let s = c + a4 * d8 in
  let s = s + a5 * d7 in
  let s = s + a6 * a6 in
  let s = s + (q6 lsl 18) in
  let s = s - (q5 lsl 21) in
  let s = s + (q4 lsl 24) in
  let r3 = s land limb_mask and c = s asr limb_bits in
  (* column 13 *)
  let s = c + a5 * d8 in
  let s = s + a6 * d7 in
  let s = s + (q7 lsl 18) in
  let s = s - (q6 lsl 21) in
  let s = s + (q5 lsl 24) in
  let r4 = s land limb_mask and c = s asr limb_bits in
  (* column 14 *)
  let s = c + a6 * d8 in
  let s = s + a7 * a7 in
  let s = s + (q8 lsl 18) in
  let s = s - (q7 lsl 21) in
  let s = s + (q6 lsl 24) in
  let r5 = s land limb_mask and c = s asr limb_bits in
  (* column 15 *)
  let s = c + a7 * d8 in
  let s = s - (q8 lsl 21) in
  let s = s + (q7 lsl 24) in
  let r6 = s land limb_mask and c = s asr limb_bits in
  (* column 16 *)
  let s = c + a8 * a8 in
  let s = s + (q8 lsl 24) in
  let r7 = s land limb_mask and r8 = s asr limb_bits in
  reduce_store dst p_limbs r0 r1 r2 r3 r4 r5 r6 r7 r8

(* The scalar ring mod n keeps the generic product, and squares with it:
   it runs 60 of a warm handshake's 11,376 products. *)
let mul_into r dst a b = if r.p_shape then mul_p dst a b else mul_mont r dst a b
let sqr_into r dst a = if r.p_shape then sqr_p dst a else mul_mont r dst a a

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

(* The constants come from the modulus limbs alone: R mod m and
   R^2 mod m by doubling 1 with [add_into] (which reads only [m]) 261
   and 522 times, and R^3 mod m as the product of R^2 by itself. *)
let create m_bytes =
  if String.length m_bytes <> 32 || Char.code m_bytes.[0] < 0x80
     || Char.code m_bytes.[31] land 1 = 0
  then invalid_arg "Fe256.create: modulus must be odd, above 2^255 and 32 bytes";
  let m = limbs_of_bytes m_bytes 0 in
  let m0 = m.(0) in
  (* Newton's iteration doubles the valid bit-width each round:
     odd m0 is its own inverse mod 8, so 5 rounds cover 29 bits. *)
  let inv = ref m0 in
  for _ = 1 to 5 do
    let p = (m0 * !inv) land limb_mask in
    inv := (!inv * (2 - p)) land limb_mask
  done;
  let n0 = ((1 lsl limb_bits) - !inv) land limb_mask in
  let one_m = Array.make limbs 0 and r2 = Array.make limbs 0 and r3 = Array.make limbs 0 in
  let r = { m; n0; r2; r3; one_m; p_shape = m = p_limbs } in
  r2.(0) <- 1;
  for i = 1 to 2 * limbs * limb_bits do
    add_into r r2 r2 r2;
    if i = limbs * limb_bits then Array.blit r2 0 one_m 0 limbs
  done;
  mul_into r r3 r2 r2;
  r

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

(* a < m: the borrow chain of a - m, as in [reduce_store], ends
   negative. *)
let below_modulus r a =
  let d = ref 0 in
  for i = 0 to limbs - 1 do
    d := Array.unsafe_get a i - Array.unsafe_get r.m i + (!d asr limb_bits)
  done;
  !d < 0

let of_bytes r s off =
  if off < 0 || off > String.length s - 32 then invalid_arg "Fe256.of_bytes";
  let a = limbs_of_bytes s off in
  if below_modulus r a then begin
    mul_into r a a r.r2;
    Some a
  end
  else None

(* Any 32 bytes are below 2^256 < 2m, since [create] wants m > 2^255, so
   one conditional subtraction reduces them. *)
let of_bytes_mod r s off =
  if off < 0 || off > String.length s - 32 then invalid_arg "Fe256.of_bytes_mod";
  let a = limbs_of_bytes s off in
  reduce_store a r.m a.(0) a.(1) a.(2) a.(3) a.(4) a.(5) a.(6) a.(7) a.(8);
  mul_into r a a r.r2;
  a

(* Ordinary 1; only ever read. *)
let ordinary_one = Array.init limbs (fun i -> if i = 0 then 1 else 0)

(* The product by ordinary 1 takes [a] out of Montgomery form. *)
let to_bytes r b off a =
  if off < 0 || off > Bytes.length b - 32 then invalid_arg "Fe256.to_bytes";
  let o = (Domain.DLS.get scratch).out in
  mul_into r o a ordinary_one;
  bytes_of_limbs o b off

let to_string r a =
  let b = Bytes.create 32 in
  to_bytes r b 0 a;
  Bytes.unsafe_to_string b

(* Inversion is Bernstein and Yang's safegcd ("Fast constant-time gcd
   computation and modular inversion", TCHES 2019) in the half-delta
   form of libsecp256k1's modinv32, on 29-bit limbs. With f = m, g = a,
   d = 0, e = 1 and zeta = -1, a divstep replaces (f, g) by (g, g - f)
   and zeta by -zeta - 2 if zeta < 0 and g is odd; otherwise it adds f
   to g if g is odd and lowers zeta by 1. Then it halves g, now even.
   d and e follow f and g mod m, so that d a = f and e a = g (mod m)
   throughout. Once g reaches 0, f = +-1 (m prime, a nonzero) and +-d
   is a^-1; for a = 0, d stays 0. The steps run in [batches] batches
   of [batch_steps]: each batch works on the low limbs of f and g alone
   and yields a 2x2 matrix [[u, v], [q, r]] that takes (f, g) to
   (u f + v g, q f + r g) / 2^29, and [update_fg] and [update_de] apply
   it to the full numbers. Every step and every limb update is
   branch-free and the counts are fixed, so this work does not depend
   on [a]; the closing product ends in [reduce_store]'s conditional
   subtraction, as every product does.

   21 batches of 29 make 609 divsteps. 590 suffice for any modulus and
   input below 2^256: the bound libsecp256k1 cites for its 600
   (doc/safegcd_implementation.md), computed by Wuille
   (github.com/sipa/safegcd-bounds) for this half-delta variant; the
   paper proves 741 for its original divstep. No test can check it:
   too few steps leave g nonzero only for some inputs, and 19 or 20
   batches pass every test in the suite, as 21 do.

   Signed numbers are 9 limbs: limbs 0-7 in [0, 2^29), limb 8 signed.
   After n divsteps every entry of the matrix is at most 2^n in
   magnitude, and so is |u| + |v| and |q| + |r|: a step doubles u and
   v, and adds (or swaps in) one row to the other. *)
let batches = 21
let batch_steps = 29

(* (f, g) <- (u f + v g, q f + r g) / 2^29; the 29 low bits of both sums
   are zero by construction. |f| and |g| stay at most m < 2^256, so
   their limb 8 is at most 2^24 in magnitude. A sum u f_i + v g_i is at
   most (|u| + |v|) 2^29 <= 2^58, and the carry below 2^30, so no sum
   reaches 2^59. *)
let update_fg f g u v q r =
  let f0 = Array.unsafe_get f 0 and g0 = Array.unsafe_get g 0 in
  let cf = ref ((u * f0 + v * g0) asr limb_bits) in
  let cg = ref ((q * f0 + r * g0) asr limb_bits) in
  for i = 1 to limbs - 1 do
    let fi = Array.unsafe_get f i and gi = Array.unsafe_get g i in
    cf := !cf + u * fi + v * gi;
    cg := !cg + q * fi + r * gi;
    Array.unsafe_set f (i - 1) (!cf land limb_mask);
    Array.unsafe_set g (i - 1) (!cg land limb_mask);
    cf := !cf asr limb_bits;
    cg := !cg asr limb_bits
  done;
  Array.unsafe_set f (limbs - 1) !cf;
  Array.unsafe_set g (limbs - 1) !cg

(* (d, e) <- (u d + v e + md m, q d + r e + me m) / 2^29, where md and
   me make the 29 low bits zero. They start as u (d < 0) plus v (e < 0)
   and q (d < 0) plus r (e < 0), which stand for d + m and e + m, in
   (-m, m); then each drops by below 2^29 to the digit that clears the
   low limb, n0 times the sum's low limb mod 2^29, as in a Montgomery
   product (that product wraps, but only its low 29 bits are kept). So
   d and e stay in (-2m, m): the sum is in (-2^29 m - 2^29 m, 2^29 m)
   before the shift. A limb's sum holds u d_i + v e_i, at most 2^58,
   m_i md with |md| <= 2^30, below 2^59, and a carry below 2^31: it
   stays below 2^60, and no limb update leaves OCaml's 63 bits. *)
let update_de ring d e u v q r =
  let m = ring.m and n0 = ring.n0 in
  let sd = Array.unsafe_get d (limbs - 1) asr 62 and se = Array.unsafe_get e (limbs - 1) asr 62 in
  let md = (u land sd) + (v land se) and me = (q land sd) + (r land se) in
  let d0 = Array.unsafe_get d 0 and e0 = Array.unsafe_get e 0 in
  let cd = (u * d0) + (v * e0) and ce = (q * d0) + (r * e0) in
  let md = md - ((md - (cd * n0)) land limb_mask) in
  let me = me - ((me - (ce * n0)) land limb_mask) in
  let m0 = Array.unsafe_get m 0 in
  let cd = ref ((cd + (m0 * md)) asr limb_bits) and ce = ref ((ce + (m0 * me)) asr limb_bits) in
  for i = 1 to limbs - 1 do
    let di = Array.unsafe_get d i and ei = Array.unsafe_get e i and mi = Array.unsafe_get m i in
    cd := !cd + (u * di) + (v * ei) + (mi * md);
    ce := !ce + (q * di) + (r * ei) + (mi * me);
    Array.unsafe_set d (i - 1) (!cd land limb_mask);
    Array.unsafe_set e (i - 1) (!ce land limb_mask);
    cd := !cd asr limb_bits;
    ce := !ce asr limb_bits
  done;
  Array.unsafe_set d (limbs - 1) !cd;
  Array.unsafe_set e (limbs - 1) !ce

(* d in (-2m, m) to [0, m), negated when [sign] < 0: add m if d < 0,
   negate and carry, which leaves (-m, m) in 9 limbs of 29 bits, mod
   2^261; the carry out of limb 8 is then -1 if that is negative, and
   the second pass adds m back. *)
let normalize ring d sign =
  let m = ring.m in
  let add = Array.unsafe_get d (limbs - 1) asr 62 and neg = sign asr 62 in
  let c = ref 0 in
  for i = 0 to limbs - 1 do
    let x = Array.unsafe_get d i + (Array.unsafe_get m i land add) in
    c := !c + ((x lxor neg) - neg);
    Array.unsafe_set d i (!c land limb_mask);
    c := !c asr limb_bits
  done;
  let add = !c in
  c := 0;
  for i = 0 to limbs - 1 do
    c := !c + Array.unsafe_get d i + (Array.unsafe_get m i land add);
    Array.unsafe_set d i (!c land limb_mask);
    c := !c asr limb_bits
  done

(* a holds a R, so the divsteps give (a R)^-1 in ordinary form, and one
   product by R^3 makes it a^-1 R, the Montgomery image of a^-1. *)
let inv_into ring dst a =
  let { f; g; d; e; _ } = Domain.DLS.get scratch in
  set f ring.m;
  set g a;
  Array.fill d 0 limbs 0;
  Array.fill e 0 limbs 0;
  e.(0) <- 1;
  let zeta = ref (-1) in
  for _ = 1 to batches do
    (* The steps run on the low limbs fl and gl alone: after i of
       them, fl and gl agree with the full f and g in their low 29 - i
       bits, and a step reads only g's parity. The matrix keeps
       u f0 + v g0 = 2^i fl and q f0 + r g0 = 2^i gl. The masks are
       -1 for zeta < 0, for g odd and for both. *)
    let fl = ref (Array.unsafe_get f 0) and gl = ref (Array.unsafe_get g 0) in
    let u = ref 1 and v = ref 0 and q = ref 0 and r = ref 1 in
    for _ = 1 to batch_steps do
      let neg = !zeta asr 62 and odd = - (!gl land 1) in
      gl := !gl + (((!fl lxor neg) - neg) land odd);
      q := !q + (((!u lxor neg) - neg) land odd);
      r := !r + (((!v lxor neg) - neg) land odd);
      let swap = neg land odd in
      zeta := (!zeta lxor swap) - 1;
      fl := !fl + (!gl land swap);
      u := !u + (!q land swap);
      v := !v + (!r land swap);
      gl := !gl asr 1;
      u := !u lsl 1;
      v := !v lsl 1
    done;
    update_fg f g !u !v !q !r;
    update_de ring d e !u !v !q !r
  done;
  normalize ring d (Array.unsafe_get f (limbs - 1));
  mul_into ring dst d ring.r3
