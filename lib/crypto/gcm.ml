(* AES-GCM with table-driven GHASH (Shoup's 4-bit method).

   128-bit values are 4 big-endian 32-bit words in native ints, so the
   whole GHASH inner loop is unboxed. Per key, a 16-entry table of
   nibble multiples of the hash subkey H turns each block product into
   32 shift-and-xor steps instead of 128 conditional bit steps; the
   rem4 table folds the four bits shifted out of the reflected
   polynomial back in (coefficients of 0xE1 = x^128 + x^7 + x^2 + x + 1).

   Nothing allocates per block: the CTR keystream is encrypted in place
   in one per-call scratch block and XORed into the one output buffer,
   and GHASH keeps its running product in local ints. *)

let mask32 = 0xffffffff

let rem4 =
  [| 0x0000; 0x1c20; 0x3840; 0x2460; 0x7080; 0x6ca0; 0x48c0; 0x54e0;
     0xe100; 0xfd20; 0xd940; 0xc560; 0x9180; 0x8da0; 0xa9c0; 0xb5e0 |]

(* Flat 16x4 table: entry j at t.(4j .. 4j+3) is (j as a 4-bit
   polynomial) * H, most significant word first. *)
type hkey = int array

(* Big-endian 32-bit word of [s] at [off]. *)
let word_of s off = Int32.to_int (String.get_int32_be s off) land mask32

(* Word [k] of the zero-padded block holding the last [n] < 16 bytes
   of [s], from [off]. *)
let tail_word s off n k =
  let w = ref 0 in
  for j = 4 * k to (4 * k) + 3 do
    w := (!w lsl 8) lor (if j < n then Char.code s.[off + j] else 0)
  done;
  !w

(* Multiply by x in the reflected representation: shift right one bit,
   folding the dropped bit back via the 0xE1 reduction byte. *)
let mul_x w =
  let lsb = w.(3) land 1 in
  w.(3) <- (w.(3) lsr 1) lor ((w.(2) land 1) lsl 31);
  w.(2) <- (w.(2) lsr 1) lor ((w.(1) land 1) lsl 31);
  w.(1) <- (w.(1) lsr 1) lor ((w.(0) land 1) lsl 31);
  w.(0) <- (w.(0) lsr 1) lxor (lsb * 0xe1000000)

let build_htab h =
  let t = Array.make 64 0 in
  let w = [| word_of h 0; word_of h 4; word_of h 8; word_of h 12 |] in
  let set j = Array.blit w 0 t (4 * j) 4 in
  (* bit 3 of a nibble is the x^0 coefficient: entry 8 is H itself,
     entries 4, 2, 1 are H*x, H*x^2, H*x^3. *)
  set 8;
  mul_x w;
  set 4;
  mul_x w;
  set 2;
  mul_x w;
  set 1;
  List.iter
    (fun i ->
      for j = 1 to i - 1 do
        for k = 0 to 3 do
          t.((4 * (i + j)) + k) <- t.((4 * i) + k) lxor t.((4 * j) + k)
        done
      done)
    [ 2; 4; 8 ];
  t

(* z <- (z xor b) * H for the block b = (b0, b1, b2, b3). z takes the
   XOR first; its nibbles are then consumed most-reduced-first while
   the product accumulates in four local ints, and z receives the
   product at the end. Starting the product at zero makes the first
   step load its table entry like every other. *)
let absorb_block (t : hkey) (z : int array) b0 b1 b2 b3 =
  z.(0) <- z.(0) lxor b0;
  z.(1) <- z.(1) lxor b1;
  z.(2) <- z.(2) lxor b2;
  z.(3) <- z.(3) lxor b3;
  let p0 = ref 0 and p1 = ref 0 and p2 = ref 0 and p3 = ref 0 in
  for i = 3 downto 0 do
    let w = z.(i) in
    for j = 0 to 7 do
      let rem = !p3 land 0xf in
      p3 := (!p3 lsr 4) lor ((!p2 land 0xf) lsl 28);
      p2 := (!p2 lsr 4) lor ((!p1 land 0xf) lsl 28);
      p1 := (!p1 lsr 4) lor ((!p0 land 0xf) lsl 28);
      p0 := (!p0 lsr 4) lxor (Array.unsafe_get rem4 rem lsl 16);
      let d = 4 * ((w lsr (4 * j)) land 0xf) in
      p0 := !p0 lxor Array.unsafe_get t d;
      p1 := !p1 lxor Array.unsafe_get t (d + 1);
      p2 := !p2 lxor Array.unsafe_get t (d + 2);
      p3 := !p3 lxor Array.unsafe_get t (d + 3)
    done
  done;
  z.(0) <- !p0;
  z.(1) <- !p1;
  z.(2) <- !p2;
  z.(3) <- !p3

(* Absorb a part as zero-padded 16-byte blocks, like the reference
   GHASH does per data part. *)
let ghash_absorb t z s =
  let len = String.length s in
  let full = len / 16 in
  for i = 0 to full - 1 do
    let base = 16 * i in
    absorb_block t z (word_of s base) (word_of s (base + 4)) (word_of s (base + 8))
      (word_of s (base + 12))
  done;
  let n = len - (16 * full) in
  if n > 0 then begin
    let base = 16 * full in
    absorb_block t z (tail_word s base n 0) (tail_word s base n 1) (tail_word s base n 2)
      (tail_word s base n 3)
  end

let ghash t parts =
  let z = Array.make 4 0 in
  List.iter (ghash_absorb t z) parts;
  z

(* Store the block (w0, w1, w2, w3) big-endian into [b]. *)
let set_block b w0 w1 w2 w3 =
  Bytes.set_int32_be b 0 (Int32.of_int w0);
  Bytes.set_int32_be b 4 (Int32.of_int w1);
  Bytes.set_int32_be b 8 (Int32.of_int w2);
  Bytes.set_int32_be b 12 (Int32.of_int w3)

let string_of_words w =
  let b = Bytes.create 16 in
  set_block b w.(0) w.(1) w.(2) w.(3);
  Bytes.unsafe_to_string b

let ghash_bytes ~h parts = string_of_words (ghash (build_htab h) parts)

(* Absorb GHASH's closing block: both lengths in bits. *)
let absorb_lengths t z aad_len ct_len =
  absorb_block t z ((8 * aad_len) lsr 32) ((8 * aad_len) land mask32) ((8 * ct_len) lsr 32)
    ((8 * ct_len) land mask32)

let derive ~key ~iv =
  let aes = Aes.expand_key key in
  let h = Bytes.make 16 '\000' in
  Aes.encrypt_into aes h 0 h 0;
  let t = build_htab (Bytes.unsafe_to_string h) in
  let j0 =
    if String.length iv = 12 then
      [| word_of iv 0; word_of iv 4; word_of iv 8; 1 |]
    else begin
      if String.length iv = 0 then invalid_arg "Gcm: empty IV";
      let z = Array.make 4 0 in
      ghash_absorb t z iv;
      absorb_lengths t z 0 (String.length iv);
      z
    end
  in
  (aes, t, j0)

(* CTR from inc32(J0): each counter block is encrypted in place in one
   16-byte scratch and XORed into the output, 8 bytes at a time. *)
let ctr_transform aes j0 input =
  let len = String.length input in
  let out = Bytes.create len in
  let ks = Bytes.create 16 in
  let keystream i =
    set_block ks j0.(0) j0.(1) j0.(2) ((j0.(3) + 1 + i) land mask32);
    Aes.encrypt_into aes ks 0 ks 0
  in
  let full = len / 16 in
  for i = 0 to full - 1 do
    keystream i;
    let base = 16 * i in
    Bytes.set_int64_ne out base
      (Int64.logxor (String.get_int64_ne input base) (Bytes.get_int64_ne ks 0));
    Bytes.set_int64_ne out (base + 8)
      (Int64.logxor (String.get_int64_ne input (base + 8)) (Bytes.get_int64_ne ks 8))
  done;
  let base = 16 * full in
  if len > base then begin
    keystream full;
    for j = 0 to len - base - 1 do
      Bytes.set out (base + j)
        (Char.unsafe_chr (Char.code input.[base + j] lxor Char.code (Bytes.get ks j)))
    done
  end;
  Bytes.unsafe_to_string out

let compute_tag aes t j0 ~aad ~ct =
  let z = Array.make 4 0 in
  ghash_absorb t z aad;
  ghash_absorb t z ct;
  absorb_lengths t z (String.length aad) (String.length ct);
  (* tag = GHASH xor E(K, J0) *)
  let ek = Bytes.create 16 in
  set_block ek j0.(0) j0.(1) j0.(2) j0.(3);
  Aes.encrypt_into aes ek 0 ek 0;
  let ek = Bytes.unsafe_to_string ek in
  for i = 0 to 3 do
    z.(i) <- z.(i) lxor word_of ek (4 * i)
  done;
  string_of_words z

let encrypt ~key ~iv ?(aad = "") plaintext =
  let aes, t, j0 = derive ~key ~iv in
  let ct = ctr_transform aes j0 plaintext in
  (ct, compute_tag aes t j0 ~aad ~ct)

let decrypt ~key ~iv ?(aad = "") ~tag ciphertext =
  let aes, t, j0 = derive ~key ~iv in
  let expected = compute_tag aes t j0 ~aad ~ct:ciphertext in
  (* Constant-time-style comparison: accumulate differences. *)
  let diff = ref (String.length tag lxor 16) in
  String.iteri
    (fun i c -> if i < 16 then diff := !diff lor (Char.code c lxor Char.code expected.[i]))
    tag;
  if !diff = 0 then Some (ctr_transform aes j0 ciphertext) else None
