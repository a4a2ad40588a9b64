(* AES-GCM with table-driven GHASH (Shoup's 8-bit method).

   128-bit values are 4 big-endian 32-bit words in native ints, so the
   whole GHASH inner loop is unboxed. Per key, a 256-entry table of
   byte multiples of the hash subkey H turns each block product into
   16 shift-and-xor steps instead of 128 conditional bit steps; the
   rem8 table folds the eight bits shifted out of the reflected
   polynomial back in (coefficients of 0xE1 = x^128 + x^7 + x^2 + x + 1).
   The table (8 KiB) is rebuilt in place for each call's key in one
   per-domain array, so no call allocates it.

   Nothing allocates per block: CTR hands its counter to AES as four
   ints and XORs the input into the keystream block AES writes straight
   into the output buffer, and GHASH keeps its running product in local
   ints. *)

let mask32 = 0xffffffff

(* rem8.(r) is r * x^128 reduced, for the byte r shifted out of the
   bottom of a product: bit k of r, the coefficient of x^(127-k),
   becomes x^128 * x^(7-k), that is 0xE1 shifted right by 7 - k. The
   value is the top 16 bits of the product's first word. *)
let rem8 =
  Array.init 256 (fun r ->
      let acc = ref 0 in
      for k = 0 to 7 do
        if r land (1 lsl k) <> 0 then acc := !acc lxor (0xe100 lsr (7 - k))
      done;
      !acc)

(* Flat 256x4 table: entry b at m.(4b .. 4b+3) is (b as an 8-bit
   polynomial) * H, most significant word first. One per domain
   (fleet shards encrypt concurrently), refilled for every key. *)
let htab = Domain.DLS.new_key (fun () -> Array.make 1024 0)

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

(* Fill [m] with the byte multiples of H = (h0, h1, h2, h3). Bit 7 of a
   byte is the x^0 coefficient: entry 0x80 is H, and entries 0x40 down
   to 0x01 are H*x up to H*x^7, each the one before it multiplied by x
   (shift right one bit, folding the dropped bit back via 0xE1). Every
   other entry is the XOR of the entries of its bits; entry 0 is never
   written and stays zero. *)
let build_htab m h0 h1 h2 h3 =
  m.(512) <- h0;
  m.(513) <- h1;
  m.(514) <- h2;
  m.(515) <- h3;
  for k = 6 downto 0 do
    let d = 4 lsl k and s = 8 lsl k in
    let w0 = m.(s) and w1 = m.(s + 1) and w2 = m.(s + 2) and w3 = m.(s + 3) in
    m.(d) <- (w0 lsr 1) lxor ((w3 land 1) * 0xe1000000);
    m.(d + 1) <- (w1 lsr 1) lor ((w0 land 1) lsl 31);
    m.(d + 2) <- (w2 lsr 1) lor ((w1 land 1) lsl 31);
    m.(d + 3) <- (w3 lsr 1) lor ((w2 land 1) lsl 31)
  done;
  for k = 1 to 7 do
    let i = 1 lsl k in
    let a = 4 * i in
    let w0 = m.(a) and w1 = m.(a + 1) and w2 = m.(a + 2) and w3 = m.(a + 3) in
    for j = 1 to i - 1 do
      let s = 4 * j in
      m.(a + s) <- w0 lxor m.(s);
      m.(a + s + 1) <- w1 lxor m.(s + 1);
      m.(a + s + 2) <- w2 lxor m.(s + 2);
      m.(a + s + 3) <- w3 lxor m.(s + 3)
    done
  done

(* z <- (z xor b) * H for the block b = (b0, b1, b2, b3). z takes the
   XOR first; its bytes are then consumed most-reduced-first, each step
   multiplying the product by x^8 and adding the byte's table entry,
   while the product accumulates in four local ints; z receives it at
   the end. Starting the product at zero makes the first step load its
   table entry like every other. The four steps of a word are written
   out: a loop over them, shifting by a variable amount, measured ~1.2x
   slower. The lookups skip the bounds check: a rem8 index is a byte,
   and an index into [m] a byte times 4 plus at most 3, inside its
   1024 entries. *)
let absorb_block (m : int array) (z : int array) b0 b1 b2 b3 =
  z.(0) <- z.(0) lxor b0;
  z.(1) <- z.(1) lxor b1;
  z.(2) <- z.(2) lxor b2;
  z.(3) <- z.(3) lxor b3;
  let p0 = ref 0 and p1 = ref 0 and p2 = ref 0 and p3 = ref 0 in
  for i = 3 downto 0 do
    let w = z.(i) in
    let rem = !p3 land 0xff in
    p3 := (!p3 lsr 8) lor ((!p2 land 0xff) lsl 24);
    p2 := (!p2 lsr 8) lor ((!p1 land 0xff) lsl 24);
    p1 := (!p1 lsr 8) lor ((!p0 land 0xff) lsl 24);
    let d = 4 * (w land 0xff) in
    p0 := (!p0 lsr 8) lxor (Array.unsafe_get rem8 rem lsl 16) lxor Array.unsafe_get m d;
    p1 := !p1 lxor Array.unsafe_get m (d + 1);
    p2 := !p2 lxor Array.unsafe_get m (d + 2);
    p3 := !p3 lxor Array.unsafe_get m (d + 3);
    let rem = !p3 land 0xff in
    p3 := (!p3 lsr 8) lor ((!p2 land 0xff) lsl 24);
    p2 := (!p2 lsr 8) lor ((!p1 land 0xff) lsl 24);
    p1 := (!p1 lsr 8) lor ((!p0 land 0xff) lsl 24);
    let d = 4 * ((w lsr 8) land 0xff) in
    p0 := (!p0 lsr 8) lxor (Array.unsafe_get rem8 rem lsl 16) lxor Array.unsafe_get m d;
    p1 := !p1 lxor Array.unsafe_get m (d + 1);
    p2 := !p2 lxor Array.unsafe_get m (d + 2);
    p3 := !p3 lxor Array.unsafe_get m (d + 3);
    let rem = !p3 land 0xff in
    p3 := (!p3 lsr 8) lor ((!p2 land 0xff) lsl 24);
    p2 := (!p2 lsr 8) lor ((!p1 land 0xff) lsl 24);
    p1 := (!p1 lsr 8) lor ((!p0 land 0xff) lsl 24);
    let d = 4 * ((w lsr 16) land 0xff) in
    p0 := (!p0 lsr 8) lxor (Array.unsafe_get rem8 rem lsl 16) lxor Array.unsafe_get m d;
    p1 := !p1 lxor Array.unsafe_get m (d + 1);
    p2 := !p2 lxor Array.unsafe_get m (d + 2);
    p3 := !p3 lxor Array.unsafe_get m (d + 3);
    let rem = !p3 land 0xff in
    p3 := (!p3 lsr 8) lor ((!p2 land 0xff) lsl 24);
    p2 := (!p2 lsr 8) lor ((!p1 land 0xff) lsl 24);
    p1 := (!p1 lsr 8) lor ((!p0 land 0xff) lsl 24);
    let d = 4 * ((w lsr 24) land 0xff) in
    p0 := (!p0 lsr 8) lxor (Array.unsafe_get rem8 rem lsl 16) lxor Array.unsafe_get m d;
    p1 := !p1 lxor Array.unsafe_get m (d + 1);
    p2 := !p2 lxor Array.unsafe_get m (d + 2);
    p3 := !p3 lxor Array.unsafe_get m (d + 3)
  done;
  z.(0) <- !p0;
  z.(1) <- !p1;
  z.(2) <- !p2;
  z.(3) <- !p3

(* Absorb a part as zero-padded 16-byte blocks, like the reference
   GHASH does per data part. *)
let ghash_absorb m z s =
  let len = String.length s in
  let full = len / 16 in
  for i = 0 to full - 1 do
    let base = 16 * i in
    absorb_block m z (word_of s base) (word_of s (base + 4)) (word_of s (base + 8))
      (word_of s (base + 12))
  done;
  let n = len - (16 * full) in
  if n > 0 then begin
    let base = 16 * full in
    absorb_block m z (tail_word s base n 0) (tail_word s base n 1) (tail_word s base n 2)
      (tail_word s base n 3)
  end

(* The hash table for H, given as 16 bytes. *)
let htab_of h =
  let m = Domain.DLS.get htab in
  build_htab m (word_of h 0) (word_of h 4) (word_of h 8) (word_of h 12);
  m

let ghash_bytes ~h parts =
  let m = htab_of h and z = Array.make 4 0 in
  List.iter (ghash_absorb m z) parts;
  let b = Bytes.create 16 in
  Array.iteri (fun i w -> Bytes.set_int32_be b (4 * i) (Int32.of_int w)) z;
  Bytes.unsafe_to_string b

(* Absorb GHASH's closing block: both lengths in bits. *)
let absorb_lengths m z aad_len ct_len =
  absorb_block m z ((8 * aad_len) lsr 32) ((8 * aad_len) land mask32) ((8 * ct_len) lsr 32)
    ((8 * ct_len) land mask32)

let derive ~key ~iv =
  let aes = Aes.expand_key key in
  let h = Bytes.create 16 in
  Aes.encrypt_words aes 0 0 0 0 h 0;
  let m = htab_of (Bytes.unsafe_to_string h) in
  let j0 =
    if String.length iv = 12 then [| word_of iv 0; word_of iv 4; word_of iv 8; 1 |]
    else begin
      if String.length iv = 0 then invalid_arg "Gcm: empty IV";
      let z = Array.make 4 0 in
      ghash_absorb m z iv;
      absorb_lengths m z 0 (String.length iv);
      z
    end
  in
  (aes, m, j0)

(* CTR from inc32(J0): AES writes each counter block's keystream
   straight into the output, and the input is XORed into it there,
   8 bytes at a time. Only a partial last block goes through a
   16-byte scratch. *)
let ctr_transform aes j0 input =
  let len = String.length input in
  let out = Bytes.create len in
  let c0 = j0.(0) and c1 = j0.(1) and c2 = j0.(2) and c3 = j0.(3) + 1 in
  let full = len / 16 in
  for i = 0 to full - 1 do
    let base = 16 * i in
    Aes.encrypt_words aes c0 c1 c2 ((c3 + i) land mask32) out base;
    Bytes.set_int64_ne out base
      (Int64.logxor (Bytes.get_int64_ne out base) (String.get_int64_ne input base));
    Bytes.set_int64_ne out (base + 8)
      (Int64.logxor (Bytes.get_int64_ne out (base + 8)) (String.get_int64_ne input (base + 8)))
  done;
  let base = 16 * full in
  if len > base then begin
    let ks = Bytes.create 16 in
    Aes.encrypt_words aes c0 c1 c2 ((c3 + full) land mask32) ks 0;
    for j = 0 to len - base - 1 do
      Bytes.set out (base + j)
        (Char.unsafe_chr (Char.code input.[base + j] lxor Char.code (Bytes.get ks j)))
    done
  end;
  Bytes.unsafe_to_string out

(* tag = GHASH xor E(K, J0): AES writes E(K, J0) into the tag, and the
   hash is XORed into it word by word. *)
let compute_tag aes m j0 ~aad ~ct =
  let z = Array.make 4 0 in
  ghash_absorb m z aad;
  ghash_absorb m z ct;
  absorb_lengths m z (String.length aad) (String.length ct);
  let tag = Bytes.create 16 in
  Aes.encrypt_words aes j0.(0) j0.(1) j0.(2) j0.(3) tag 0;
  for i = 0 to 3 do
    Bytes.set_int32_be tag (4 * i)
      (Int32.logxor (Bytes.get_int32_be tag (4 * i)) (Int32.of_int z.(i)))
  done;
  Bytes.unsafe_to_string tag

let encrypt ~key ~iv ?(aad = "") plaintext =
  let aes, m, j0 = derive ~key ~iv in
  let ct = ctr_transform aes j0 plaintext in
  (ct, compute_tag aes m j0 ~aad ~ct)

let decrypt ~key ~iv ?(aad = "") ~tag ciphertext =
  let aes, m, j0 = derive ~key ~iv in
  let expected = compute_tag aes m j0 ~aad ~ct:ciphertext in
  (* Constant-time-style comparison: accumulate differences. *)
  let diff = ref (String.length tag lxor 16) in
  String.iteri
    (fun i c -> if i < 16 then diff := !diff lor (Char.code c lxor Char.code expected.[i]))
    tag;
  if !diff = 0 then Some (ctr_transform aes j0 ciphertext) else None
