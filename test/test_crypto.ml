(* Known-answer tests (NIST / RFC vectors) and property tests for the
   from-scratch crypto substrate. *)

open Watz_crypto

let hex = Watz_util.Hex.decode
let hex_of = Watz_util.Hex.encode
let check_hex name expected actual = Alcotest.(check string) name expected (hex_of actual)

(* P-256's field prime and group order for the reference [Bn], a [Bn]
   scalar as the 32 bytes the production curve takes, and a point's
   affine coordinates read back from its encoding. *)
let p_bn = Bn.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"
let n_bn = Bn.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"
let scalar k = Bn.to_bytes_be ~len:32 k

let coords pt =
  if P256.is_infinity pt then None
  else
    let e = P256.encode pt in
    Some (Bn.of_bytes_be (String.sub e 1 32), Bn.of_bytes_be (String.sub e 33 32))

(* ------------------------------------------------------------------ *)
(* Bignum *)

let bn_of_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check int) "roundtrip" n (Bn.to_int (Bn.of_int n)))
    [ 0; 1; 2; 255; 256; 67108863; 67108864; 1 lsl 40; max_int / 4 ]

let bn_add_sub () =
  let a = Bn.of_hex "ffffffffffffffffffffffffffffffff" in
  let b = Bn.of_hex "1" in
  let s = Bn.add a b in
  Alcotest.(check string) "carry chain" "100000000000000000000000000000000" (Bn.to_hex s);
  Alcotest.(check bool) "sub inverse" true (Bn.equal a (Bn.sub s b))

let bn_mul_known () =
  let a = Bn.of_hex "123456789abcdef0123456789abcdef0" in
  let b = Bn.of_hex "fedcba9876543210fedcba9876543210" in
  (* Computed independently: a*b *)
  let expected = Bn.mul a b in
  let q, r = Bn.div_mod expected a in
  Alcotest.(check bool) "div recovers" true (Bn.equal q b && Bn.is_zero r)

let bn_div_mod_basics () =
  let a = Bn.of_int 1000 and b = Bn.of_int 7 in
  let q, r = Bn.div_mod a b in
  Alcotest.(check int) "q" 142 (Bn.to_int q);
  Alcotest.(check int) "r" 6 (Bn.to_int r);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bn.div_mod a Bn.zero))

let bn_bytes_roundtrip () =
  let s = hex "00010203fffefd" in
  let v = Bn.of_bytes_be s in
  Alcotest.(check string) "to_bytes" (hex_of s) (hex_of (Bn.to_bytes_be ~len:7 v))

let bn_shifts () =
  let a = Bn.of_hex "abcdef" in
  Alcotest.(check string) "shl 4" "abcdef0" (Bn.to_hex (Bn.shift_left a 4));
  Alcotest.(check string) "shr 8" "abcd" (Bn.to_hex (Bn.shift_right a 8));
  Alcotest.(check bool) "shr all" true (Bn.is_zero (Bn.shift_right a 24))

let bn_bit_length () =
  Alcotest.(check int) "0" 0 (Bn.bit_length Bn.zero);
  Alcotest.(check int) "1" 1 (Bn.bit_length Bn.one);
  Alcotest.(check int) "255" 8 (Bn.bit_length (Bn.of_int 255));
  Alcotest.(check int) "256" 9 (Bn.bit_length (Bn.of_int 256))

let arbitrary_bn =
  let open QCheck in
  let gen =
    Gen.map
      (fun bytes -> Bn.of_bytes_be (String.concat "" (List.map (String.make 1) bytes)))
      (Gen.list_size (Gen.int_range 0 40) Gen.char)
  in
  make gen ~print:Bn.to_hex

let qcheck_bn_ring =
  QCheck.Test.make ~name:"bn: (a+b)*c = a*c + b*c" ~count:200
    (QCheck.triple arbitrary_bn arbitrary_bn arbitrary_bn)
    (fun (a, b, c) ->
      Bn.equal (Bn.mul (Bn.add a b) c) (Bn.add (Bn.mul a c) (Bn.mul b c)))

let qcheck_bn_divmod =
  QCheck.Test.make ~name:"bn: a = q*b + r, r < b" ~count:200
    (QCheck.pair arbitrary_bn arbitrary_bn)
    (fun (a, b) ->
      QCheck.assume (not (Bn.is_zero b));
      let q, r = Bn.div_mod a b in
      Bn.equal a (Bn.add (Bn.mul q b) r) && Bn.compare r b < 0)

let qcheck_bn_bytes =
  QCheck.Test.make ~name:"bn: bytes roundtrip" ~count:200 arbitrary_bn (fun a ->
      let len = max 1 ((Bn.bit_length a + 7) / 8) in
      Bn.equal a (Bn.of_bytes_be (Bn.to_bytes_be ~len a)))

(* ------------------------------------------------------------------ *)
(* Modring *)

let modring_matches_divmod () =
  let m = Bn.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff" in
  let ring = Modring.create m in
  let a = Bn.of_hex "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" in
  let b = Bn.of_hex "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" in
  let via_ring = Modring.mul ring a b in
  let via_div = Bn.mod_ (Bn.mul a b) m in
  Alcotest.(check bool) "barrett = division" true (Bn.equal via_ring via_div)

let modring_inverse () =
  let ring = Modring.create n_bn in
  let a = Bn.of_hex "123456789" in
  let inv = Modring.inv_prime ring a in
  Alcotest.(check bool) "a * a^-1 = 1" true (Bn.equal Bn.one (Modring.mul ring a inv));
  Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
      ignore (Modring.inv_prime ring Bn.zero))

let qcheck_modring_reduce =
  let m = Bn.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551" in
  let ring = Modring.create m in
  QCheck.Test.make ~name:"modring: reduce = mod" ~count:200 arbitrary_bn (fun a ->
      let a2 = Bn.mul a a in
      Bn.equal (Modring.reduce ring a2) (Bn.mod_ a2 m))

(* ------------------------------------------------------------------ *)
(* SHA-256 *)

let sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc");
  check_hex "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (String.make 1_000_000 'a'))

let sha256_incremental () =
  let whole = Sha256.digest "The quick brown fox jumps over the lazy dog" in
  let ctx = Sha256.init () in
  Sha256.update ctx "The quick brown fox ";
  Sha256.update ctx "jumps over ";
  Sha256.update ctx "the lazy dog";
  Alcotest.(check string) "incremental = one-shot" (hex_of whole) (hex_of (Sha256.finalize ctx))

let qcheck_sha256_incremental =
  QCheck.Test.make ~name:"sha256: arbitrary split = one-shot" ~count:100
    QCheck.(pair (string_of_size (Gen.int_range 0 300)) (int_range 0 300))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let ctx = Sha256.init () in
      Sha256.update ctx (String.sub s 0 cut);
      Sha256.update ctx (String.sub s cut (String.length s - cut));
      String.equal (Sha256.finalize ctx) (Sha256.digest s))

(* ------------------------------------------------------------------ *)
(* HMAC (RFC 4231) *)

let hmac_vectors () =
  check_hex "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.sha256 ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?")

(* ------------------------------------------------------------------ *)
(* AES (FIPS 197 appendix C) *)

(* One block through [Aes.encrypt_into], string in and out. *)
let aes_block k block =
  let b = Bytes.of_string block in
  Aes.encrypt_into k b 0 b 0;
  Bytes.to_string b

(* Encryption is checked on both ciphers; decryption exists only in the
   frozen textbook cipher, so its vectors run on [Refcrypto.Aes]. *)
let aes_vectors () =
  let run keylen key pt expected =
    let ct = aes_block (Aes.expand_key (hex key)) (hex pt) in
    check_hex (Printf.sprintf "aes-%d encrypt" keylen) expected ct;
    let k = Refcrypto.Aes.expand_key (hex key) in
    check_hex (Printf.sprintf "reference aes-%d encrypt" keylen) expected
      (Refcrypto.Aes.encrypt_block k (hex pt));
    Alcotest.(check string)
      (Printf.sprintf "aes-%d decrypt" keylen)
      pt
      (hex_of (Refcrypto.Aes.decrypt_block k ct))
  in
  run 128 "000102030405060708090a0b0c0d0e0f" "00112233445566778899aabbccddeeff"
    "69c4e0d86a7b0430d8cdb78070b4c55a";
  run 192 "000102030405060708090a0b0c0d0e0f1011121314151617"
    "00112233445566778899aabbccddeeff" "dda97ca4864cdfe06eaf70a0ec0d7191";
  run 256 "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    "00112233445566778899aabbccddeeff" "8ea2b7ca516745bfeafc49904b496089"

let aes_bad_key () =
  Alcotest.check_raises "15-byte key" (Invalid_argument "Aes.expand_key: key must be 16, 24 or 32 bytes")
    (fun () -> ignore (Aes.expand_key (String.make 15 'k')))

let qcheck_aes_roundtrip =
  QCheck.Test.make ~name:"aes: decrypt . encrypt = id, on Refcrypto.Aes" ~count:100
    QCheck.(pair (string_of_size (Gen.return 16)) (string_of_size (Gen.return 16)))
    (fun (key, block) ->
      let k = Refcrypto.Aes.expand_key key in
      String.equal block (Refcrypto.Aes.decrypt_block k (Refcrypto.Aes.encrypt_block k block)))

(* The T-table cipher against the textbook one, for every key size,
   out of place and in place at a non-zero offset. *)
let qcheck_aes_matches_ref =
  QCheck.Test.make ~name:"aes: encrypt_into = Refcrypto.Aes, all key sizes, in place" ~count:150
    QCheck.(
      triple
        (string_gen_of_size (Gen.oneofl [ 16; 24; 32 ]) Gen.char)
        (string_of_size (Gen.return 16))
        (int_range 1 40))
    (fun (key, block, off) ->
      let expected = Refcrypto.Aes.encrypt_block (Refcrypto.Aes.expand_key key) block in
      let k = Aes.expand_key key in
      let src = Bytes.of_string block and dst = Bytes.make 16 '\000' in
      Aes.encrypt_into k src 0 dst 0;
      let buf = Bytes.make (off + 20) '\xaa' in
      Bytes.blit_string block 0 buf off 16;
      Aes.encrypt_into k buf off buf off;
      String.equal (Bytes.to_string dst) expected
      && String.equal (Bytes.sub_string buf off 16) expected
      && String.equal (Bytes.sub_string buf 0 off) (String.make off '\xaa')
      && String.equal (Bytes.sub_string buf (off + 16) 4) "\xaa\xaa\xaa\xaa")

(* ------------------------------------------------------------------ *)
(* GCM (NIST test cases) *)

let gcm_vectors () =
  let key0 = String.make 16 '\000' in
  let iv0 = String.make 12 '\000' in
  let ct, tag = Gcm.encrypt ~key:key0 ~iv:iv0 "" in
  Alcotest.(check string) "case1 ct" "" ct;
  check_hex "case1 tag" "58e2fccefa7e3061367f1d57a4e7455a" tag;
  let ct, tag = Gcm.encrypt ~key:key0 ~iv:iv0 (String.make 16 '\000') in
  check_hex "case2 ct" "0388dace60b6a392f328c2b971b2fe78" ct;
  check_hex "case2 tag" "ab6e47d42cec13bdf53a67b21257bddf" tag;
  (* NIST test case 4: 60-byte plaintext and 20-byte AAD under a
     non-zero key and 96-bit IV. *)
  let key = hex "feffe9928665731c6d6a8f9467308308" in
  let iv = hex "cafebabefacedbaddecaf888" in
  let pt =
    hex
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
  in
  let aad = hex "feedfacedeadbeeffeedfacedeadbeefabaddad2" in
  let ct, tag = Gcm.encrypt ~key ~iv ~aad pt in
  check_hex "case4 ct"
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
    ct;
  check_hex "case4 tag" "5bc94fbc3221a5db94fae95ae7121a47" tag;
  (* Cases 5 and 6 take case 4's plaintext and AAD under 64- and
     480-bit IVs, so J0 is the GHASH of the IV; case 16 repeats case 4
     under the 256-bit key K || K. *)
  List.iter
    (fun (name, key, iv, ct_hex, tag_hex) ->
      let ct, tag = Gcm.encrypt ~key ~iv:(hex iv) ~aad pt in
      check_hex (name ^ " ct") ct_hex ct;
      check_hex (name ^ " tag") tag_hex tag)
    [
      ( "case5", key, "cafebabefacedbad",
        "61353b4c2806934a777ff51fa22a4755699b2a714fcdc6f83766e5f97b6c742373806900e49f24b22b097544d4896b424989b5e1ebac0f07c23f4598",
        "3612d2e79e3b0785561be14aaca2fccb" );
      ( "case6", key,
        "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b",
        "8ce24998625615b603a033aca13fb894be9112a5c3a211a8ba262a3cca7e2ca701e4a9a4fba43c90ccdcb281d48c7c6fd62875d2aca417034c34aee5",
        "619cc5aefffe0bfa462af43c1699d050" );
      ( "case16", key ^ key, "cafebabefacedbaddecaf888",
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
        "76fc6ece0f4e1768cddf8853bb2d551b" );
    ]

let gcm_roundtrip_and_tamper () =
  let key = hex "000102030405060708090a0b0c0d0e0f" in
  let iv = hex "101112131415161718191a1b" in
  let pt = "attestation secret blob" in
  let ct, tag = Gcm.encrypt ~key ~iv ~aad:"hdr" pt in
  (match Gcm.decrypt ~key ~iv ~aad:"hdr" ~tag ct with
  | Some got -> Alcotest.(check string) "roundtrip" pt got
  | None -> Alcotest.fail "authentic ciphertext rejected");
  let bad = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) ct in
  Alcotest.(check bool) "tampered ct rejected" true (Gcm.decrypt ~key ~iv ~aad:"hdr" ~tag bad = None);
  Alcotest.(check bool) "wrong aad rejected" true (Gcm.decrypt ~key ~iv ~aad:"other" ~tag ct = None)

let qcheck_gcm_roundtrip =
  QCheck.Test.make ~name:"gcm: decrypt . encrypt = id" ~count:50
    QCheck.(
      triple (string_of_size (Gen.return 16)) (string_of_size (Gen.return 12))
        (string_of_size (Gen.int_range 0 200)))
    (fun (key, iv, pt) ->
      let ct, tag = Gcm.encrypt ~key ~iv pt in
      match Gcm.decrypt ~key ~iv ~tag ct with Some got -> String.equal got pt | None -> false)

(* ------------------------------------------------------------------ *)
(* CMAC (RFC 4493) *)

let cmac_vectors () =
  let key = hex "2b7e151628aed2a6abf7158809cf4f3c" in
  check_hex "empty" "bb1d6929e95937287fa37d129b756746" (Cmac.mac ~key "");
  check_hex "16 bytes" "070a16b46b4d4144f79bdd9dd04a287c"
    (Cmac.mac ~key (hex "6bc1bee22e409f96e93d7e117393172a"));
  check_hex "40 bytes" "dfa66747de9ae63030ca32611497c827"
    (Cmac.mac ~key
       (hex
          "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411"));
  check_hex "64 bytes" "51f0bebf7e3b9d92fc49741779363cfe"
    (Cmac.mac ~key
       (hex
          "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"))

let cmac_verify () =
  let key = hex "2b7e151628aed2a6abf7158809cf4f3c" in
  let tag = Cmac.mac ~key "hello" in
  Alcotest.(check bool) "accepts" true (Cmac.verify ~key ~tag "hello");
  Alcotest.(check bool) "rejects msg" false (Cmac.verify ~key ~tag "hellO");
  Alcotest.(check bool) "rejects short tag" false
    (Cmac.verify ~key ~tag:(String.sub tag 0 8) "hello")

(* ------------------------------------------------------------------ *)
(* P-256 *)

let p256_base_on_curve () =
  match coords P256.base with
  | None -> Alcotest.fail "base is infinity"
  | Some (x, y) -> Alcotest.(check bool) "G on curve" true (Refcrypto.P256.on_curve x y)

let p256_order_annihilates () =
  Alcotest.(check bool) "n*G = O" true (P256.is_infinity (P256.base_mul (scalar n_bn)))

let p256_known_multiple () =
  (* 2G, from standard P-256 test data. *)
  match coords (P256.base_mul (scalar (Bn.of_int 2))) with
  | None -> Alcotest.fail "2G is infinity"
  | Some (x, y) ->
    Alcotest.(check string) "2G.x"
      "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978" (Bn.to_hex x);
    Alcotest.(check string) "2G.y"
      "7775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1" (Bn.to_hex y)

let p256_add_consistency () =
  let g2 = P256.double P256.base in
  let g3a = P256.add g2 P256.base in
  let g3b = P256.base_mul (scalar (Bn.of_int 3)) in
  Alcotest.(check bool) "G+2G = 3G" true (P256.equal g3a g3b);
  Alcotest.(check bool) "comm" true (P256.equal (P256.add P256.base g2) (P256.add g2 P256.base))

let p256_encode_roundtrip () =
  let pt = P256.base_mul (scalar (Bn.of_int 12345)) in
  match P256.decode (P256.encode pt) with
  | Some pt' -> Alcotest.(check bool) "decode . encode" true (P256.equal pt pt')
  | None -> Alcotest.fail "decode failed"

let p256_decode_rejects () =
  Alcotest.(check bool) "short" true (P256.decode "\x04abc" = None);
  let bogus = "\x04" ^ String.make 64 '\x01' in
  Alcotest.(check bool) "off-curve" true (P256.decode bogus = None);
  (* The curve point with the smallest x, found as y = t^((p+1)/4) for
     the first square t = x^3 - 3x + b (p = 3 mod 4). Its x is tiny, so
     x + p still fits 32 bytes: that encoding names the same point mod
     p, and only the range check rejects it. *)
  let p = p_bn in
  let x, y = Watz_fuzz.Crypto_diff.point_at Bn.zero in
  let enc x = "\x04" ^ Bn.to_bytes_be ~len:32 x ^ Bn.to_bytes_be ~len:32 y in
  Alcotest.(check bool) "canonical x decodes" true (Option.is_some (P256.decode (enc x)));
  Alcotest.(check bool) "x + p rejected" true (P256.decode (enc (Bn.add x p)) = None);
  Alcotest.(check bool) "x + p rejected by Refcrypto" true
    (Refcrypto.P256.of_bytes (enc (Bn.add x p)) = None);
  Alcotest.(check bool) "x = p rejected" true (P256.decode (enc p) = None)

(* Any 32 bytes are a scalar: k + n names the same multiple as k up to
   2^256 - 1, on the comb, the window ladder and Shamir's ladder alike.
   Any other length is refused. *)
let p256_scalars_reduce_mod_n () =
  let top = Bn.sub (Bn.shift_left Bn.one 256) Bn.one in
  let q = P256.base_mul (scalar (Bn.of_int 7)) in
  List.iter
    (fun k ->
      let what = Bn.to_hex k ^ " + n" in
      let k' = scalar (Bn.add k n_bn) and k = scalar k in
      Alcotest.(check bool) (what ^ ", base_mul") true (P256.equal (P256.base_mul k') (P256.base_mul k));
      Alcotest.(check bool) (what ^ ", mul") true (P256.equal (P256.mul k' q) (P256.mul k q));
      Alcotest.(check bool) (what ^ ", double_mul") true
        (P256.equal (P256.double_mul k' k q) (P256.double_mul k k' q)))
    [ Bn.zero; Bn.one; Bn.of_int 5; Bn.sub top n_bn ];
  List.iter
    (fun len ->
      match P256.base_mul (String.make len '\001') with
      | _ -> Alcotest.failf "a %d-byte scalar was taken" len
      | exception Invalid_argument _ -> ())
    [ 0; 31; 33 ]

let qcheck_p256_distributive =
  let small =
    QCheck.make ~print:Bn.to_hex
      (QCheck.Gen.map (fun n -> Bn.of_int (abs n + 1)) QCheck.Gen.int)
  in
  QCheck.Test.make ~name:"p256: (k1+k2)G = k1 G + k2 G" ~count:10
    (QCheck.pair small small)
    (fun (k1, k2) ->
      P256.equal
        (P256.base_mul (scalar (Bn.add k1 k2)))
        (P256.add (P256.base_mul (scalar k1)) (P256.base_mul (scalar k2))))

(* ------------------------------------------------------------------ *)
(* ECDSA (RFC 6979 A.2.5) *)

let rfc6979_private =
  hex "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721"

let ecdsa_rfc6979_vector () =
  let key = Ecdsa.private_of_bytes rfc6979_private in
  let signature = Ecdsa.sign key "sample" in
  check_hex "r||s for 'sample'"
    "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8"
    signature;
  let pub = Ecdsa.public_of_private key in
  (match coords pub with
  | Some (x, y) ->
    Alcotest.(check string) "pub.x"
      "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6" (Bn.to_hex x);
    Alcotest.(check string) "pub.y"
      "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299" (Bn.to_hex y)
  | None -> Alcotest.fail "public key at infinity");
  Alcotest.(check bool) "verifies" true (Ecdsa.verify pub ~msg:"sample" ~signature)

let ecdsa_rejects_forgery () =
  let key = Ecdsa.private_of_bytes rfc6979_private in
  let pub = Ecdsa.public_of_private key in
  let signature = Ecdsa.sign key "sample" in
  Alcotest.(check bool) "other msg" false (Ecdsa.verify pub ~msg:"tampered" ~signature);
  let flipped =
    String.mapi (fun i c -> if i = 10 then Char.chr (Char.code c lxor 0x40) else c) signature
  in
  Alcotest.(check bool) "bitflip" false (Ecdsa.verify pub ~msg:"sample" ~signature:flipped);
  Alcotest.(check bool) "short sig" false
    (Ecdsa.verify pub ~msg:"sample" ~signature:(String.sub signature 0 63));
  let other = Ecdsa.public_of_private (Ecdsa.private_of_bytes (Sha256.digest "other")) in
  Alcotest.(check bool) "wrong key" false (Ecdsa.verify other ~msg:"sample" ~signature)

let ecdsa_seeded_keypair_deterministic () =
  let d1, q1 = Ecdsa.keypair_of_seed "device-root-of-trust" in
  let d2, q2 = Ecdsa.keypair_of_seed "device-root-of-trust" in
  let d3, _ = Ecdsa.keypair_of_seed "other-device" in
  Alcotest.(check bool) "same seed, same key" true
    (String.equal (Ecdsa.private_to_bytes d1) (Ecdsa.private_to_bytes d2) && P256.equal q1 q2);
  Alcotest.(check bool) "different seed differs" false
    (String.equal (Ecdsa.private_to_bytes d1) (Ecdsa.private_to_bytes d3))

let qcheck_ecdsa_sign_verify =
  QCheck.Test.make ~name:"ecdsa: verify . sign = true" ~count:5
    QCheck.(string_of_size (Gen.int_range 0 100))
    (fun msg ->
      let key = Ecdsa.private_of_bytes (Sha256.digest msg) in
      let pub = Ecdsa.public_of_private key in
      Ecdsa.verify pub ~msg ~signature:(Ecdsa.sign key msg))

(* A key object's verifications move from the window ladder to its own
   comb once it passes [P256.comb_threshold] uses. Both sides of that
   switch must give the frozen reference's verdict, for every key. *)
let ref_key q = Option.get (Refcrypto.P256.of_bytes (P256.encode q))

let ecdsa_verify_across_comb_threshold () =
  let keys =
    Array.init 3 (fun i ->
        let d = Ecdsa.private_of_bytes (Sha256.digest (Printf.sprintf "comb-key-%d" i)) in
        let q = Ecdsa.public_of_private d in
        (d, q, ref_key q))
  in
  for i = 0 to (3 * (P256.comb_threshold + 3)) - 1 do
    let d, q, q_ref = keys.(i mod 3) in
    let msg = Printf.sprintf "comb message %d" i in
    let signature = Ecdsa.sign d msg in
    let got = Ecdsa.verify q ~msg ~signature in
    let what = Printf.sprintf "key %d, use %d" (i mod 3) ((i / 3) + 1) in
    Alcotest.(check bool)
      (what ^ " matches reference")
      (Refcrypto.Ecdsa.verify q_ref ~msg ~signature)
      got;
    Alcotest.(check bool) (what ^ " accepts") true got
  done

let ecdsa_corruptions_across_comb_threshold () =
  let d = Ecdsa.private_of_bytes rfc6979_private in
  let q = Ecdsa.public_of_private d in
  let q_ref = ref_key q in
  let other = Ecdsa.public_of_private (Ecdsa.private_of_bytes (Sha256.digest "other")) in
  let other_ref = ref_key other in
  let flip20 = String.mapi (fun i c -> if i = 20 then Char.chr (Char.code c lxor 0x08) else c) in
  (* [q] spends two uses per round and [other] one, so both keys run
     their last rounds on their combs. *)
  for i = 0 to P256.comb_threshold + 2 do
    let msg = Printf.sprintf "msg %d" i in
    let signature = Ecdsa.sign d msg in
    List.iter
      (fun (what, key, key_ref, signature, expected) ->
        let what = Printf.sprintf "round %d, %s" i what in
        let got = Ecdsa.verify key ~msg ~signature in
        Alcotest.(check bool)
          (what ^ " matches reference")
          (Refcrypto.Ecdsa.verify key_ref ~msg ~signature)
          got;
        Alcotest.(check bool) what expected got)
      [
        ("valid", q, q_ref, signature, true);
        ("byte 20 flipped", q, q_ref, flip20 signature, false);
        ("foreign key", other, other_ref, signature, false);
        ("63-byte truncation", q, q_ref, String.sub signature 0 63, false);
      ]
  done;
  (* Range and malleability edge cases, now on the comb. *)
  let digest = Sha256.digest "comb edge cases" in
  let signature = Ecdsa.sign_digest d digest in
  let r = String.sub signature 0 32 and s = String.sub signature 32 32 in
  let zero32 = String.make 32 '\000' in
  List.iter
    (fun (what, signature) ->
      Alcotest.(check bool) (what ^ " matches reference")
        (Refcrypto.Ecdsa.verify_digest q_ref ~digest ~signature)
        (Ecdsa.verify_digest q ~digest ~signature))
    [
      ("valid", signature);
      ("high-s", r ^ Bn.to_bytes_be ~len:32 (Bn.sub n_bn (Bn.of_bytes_be s)));
      ("r = 0", zero32 ^ s);
      ("s = 0", r ^ zero32);
    ]

(* ------------------------------------------------------------------ *)
(* ECDH *)

let ecdh_agreement () =
  let rng = Watz_util.Prng.create 42L in
  let random n = Watz_util.Prng.bytes rng n in
  let alice = Ecdh.generate ~random in
  let bob = Ecdh.generate ~random in
  let s1 = Ecdh.shared_secret ~priv:alice.Ecdh.priv ~peer:bob.Ecdh.pub in
  let s2 = Ecdh.shared_secret ~priv:bob.Ecdh.priv ~peer:alice.Ecdh.pub in
  match (s1, s2) with
  | Some a, Some b ->
    Alcotest.(check string) "shared secrets agree" (hex_of a) (hex_of b);
    Alcotest.(check int) "32 bytes" 32 (String.length a)
  | None, _ | _, None -> Alcotest.fail "unexpected infinity"

(* NIST CAVS P-256 ECC CDH (KAS ECC CDH primitive), COUNT = 0: the
   responder's key dIUT against the peer point QCAVS, through the same
   decode path a handshake uses. *)
let ecdh_cavs_vector () =
  let point hx hy = "\x04" ^ hex hx ^ hex hy in
  let peer =
    match
      P256.decode
        (point "700c48f77f56584c5cc632ca65640db91b6bacce3a4df6b42ce7cc838833d287"
           "db71e509e3fd9b060ddb20ba5c51dcc5948d46fbf640dfe0441782cab85fa4ac")
    with
    | Some q -> q
    | None -> Alcotest.fail "QCAVS rejected"
  in
  (* dIUT is in [1, n - 1], so [generate] takes it as its first draw *)
  let d_iut = hex "7d7dc5f71eb29ddaf80d6214632eeae03d9058af1fb6d22ed80badb62bc1a534" in
  let iut = Ecdh.generate ~random:(fun _ -> d_iut) in
  (match Ecdh.shared_secret ~priv:iut.Ecdh.priv ~peer with
  | Some z -> check_hex "ZIUT" "46fc62106420ff012e54a434fbdd2d25ccc5852060561e68040dd7778997bd7b" z
  | None -> Alcotest.fail "shared secret at infinity");
  check_hex "QIUT = dIUT G"
    ("04" ^ "ead218590119e8876b29146ff89ca61770c4edbbf97d38ce385ed281d8a6b230"
   ^ "28af61281fd35e2fa7002523acc85a429cb06ee6648325389f59edfce1405141")
    (P256.encode iut.Ecdh.pub)

let ecdh_fresh_sessions_differ () =
  let rng = Watz_util.Prng.create 7L in
  let random n = Watz_util.Prng.bytes rng n in
  let k1 = Ecdh.generate ~random in
  let k2 = Ecdh.generate ~random in
  Alcotest.(check bool) "ephemeral keys differ" false (P256.equal k1.Ecdh.pub k2.Ecdh.pub)

(* ------------------------------------------------------------------ *)
(* Fortuna *)

let fortuna_deterministic () =
  let a = Fortuna.of_seed "seed" in
  let b = Fortuna.of_seed "seed" in
  Alcotest.(check string) "same seed, same stream" (hex_of (Fortuna.generate a 48))
    (hex_of (Fortuna.generate b 48))

let fortuna_differs_by_seed () =
  let a = Fortuna.of_seed "seed-a" in
  let b = Fortuna.of_seed "seed-b" in
  Alcotest.(check bool) "streams differ" false
    (String.equal (Fortuna.generate a 32) (Fortuna.generate b 32))

let fortuna_rekeys () =
  let a = Fortuna.of_seed "seed" in
  let first = Fortuna.generate a 32 in
  let second = Fortuna.generate a 32 in
  Alcotest.(check bool) "consecutive outputs differ" false (String.equal first second)

(* The stream every fixed-seed artifact derives its keys and nonces
   from, read from the textbook-AES generator: 48 bytes (three AES-256
   blocks), then 32 more under the key the first request rekeyed to. *)
let fortuna_pinned_stream () =
  let g = Fortuna.of_seed "seed" in
  check_hex "first request"
    "32f7816358d6cfd678271acb4a45712d95026c390a53b69d211610b97169006ff12aa7d9a19e5e407e53d783f58cc219"
    (Fortuna.generate g 48);
  check_hex "after the rekey" "7520daf83dfdf0b59f6d8977b2d3a7cf382a9ceef2c55c8e55551581ccebe7eb"
    (Fortuna.generate g 32)

(* ------------------------------------------------------------------ *)
(* KDF *)

let kdf_shape () =
  let shared = Sha256.digest "gab" in
  let keys = Kdf.session_of_shared shared in
  Alcotest.(check int) "kdk 16" 16 (String.length keys.Kdf.kdk);
  Alcotest.(check bool) "k_m <> k_e" false (String.equal keys.Kdf.k_m keys.Kdf.k_e);
  let keys' = Kdf.session_of_shared shared in
  Alcotest.(check string) "deterministic" (hex_of keys.Kdf.k_e) (hex_of keys'.Kdf.k_e)

let kdf_distinct_secrets () =
  let k1 = Kdf.session_of_shared (Sha256.digest "s1") in
  let k2 = Kdf.session_of_shared (Sha256.digest "s2") in
  Alcotest.(check bool) "different shared secret, different keys" false
    (String.equal k1.Kdf.k_e k2.Kdf.k_e)

(* ------------------------------------------------------------------ *)
(* Crypto fast path: KATs at the padding boundaries, one-shot variants,
   and differentials against the frozen pre-PR implementations
   (Refcrypto). The fast-path contract is bit-identical output. *)

let pattern n = String.init n (fun i -> Char.chr (i land 0xff))

let sha256_padding_boundaries () =
  (* 55/56 straddle the one-block padding limit, 63/64/65 the block
     boundary itself; each exercises a different finalize shape. *)
  List.iter
    (fun (n, expected) ->
      check_hex (Printf.sprintf "%d bytes" n) expected (Sha256.digest (pattern n)))
    [
      (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
      (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
      (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
      (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
      (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
    ]

let sha256_oneshot_variants () =
  let s = pattern 119 in
  let expected = hex_of (Sha256.digest s) in
  Alcotest.(check string) "digest_list" expected
    (hex_of (Sha256.digest_list [ ""; String.sub s 0 10; String.sub s 10 109 ]))

let qcheck_sha256_matches_ref =
  QCheck.Test.make ~name:"sha256: fast path = pre-PR reference" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 400))
    (fun s -> String.equal (Sha256.digest s) (Refcrypto.Sha256.digest s))

let qcheck_sha256_streaming_chunks =
  (* Arbitrary chunkings through update_substring must match one-shot. *)
  QCheck.Test.make ~name:"sha256: chunked streaming = one-shot" ~count:100
    QCheck.(pair (string_of_size (Gen.int_range 0 300)) (list_of_size (Gen.int_range 1 8) (int_range 0 80)))
    (fun (s, cuts) ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      List.iter
        (fun c ->
          let len = min c (String.length s - !pos) in
          Sha256.update_substring ctx s !pos len;
          pos := !pos + len)
        cuts;
      Sha256.update_substring ctx s !pos (String.length s - !pos);
      String.equal (Sha256.finalize ctx) (Sha256.digest s))

let qcheck_fe256_matches_modring =
  (* The Montgomery rings vs the generic Barrett ring, on both P-256
     moduli: add/sub/mul/sqr/inv agree for any inputs, into a fresh
     destination, into either operand, and with both operands one
     element. The edge operands 0, 1, m - 1 and 2^255 - 1 fill the
     products' columns with the widest limbs. *)
  let rings =
    List.map
      (fun (fr, m) -> (fr, m, Modring.create m))
      [ (P256.field_ring, p_bn); (P256.scalar_ring, n_bn) ]
  in
  let operand =
    QCheck.Gen.(
      frequency
        [ (1, map (fun i -> `Edge i) (int_bound 3)); (3, map (fun b -> `Val b) (QCheck.gen arbitrary_bn)) ])
  in
  let print = function `Edge i -> Printf.sprintf "edge %d" i | `Val b -> Bn.to_hex b in
  QCheck.Test.make ~name:"fe256: montgomery = modring in both P-256 rings, with aliasing" ~count:200
    (QCheck.make ~print:QCheck.Print.(pair print print) (QCheck.Gen.pair operand operand))
    (fun (oa, ob) ->
      List.for_all
        (fun (fr, m, gr) ->
          let value = function
            | `Edge 0 -> Bn.zero
            | `Edge 1 -> Bn.one
            | `Edge 2 -> Bn.sub m Bn.one
            | `Edge _ -> Bn.sub (Bn.shift_left Bn.one 255) Bn.one
            | `Val b -> b
          in
          let a = value oa and b = value ob in
          let ga = Modring.reduce gr a and gb = Modring.reduce gr b in
          let elt v = Fe256.of_bytes_mod fr (scalar v) 0 in
          let agrees expected f =
            (* f gets fresh copies of a and b and returns the element it wrote *)
            Bn.equal (Bn.of_bytes_be (Fe256.to_string fr (f (elt ga) (elt gb)))) expected
          in
          let binop op expected expected_aa =
            agrees expected (fun fa fb -> let d = Fe256.zero fr in op fr d fa fb; d)
            && agrees expected (fun fa fb -> op fr fa fa fb; fa)
            && agrees expected (fun fa fb -> op fr fb fa fb; fb)
            && agrees expected_aa (fun fa _ -> let d = Fe256.zero fr in op fr d fa fa; d)
          in
          let unop op expected =
            agrees expected (fun fa _ -> let d = Fe256.zero fr in op fr d fa; d)
            && agrees expected (fun fa _ -> op fr fa fa; fa)
          in
          binop Fe256.add_into (Modring.add gr ga gb) (Modring.add gr ga ga)
          && binop Fe256.sub_into (Modring.sub gr ga gb) Bn.zero
          && binop Fe256.mul_into (Modring.mul gr ga gb) (Modring.sqr gr ga)
          && unop Fe256.sqr_into (Modring.sqr gr ga)
          && unop Fe256.inv_into (if Bn.is_zero ga then Bn.zero else Modring.inv_prime gr ga))
        rings)

(* The reducing reader subtracts m at most once from any 32 bytes, and
   the checked reader refuses what is not below m. [create] takes only
   an odd modulus above 2^255 as 32 bytes, since only there is one
   subtraction enough; the constants it derives serve any such prime,
   here 2^256 - 189 as well as p and n. *)
let fe256_reducing_reader_and_create () =
  let two256 = Bn.shift_left Bn.one 256 in
  let prime = Bn.sub two256 (Bn.of_int 189) in
  List.iter
    (fun (fr, m) ->
      List.iter
        (fun v ->
          let what = Printf.sprintf "%s mod %s" (Bn.to_hex v) (Bn.to_hex m) in
          Alcotest.(check string) ("of_bytes_mod " ^ what)
            (Bn.to_hex (Bn.mod_ v m))
            (Bn.to_hex (Bn.of_bytes_be (Fe256.to_string fr (Fe256.of_bytes_mod fr (scalar v) 0))));
          Alcotest.(check bool) ("of_bytes " ^ what) (Bn.compare v m < 0)
            (Option.is_some (Fe256.of_bytes fr (scalar v) 0)))
        [ Bn.zero; Bn.one; Bn.sub m Bn.one; m; Bn.add m Bn.one; Bn.sub two256 Bn.one ])
    [ (P256.field_ring, p_bn); (P256.scalar_ring, n_bn); (Fe256.create (scalar prime), prime) ];
  let fr = Fe256.create (scalar prime) and gr = Modring.create prime in
  let a = Bn.of_hex "123456789abcdef0fedcba9876543210" and b = Bn.sub prime (Bn.of_int 2) in
  let fa = Fe256.of_bytes_mod fr (scalar a) 0 and fb = Fe256.of_bytes_mod fr (scalar b) 0 in
  let d = Fe256.zero fr in
  Fe256.mul_into fr d fa fb;
  Alcotest.(check string) "a * b mod 2^256 - 189" (Bn.to_hex (Modring.mul gr a b))
    (Bn.to_hex (Bn.of_bytes_be (Fe256.to_string fr d)));
  Fe256.inv_into fr d fa;
  Alcotest.(check string) "a^-1 mod 2^256 - 189" (Bn.to_hex (Modring.inv_prime gr a))
    (Bn.to_hex (Bn.of_bytes_be (Fe256.to_string fr d)));
  List.iter
    (fun (what, m) ->
      match Fe256.create m with
      | _ -> Alcotest.failf "create took %s" what
      | exception Invalid_argument _ -> ())
    [
      ("an even modulus", scalar (Bn.sub prime Bn.one));
      ("2^255 - 19", scalar (Bn.sub (Bn.shift_left Bn.one 255) (Bn.of_int 19)));
      ("31 bytes", String.sub (scalar prime) 1 31);
    ]

(* The inversion's law, at a fixed seed: a * a^-1 = 1 in both P-256
   rings and mod 2^256 - 189, for full-width random elements, every
   power of two below 2^256, (m + 1) / 2, m - 2 and 2^256 - 1 mod m;
   and 0^-1 = 0. Too few divsteps leave some inputs unconverged: 18
   batches of 29 got ~1.5 % of random inputs wrong. *)
let fe256_inversion_law () =
  let prng = Watz_util.Prng.create 0x1eL in
  let two256 = Bn.shift_left Bn.one 256 in
  let prime = Bn.sub two256 (Bn.of_int 189) in
  List.iter
    (fun (fr, m) ->
      let d = Fe256.zero fr in
      let check what bytes =
        let a = Fe256.of_bytes_mod fr bytes 0 in
        Fe256.inv_into fr d a;
        Fe256.mul_into fr d d a;
        if not (Fe256.is_one fr d) then
          Alcotest.failf "mod %s: %s * %s^-1 <> 1" (Bn.to_hex m) what
            (Bn.to_hex (Bn.of_bytes_be bytes))
      in
      for _ = 1 to 2000 do
        check "random" (Watz_util.Prng.bytes prng 32)
      done;
      for k = 0 to 255 do
        check (Printf.sprintf "2^%d" k) (scalar (Bn.shift_left Bn.one k))
      done;
      List.iter
        (fun (what, v) -> check what (scalar v))
        [
          ("(m + 1) / 2", Bn.shift_right (Bn.add m Bn.one) 1);
          ("m - 2", Bn.sub m (Bn.of_int 2));
          ("2^256 - 1", Bn.sub two256 Bn.one);
        ];
      Fe256.inv_into fr d (Fe256.zero fr);
      Alcotest.(check bool) ("0^-1 = 0 mod " ^ Bn.to_hex m) true (Fe256.is_zero d))
    [ (P256.field_ring, p_bn); (P256.scalar_ring, n_bn); (Fe256.create (scalar prime), prime) ]

(* The field product's law on raw limbs, at a fixed seed: operands are
   written with [Fe256.load], results read with [Fe256.store], and the
   oracle is a * b * 2^-261 mod m from [Bn] and [Modring] alone, so no
   side goes through [of_bytes] or [to_bytes], which run the product
   themselves. Limbs are 0, 1, 2^28, 2^29 - 1 or random (the top limb
   cut to 24 bits), redrawn until the value is below m; m - 1, m - 2
   and every limb at its largest below m come first. Mod p this is the
   shift-reducing product and squaring; mod n and mod 2^256 - 189 it is
   the generic product, the second with another n0 and a top limb of
   2^24 - 1. *)
let fe256_raw_limb_law () =
  let prng = Watz_util.Prng.create 0x29L in
  let prime = Bn.sub (Bn.shift_left Bn.one 256) (Bn.of_int 189) in
  let beta = Bn.shift_left Bn.one 29 in
  let value l = Array.fold_right (fun x acc -> Bn.add (Bn.shift_left acc 29) (Bn.of_int x)) l Bn.zero in
  let limbs v = Array.init 9 (fun i -> Bn.to_int (Bn.mod_ (Bn.shift_right v (29 * i)) beta)) in
  let pick () =
    match Watz_util.Prng.int prng 5 with
    | 0 -> 0
    | 1 -> 1
    | 2 -> 1 lsl 28
    | 3 -> (1 lsl 29) - 1
    | _ -> Watz_util.Prng.int prng (1 lsl 29)
  in
  let rec draw m =
    let l = Array.init 9 (fun i -> if i = 8 then pick () land ((1 lsl 24) - 1) else pick ()) in
    if Bn.compare (value l) m < 0 then l else draw m
  in
  let show l = String.concat "; " (Array.to_list (Array.map string_of_int l)) in
  List.iter
    (fun (fr, m) ->
      let gr = Modring.create m in
      let r_inv = Modring.inv_prime gr (Modring.reduce gr (Bn.shift_left Bn.one 261)) in
      let oracle la lb = limbs (Modring.mul gr (Modring.mul gr (value la) (value lb)) r_inv) in
      let all_max = Array.init 9 (fun i -> if i = 8 then (1 lsl 24) - 2 else (1 lsl 29) - 1) in
      let operands =
        [ limbs (Bn.sub m Bn.one); limbs (Bn.sub m (Bn.of_int 2)); all_max ]
        @ List.init 37 (fun _ -> draw m)
      in
      let elt l =
        let e = Fe256.zero fr in
        Fe256.load e l 0;
        e
      in
      let check what la lb expected e =
        let got = Array.make 9 0 in
        Fe256.store got 0 e;
        if got <> expected then
          Alcotest.failf "mod %s, %s of [%s] and [%s]: [%s], expected [%s]" (Bn.to_hex m) what
            (show la) (show lb) (show got) (show expected)
      in
      List.iter
        (fun la ->
          let aa = oracle la la in
          let d = Fe256.zero fr and a = elt la in
          Fe256.sqr_into fr d a;
          check "sqr_into" la la aa d;
          Fe256.sqr_into fr a a;
          check "sqr_into aliased" la la aa a;
          let a = elt la in
          Fe256.mul_into fr a a a;
          check "mul_into a a, aliased" la la aa a;
          List.iter
            (fun lb ->
              let ab = oracle la lb in
              let d = Fe256.zero fr and a = elt la and b = elt lb in
              Fe256.mul_into fr d a b;
              check "mul_into" la lb ab d;
              Fe256.mul_into fr a a b;
              check "mul_into into a" la lb ab a;
              let a = elt la in
              Fe256.mul_into fr b a b;
              check "mul_into into b" la lb ab b)
            operands)
        operands)
    [ (P256.field_ring, p_bn); (P256.scalar_ring, n_bn); (Fe256.create (scalar prime), prime) ]

let affine_eq_ref p_new p_old =
  match (coords p_new, Refcrypto.P256.to_affine p_old) with
  | None, None -> true
  | Some (x, y), Some (x', y') -> Bn.equal x x' && Bn.equal y y'
  | _ -> false

let arbitrary_scalar = QCheck.make ~print:hex_of QCheck.Gen.(string_size (return 32))

let qcheck_p256_mul_matches_ref =
  QCheck.Test.make ~name:"p256: windowed mul = pre-PR double-and-add" ~count:20
    arbitrary_scalar
    (fun k ->
      let q_new = P256.base_mul (scalar (Bn.of_int 7)) and q_old = Refcrypto.P256.mul (Bn.of_int 7) Refcrypto.P256.base in
      let k_bn = Bn.of_bytes_be k in
      affine_eq_ref (P256.base_mul k) (Refcrypto.P256.base_mul k_bn)
      && affine_eq_ref (P256.mul k q_new) (Refcrypto.P256.mul k_bn q_old))

let qcheck_ecdsa_sign_matches_ref =
  (* Same key, same digest, same RFC 6979 nonce: the signatures must be
     bit-identical, not merely cross-verifiable. *)
  QCheck.Test.make ~name:"ecdsa: fast sign = pre-PR sign, bit-identical" ~count:10
    QCheck.(string_of_size (Gen.int_range 0 60))
    (fun msg ->
      let priv, pub = Ecdsa.keypair_of_seed msg in
      let priv_bn = Bn.of_bytes_be (Ecdsa.private_to_bytes priv) in
      let digest = Sha256.digest msg in
      let s_new = Ecdsa.sign_digest priv digest in
      let s_old = Refcrypto.Ecdsa.sign_digest priv_bn digest in
      let pub_old = Option.get (Refcrypto.P256.of_bytes (P256.encode pub)) in
      String.equal s_new s_old
      && Ecdsa.verify_digest pub ~digest ~signature:s_new
      && Refcrypto.Ecdsa.verify_digest pub_old ~digest ~signature:s_new)

let ecdsa_edge_cases () =
  let priv, pub = Ecdsa.keypair_of_seed "edge-case-device" in
  let pub_old = Option.get (Refcrypto.P256.of_bytes (P256.encode pub)) in
  (* All-zero digest: z = 0 is a legal (if degenerate) hash value. *)
  let zero = String.make 32 '\000' in
  let sig_zero = Ecdsa.sign_digest priv zero in
  Alcotest.(check string) "all-zero digest sign matches reference"
    (hex_of (Refcrypto.Ecdsa.sign_digest (Bn.of_bytes_be (Ecdsa.private_to_bytes priv)) zero))
    (hex_of sig_zero);
  Alcotest.(check bool) "all-zero digest verifies" true
    (Ecdsa.verify_digest pub ~digest:zero ~signature:sig_zero);
  (* High-s: (r, n - s) passes the same x-coordinate check; this scheme
     (like the pre-PR one) does not enforce low-s, and the fast path
     must not silently start to. *)
  let digest = Sha256.digest "high-s probe" in
  let signature = Ecdsa.sign_digest priv digest in
  let r = String.sub signature 0 32 in
  let s = Bn.of_bytes_be (String.sub signature 32 32) in
  let high = r ^ Bn.to_bytes_be ~len:32 (Bn.sub n_bn s) in
  Alcotest.(check bool) "high-s verdict matches reference"
    (Refcrypto.Ecdsa.verify_digest pub_old ~digest ~signature:high)
    (Ecdsa.verify_digest pub ~digest ~signature:high);
  (* r = 0 and s = 0 are outside [1, n-1] and must be rejected. *)
  let zero32 = String.make 32 '\000' in
  Alcotest.(check bool) "r = 0 rejected" false
    (Ecdsa.verify_digest pub ~digest ~signature:(zero32 ^ String.sub signature 32 32));
  Alcotest.(check bool) "s = 0 rejected" false
    (Ecdsa.verify_digest pub ~digest ~signature:(r ^ zero32));
  (* The point at infinity is not a public key. *)
  Alcotest.(check bool) "infinity pubkey rejected" false
    (Ecdsa.verify_digest P256.infinity ~digest ~signature)

(* Half the subkeys come from the corners of the byte table, and half
   the part lengths sit at a block or table-row boundary. *)
let qcheck_ghash_matches_ref =
  let subkey =
    QCheck.Gen.(
      oneof [ oneofa Watz_fuzz.Crypto_diff.ghash_edge_subkeys; string_size (return 16) ])
  in
  let part_len = QCheck.Gen.(oneof [ int_range 0 60; oneofl [ 0; 1; 15; 16; 17; 255; 256; 257 ] ]) in
  QCheck.Test.make ~name:"gcm: table-driven ghash = pre-PR bitwise ghash" ~count:100
    (QCheck.make
       ~print:QCheck.Print.(pair hex_of (list hex_of))
       QCheck.Gen.(pair subkey (list_size (int_range 0 4) (string_size part_len))))
    (fun (h, parts) ->
      String.equal (Gcm.ghash_bytes ~h parts) (Refcrypto.Gcm.ghash_bytes ~h parts))

let ghash_128k () =
  let h = hex "66e94bd4ef8a2c3b884cfa59ca342b2e" in
  let parts = [ "hdr"; pattern 131072 ] in
  check_hex "128 KiB after a 3-byte part"
    (hex_of (Refcrypto.Gcm.ghash_bytes ~h parts))
    (Gcm.ghash_bytes ~h parts)

(* Every domain fills its own GHASH table for each key. Two domains
   encrypting under different keys at the same time must each get the
   reference result: with one table between them, a table rebuilt for
   one key would be read by the other domain's hashing. *)
let gcm_two_domains () =
  let iv = pattern 12 and ready = Atomic.make 0 in
  let spawn key lengths rounds =
    let cases =
      List.map (fun n -> (pattern n, Refcrypto.Gcm.encrypt ~key ~iv (pattern n))) lengths
    in
    Domain.spawn (fun () ->
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        let wrong = ref 0 in
        for _ = 1 to rounds do
          List.iter (fun (pt, expected) -> if Gcm.encrypt ~key ~iv pt <> expected then incr wrong) cases
        done;
        !wrong)
  in
  let large = spawn (pattern 16) [ 131072; 31; 1000 ] 4 in
  let small = spawn (String.make 32 'k') [ 64; 0; 17; 4096; 255 ] 200 in
  Alcotest.(check int) "AES-128, 128 KiB: results unlike Refcrypto" 0 (Domain.join large);
  Alcotest.(check int) "AES-256, frames: results unlike Refcrypto" 0 (Domain.join small)

let qcheck_gcm_matches_ref =
  QCheck.Test.make ~name:"gcm: encrypt = pre-PR encrypt" ~count:50
    QCheck.(
      triple (string_of_size (Gen.return 16)) (string_of_size (Gen.return 12))
        (string_of_size (Gen.int_range 0 200)))
    (fun (key, iv, pt) ->
      let ct, tag = Gcm.encrypt ~key ~iv ~aad:"hdr" pt in
      let ct', tag' = Refcrypto.Gcm.encrypt ~key ~iv ~aad:"hdr" pt in
      String.equal ct ct' && String.equal tag tag')

(* A block costs no allocation, so a GCM call allocates the same words
   whatever its length: the output buffers of both sizes go straight to
   the major heap, and what is left is the per-call key schedule,
   blocks and results. A 64-byte call allocates exactly 83 words: the
   key schedule 48 (its record 3, its 44 words 45), H 4, J0 5, the
   (key, table, J0) triple 4, the ciphertext 10, the GHASH accumulator
   5, the tag 4 and the (ciphertext, tag) pair 3. The 8 KiB hash table
   is per-domain scratch, refilled in place, and not among them. *)
let aes_gcm_allocation_law () =
  let minor_words f =
    let w0 = Gc.minor_words () in
    f ();
    int_of_float (Gc.minor_words () -. w0)
  in
  let k = Aes.expand_key (pattern 16) in
  let b = Bytes.make 16 'b' in
  Alcotest.(check int) "10,000 encrypt_into calls" 0
    (minor_words (fun () ->
         for _ = 1 to 10_000 do
           Aes.encrypt_into k b 0 b 0
         done));
  let out = Bytes.create 128 in
  Alcotest.(check int) "10,000 CTR blocks" 0
    (minor_words (fun () ->
         for i = 0 to 9_999 do
           Aes.encrypt_words k 0x01020304 0x05060708 0x090a0b0c i out (16 * (i land 7))
         done));
  let key = pattern 16 and iv = pattern 12 in
  let gcm pt = minor_words (fun () -> ignore (Gcm.encrypt ~key ~iv pt)) in
  let frame = pattern 64 and medium = pattern 16384 and large = pattern 131072 in
  ignore (gcm frame);
  Alcotest.(check int) "gcm encrypt: 64 bytes" 83 (gcm frame);
  Alcotest.(check int) "gcm encrypt: 16 KiB and 128 KiB" (gcm medium) (gcm large)

let sha256_allocation_law () =
  (* A digest allocates its result, never anything per block: the round
     function is closed, its schedule is per-domain scratch, and the
     message length is a native int, so an update allocates nothing. *)
  let minor_words f =
    let w0 = Gc.minor_words () in
    f ();
    int_of_float (Gc.minor_words () -. w0)
  in
  let small = pattern 16384 and large = String.make (1 lsl 20) 'm' in
  let digest s = minor_words (fun () -> ignore (Sha256.digest s)) in
  (* the first digest on a domain allocates its scratch *)
  ignore (Sha256.digest "");
  Alcotest.(check int) "digest: 16 KiB and 1 MiB" (digest small) (digest large);
  let ctx = Sha256.init () and b = Bytes.of_string (pattern 64) in
  List.iter
    (fun len ->
      Alcotest.(check int)
        (Printf.sprintf "update_bytes of %d bytes" len)
        0
        (minor_words (fun () -> Sha256.update_bytes ctx b 0 len)))
    [ 0; 1; 64 ]

(* A point crosses the byte boundary as limbs. A decode allocates 46
   words: per coordinate its 10-word limbs and their [Some] (2), then
   Z = 1 (10), the point (8), the [Some] of its cached encoding (2) and
   the result's [Some] (2). A fresh encode allocates 12: its 65 bytes
   (10) and the [Some] of the cache (2); each coordinate leaves
   Montgomery form in a per-domain scratch element. The field products
   and inversions allocate nothing.

   The P-256 calls of a handshake, one warm call each, pass only limbs
   and 32-byte strings. A scalar read by a ladder costs 16 words (its
   reduced limbs 10, then its bytes 6), and a new point 38 (three
   10-word coordinates and the record).
   - An ECDH keygen on a constant byte source: 73 = the candidate's
     check against n (12), [base_mul] (16 + 38), the key pair (3) and
     the draw loop's closure (4).
   - A shared secret on a freshly decoded peer: 110 = the decode (46),
     [mul] (16 + 38, and 2 for the [Some] of the window table, whose
     270 words go straight to the major heap) and x as 32 bytes (8).
   - An ECDSA sign: 434, most of them RFC 6979's HMAC strings.
   - An ECDSA verify: 138 on the window ladder and on the comb alike:
     r and s checked (24), u1 (10) and both scalars written (12),
     [double_mul] (2 * 16 + 38), x1 (8) and x1 mod n (10), and its
     closure (4). *)
let p256_allocation_law () =
  let minor_words f =
    let w0 = Gc.minor_words () in
    f ();
    int_of_float (Gc.minor_words () -. w0)
  in
  let enc = P256.encode (P256.base_mul (scalar (Bn.of_int 0x5eed))) in
  ignore (P256.decode enc);
  Alcotest.(check int) "decode" 46 (minor_words (fun () -> ignore (P256.decode enc)));
  let fresh = P256.base_mul (scalar (Bn.of_int 0x5eee)) in
  Alcotest.(check int) "fresh encode" 12 (minor_words (fun () -> ignore (P256.encode fresh)));
  Alcotest.(check int) "cached encode" 0 (minor_words (fun () -> ignore (P256.encode fresh)));
  let fp = P256.field_ring in
  let a = Fe256.one fp and b = Fe256.of_bytes_mod fp (scalar (Bn.of_int 7)) 0 in
  Alcotest.(check int) "10,000 field products and squarings" 0
    (minor_words (fun () ->
         for _ = 1 to 10_000 do
           Fe256.mul_into fp a a b;
           Fe256.sqr_into fp b b
         done));
  List.iter
    (fun (what, r) ->
      let a = Fe256.of_bytes_mod r (Sha256.digest what) 0 in
      Fe256.inv_into r a a;
      Alcotest.(check int) ("10,000 inversions " ^ what) 0
        (minor_words (fun () ->
             for _ = 1 to 10_000 do
               Fe256.inv_into r a a
             done)))
    [ ("mod p", fp); ("mod n", P256.scalar_ring) ];
  let d = Sha256.digest "ecdh scalar" in
  let random _ = d in
  let generate () = Ecdh.generate ~random in
  ignore (generate ());
  Alcotest.(check int) "ecdh generate" 73 (minor_words (fun () -> ignore (generate ())));
  let priv = (generate ()).Ecdh.priv in
  let shared () = ignore (Ecdh.shared_secret ~priv ~peer:(Option.get (P256.decode enc))) in
  shared ();
  Alcotest.(check int) "decode and shared secret" 110 (minor_words shared);
  let key, pub = Ecdsa.keypair_of_seed "allocation law" in
  let digest = Sha256.digest "allocation law" in
  let sign () = ignore (Ecdsa.sign_digest key digest) in
  sign ();
  Alcotest.(check int) "ecdsa sign" 434 (minor_words sign);
  let signature = Ecdsa.sign_digest key digest in
  let verify () = assert (Ecdsa.verify_digest pub ~digest ~signature) in
  verify ();
  Alcotest.(check int) "ecdsa verify, window ladder" 138 (minor_words verify);
  for _ = 1 to P256.comb_threshold do
    verify ()
  done;
  Alcotest.(check int) "ecdsa verify, comb" 138 (minor_words verify)

let mac_prepared_equivalence () =
  (* Prepared-key paths (reused SHA contexts / expanded AES subkeys)
     must match the one-shot derivations for every key-length shape. *)
  let msg = pattern 133 in
  List.iter
    (fun klen ->
      let key = pattern klen in
      Alcotest.(check string)
        (Printf.sprintf "hmac key %d" klen)
        (hex_of (Hmac.sha256 ~key msg))
        (hex_of (Hmac.mac (Hmac.prepare key) msg)))
    [ 0; 20; 64; 65; 131 ];
  let key16 = pattern 16 in
  Alcotest.(check string) "cmac prepared = one-shot" (hex_of (Cmac.mac ~key:key16 msg))
    (hex_of (Cmac.mac_with (Cmac.prepare key16) msg))

let p256_encode_cached_stable () =
  (* encode memoizes; the cached string must survive point reuse in
     mul/prepare and still round-trip. *)
  let pt = P256.base_mul (scalar (Bn.of_int 99887766)) in
  let first = P256.encode pt in
  P256.prepare pt;
  ignore (P256.mul (scalar (Bn.of_int 3)) pt);
  Alcotest.(check string) "second encode identical" (hex_of first) (hex_of (P256.encode pt));
  match P256.decode first with
  | None -> Alcotest.fail "cached encoding does not decode"
  | Some pt' ->
    Alcotest.(check bool) "decodes to same point" true (P256.equal pt pt');
    Alcotest.(check string) "decoded point re-encodes for free" (hex_of first)
      (hex_of (P256.encode pt'))

let case name f = Alcotest.test_case name `Quick f
let q = Seed_util.qcheck

let suite =
  [
    ( "crypto.bn",
      [
        case "of_int/to_int roundtrip" bn_of_int_roundtrip;
        case "add/sub with carries" bn_add_sub;
        case "mul/div consistency" bn_mul_known;
        case "div_mod basics" bn_div_mod_basics;
        case "bytes roundtrip" bn_bytes_roundtrip;
        case "shifts" bn_shifts;
        case "bit_length" bn_bit_length;
        q qcheck_bn_ring;
        q qcheck_bn_divmod;
        q qcheck_bn_bytes;
      ] );
    ( "crypto.modring",
      [
        case "barrett matches division" modring_matches_divmod;
        case "prime inverse" modring_inverse;
        q qcheck_modring_reduce;
      ] );
    ( "crypto.sha256",
      [
        case "NIST vectors" sha256_vectors;
        case "incremental" sha256_incremental;
        q qcheck_sha256_incremental;
      ] );
    ("crypto.hmac", [ case "RFC 4231 vectors" hmac_vectors ]);
    ( "crypto.aes",
      [
        case "FIPS 197 vectors" aes_vectors;
        case "bad key size" aes_bad_key;
        q qcheck_aes_roundtrip;
        q qcheck_aes_matches_ref;
      ] );
    ( "crypto.gcm",
      [
        case "NIST vectors" gcm_vectors;
        case "roundtrip + tamper" gcm_roundtrip_and_tamper;
        q qcheck_gcm_roundtrip;
      ] );
    ("crypto.cmac", [ case "RFC 4493 vectors" cmac_vectors; case "verify" cmac_verify ]);
    ( "crypto.p256",
      [
        case "base point on curve" p256_base_on_curve;
        case "n G = infinity" p256_order_annihilates;
        case "known 2G" p256_known_multiple;
        case "add consistency" p256_add_consistency;
        case "encode roundtrip" p256_encode_roundtrip;
        case "decode rejects invalid" p256_decode_rejects;
        case "scalars reduce mod n" p256_scalars_reduce_mod_n;
        q qcheck_p256_distributive;
      ] );
    ( "crypto.ecdsa",
      [
        case "RFC 6979 P-256/SHA-256 vector" ecdsa_rfc6979_vector;
        case "rejects forgeries" ecdsa_rejects_forgery;
        case "seeded keypair deterministic" ecdsa_seeded_keypair_deterministic;
        case "verify = reference across the comb threshold" ecdsa_verify_across_comb_threshold;
        case "corrupted signatures across the comb threshold" ecdsa_corruptions_across_comb_threshold;
        q qcheck_ecdsa_sign_verify;
      ] );
    ( "crypto.ecdh",
      [
        case "agreement" ecdh_agreement;
        case "fresh sessions differ" ecdh_fresh_sessions_differ;
        case "NIST CAVS CDH vector" ecdh_cavs_vector;
      ]
    );
    ( "crypto.fortuna",
      [
        case "deterministic from seed" fortuna_deterministic;
        case "seed separation" fortuna_differs_by_seed;
        case "rekeys between requests" fortuna_rekeys;
        case "stream pinned across the AES rewrite" fortuna_pinned_stream;
      ] );
    ("crypto.kdf", [ case "session key shape" kdf_shape; case "secret separation" kdf_distinct_secrets ]);
    ( "crypto.fastpath",
      [
        case "sha256 padding-boundary KATs" sha256_padding_boundaries;
        case "sha256 one-shot variants" sha256_oneshot_variants;
        q qcheck_sha256_matches_ref;
        q qcheck_sha256_streaming_chunks;
        q qcheck_fe256_matches_modring;
        q qcheck_p256_mul_matches_ref;
        q qcheck_ecdsa_sign_matches_ref;
        case "ecdsa edge cases" ecdsa_edge_cases;
        q qcheck_ghash_matches_ref;
        case "ghash 128 KiB" ghash_128k;
        q qcheck_gcm_matches_ref;
        case "gcm in two domains at once" gcm_two_domains;
        case "mac prepared = one-shot" mac_prepared_equivalence;
        case "p256 cached encoding stable" p256_encode_cached_stable;
        case "aes/gcm allocation law" aes_gcm_allocation_law;
        case "sha256 allocation law" sha256_allocation_law;
        case "p256 allocation law" p256_allocation_law;
        case "fe256 raw-limb law" fe256_raw_limb_law;
        case "fe256 reducing reader and create" fe256_reducing_reader_and_create;
        case "fe256 inversion law" fe256_inversion_law;
      ] );
  ]
