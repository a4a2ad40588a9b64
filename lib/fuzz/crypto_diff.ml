(** Differential crypto fuzzing: optimized {!Watz_crypto} vs the
    frozen pre-optimization {!Refcrypto} oracle.

    One round = one seeded draw of inputs pushed through both stacks:

    - SHA-256 on lengths straddling the padding boundary (55/56/57,
      63/64/65, ...) and with the streaming API split at random points
      — one-shot, streamed and reference digests must all agree;
    - ECDSA sign (RFC 6979, so bit-identical signatures, not merely
      cross-verifiable), verify of both the good signature and a
      corrupted one (same verdict from both stacks) — first on the
      fresh key's window ladder, then again on its comb once the round
      has used the key past {!Watz_crypto.P256.comb_threshold};
    - ECDH with a peer point freshly decoded from a seeded encoding,
      against the x-coordinate of the reference [P256.mul], and the
      decode verdict of both stacks on a one-byte-corrupted encoding
      and on a small-x point written with x + p, which both must
      reject (see {!point_at});
    - GHASH on part lists under random subkeys and, half the time, a
      subkey from {!ghash_edge_subkeys} (the table-driven path vs the
      shift-and-add reference);
    - AES-GCM encrypt bit-identity, decrypt roundtrip, and
      tag-corruption rejection;
    - the T-table AES against the frozen textbook cipher: one block
      under each key size, then GCM encrypt and decrypt against the
      reference GCM at plaintext and AAD lengths straddling the block
      boundaries (0, 1, 15/16/17, 31/32/33, 255/256/257).

    [round rng] is [Ok ()] or [Error description]; the description is a
    finding. *)

module Prng = Watz_util.Prng
module C = Watz_crypto
module R = Refcrypto

let hex s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

(* Lengths that exercise the SHA-256 padding state machine. *)
let boundary_lengths = [| 0; 1; 3; 31; 32; 33; 54; 55; 56; 57; 63; 64; 65; 119; 120; 121; 127; 128; 129; 200; 1000 |]

let gen_msg rng =
  let n =
    if Prng.bool rng then boundary_lengths.(Prng.int rng (Array.length boundary_lengths))
    else Prng.int rng 300
  in
  Prng.bytes rng n

let check_sha256 rng =
  let msg = gen_msg rng in
  let fast = C.Sha256.digest msg in
  let ref_ = R.Sha256.digest msg in
  if not (String.equal fast ref_) then
    Error
      (Printf.sprintf "sha256 mismatch on %d bytes: fast=%s ref=%s" (String.length msg)
         (hex fast) (hex ref_))
  else begin
    (* streamed at 1–4 random split points must equal one-shot *)
    let ctx = C.Sha256.init () in
    let n = String.length msg in
    let cuts =
      List.sort_uniq compare (List.init (1 + Prng.int rng 4) (fun _ -> if n = 0 then 0 else Prng.int rng (n + 1)))
    in
    let pos = ref 0 in
    List.iter
      (fun cut ->
        if cut > !pos then C.Sha256.update_substring ctx msg !pos (cut - !pos);
        pos := max !pos cut)
      cuts;
    if n > !pos then C.Sha256.update_substring ctx msg !pos (n - !pos);
    let streamed = C.Sha256.finalize ctx in
    if String.equal streamed fast then Ok ()
    else
      Error
        (Printf.sprintf "sha256 streaming mismatch on %d bytes (cuts %s): %s vs %s" n
           (String.concat "," (List.map string_of_int cuts))
           (hex streamed) (hex fast))
  end

let check_ecdsa rng =
  let seed = Prng.bytes rng (1 + Prng.int rng 40) in
  let priv, pub = C.Ecdsa.keypair_of_seed seed in
  let priv_bn = Bn.of_bytes_be (C.Ecdsa.private_to_bytes priv) in
  let pub_ref =
    match R.P256.of_bytes (C.P256.encode pub) with
    | Some p -> p
    | None -> failwith "refcrypto rejected our own public key encoding"
  in
  let digest = C.Sha256.digest (Prng.bytes rng (Prng.int rng 100)) in
  let s_fast = C.Ecdsa.sign_digest priv digest in
  let s_ref = R.Ecdsa.sign_digest priv_bn digest in
  if not (String.equal s_fast s_ref) then
    Error (Printf.sprintf "ecdsa signature not bit-identical: fast=%s ref=%s" (hex s_fast) (hex s_ref))
  else if not (C.Ecdsa.verify_digest pub ~digest ~signature:s_fast) then
    Error "ecdsa fast stack rejected its own signature"
  else if not (R.Ecdsa.verify_digest pub_ref ~digest ~signature:s_fast) then
    Error "ecdsa reference stack rejected fast signature"
  else begin
    (* corrupt one byte: both stacks must agree on the verdict (almost
       always false, but agreement — not falsity — is the oracle) *)
    let b = Bytes.of_string s_fast in
    let i = Prng.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int rng 255)));
    let bad = Bytes.to_string b in
    let v_fast = C.Ecdsa.verify_digest pub ~digest ~signature:bad in
    let v_ref = R.Ecdsa.verify_digest pub_ref ~digest ~signature:bad in
    if v_fast <> v_ref then
      Error
        (Printf.sprintf "ecdsa corrupted-signature verdict diverges (fast=%b ref=%b) on %s"
           v_fast v_ref (hex bad))
    else begin
      (* Reuse the round's key past the comb threshold, so the last
         verdicts come from its comb rather than the window ladder. *)
      let rec reuse k =
        k = 0 || (C.Ecdsa.verify_digest pub ~digest ~signature:s_fast && reuse (k - 1))
      in
      if not (reuse (C.P256.comb_threshold + 1)) then
        Error "ecdsa rejected a valid signature on a reused key"
      else
        let v_comb = C.Ecdsa.verify_digest pub ~digest ~signature:bad in
        if v_comb = v_ref then Ok ()
        else
          Error
            (Printf.sprintf
               "ecdsa corrupted-signature verdict diverges on the comb (fast=%b ref=%b) on %s"
               v_comb v_ref (hex bad))
    end
  end

(* P-256's p and b, for building curve points by x on the reference's
   Barrett ring. *)
let p = Bn.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"
let b_coeff = Bn.of_hex "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"
let fp = Modring.create p

(** [point_at x] is the curve point with the smallest x-coordinate at or
    above [x] whose x{^3} - 3x + b is a square, as [(x, y)] with
    y = t{^(p+1)/4} (p = 3 mod 4). From a small [x], x + p still fits
    32 bytes and names the same point mod p, so only a decoder's range
    check rejects that encoding; random points and byte corruption
    almost never reach it. *)
let rec point_at x =
  let x3_b = Bn.add (Bn.mul x (Bn.mul x x)) (Bn.add b_coeff p) in
  let t = Modring.reduce fp (Bn.sub x3_b (Bn.mul (Bn.of_int 3) x)) in
  let y = Modring.pow fp t (Bn.shift_right (Bn.add p Bn.one) 2) in
  if Bn.equal (Modring.sqr fp y) t then (x, y) else point_at (Bn.add x Bn.one)

(* ECDH against a peer point decoded from its encoding, so the point is
   fresh (no window table, no memo) exactly as a handshake sees it. The
   private key's bytes for the reference are the last 32 that
   [Ecdh.generate] drew. *)
let check_ecdh rng =
  let drawn = ref "" in
  let random n =
    drawn := Prng.bytes rng n;
    !drawn
  in
  let enc = C.P256.encode (C.Ecdh.generate ~random).C.Ecdh.pub in
  let priv = (C.Ecdh.generate ~random).C.Ecdh.priv in
  let priv_ref = Bn.of_bytes_be !drawn in
  match (C.P256.decode enc, R.P256.of_bytes enc) with
  | None, _ -> Error (Printf.sprintf "p256 decode rejected a valid encoding %s" (hex enc))
  | _, None -> Error (Printf.sprintf "reference decode rejected a valid encoding %s" (hex enc))
  | Some peer, Some peer_ref -> (
    let fast = C.Ecdh.shared_secret ~priv ~peer in
    let ref_ =
      Option.map
        (fun (x, _) -> Bn.to_bytes_be ~len:32 x)
        (R.P256.to_affine (R.P256.mul priv_ref peer_ref))
    in
    if not (Option.equal String.equal fast ref_) then
      let show = Option.fold ~none:"infinity" ~some:hex in
      Error
        (Printf.sprintf "ecdh secret mismatch with peer %s: fast=%s ref=%s" (hex enc) (show fast)
           (show ref_))
    else begin
      (* one corrupted byte: both decoders must give the same verdict *)
      let b = Bytes.of_string enc in
      let i = Prng.int rng (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int rng 255)));
      let bad = Bytes.to_string b in
      let v_fast = Option.is_some (C.P256.decode bad) in
      let v_ref = Option.is_some (R.P256.of_bytes bad) in
      if v_fast <> v_ref then
        Error
          (Printf.sprintf "p256 decode verdict diverges on %s (fast=%b ref=%b)" (hex bad) v_fast v_ref)
      else
        (* a small-x point: both decoders take (x, y) and reject (x + p, y) *)
        let x, y = point_at (Bn.of_int (Prng.int rng (1 lsl 30))) in
        let point x = "\x04" ^ Bn.to_bytes_be ~len:32 x ^ Bn.to_bytes_be ~len:32 y in
        let verdicts e = (Option.is_some (C.P256.decode e), Option.is_some (R.P256.of_bytes e)) in
        match (verdicts (point x), verdicts (point (Bn.add x p))) with
        | (true, true), (false, false) -> Ok ()
        | (f, r), (f', r') ->
          Error
            (Printf.sprintf
               "p256 decode verdicts on %s: fast=%b ref=%b, and with x + p: fast=%b ref=%b \
                (want true, true, false, false)"
               (hex (point x)) f r f' r')
    end)

(* Hash subkeys at the corners of the GHASH table: zero (every entry
   zero), x^0 alone (entry 0x80 is H itself), x^127 alone (the first
   halving already folds a bit back through 0xE1) and all ones. *)
let ghash_edge_subkeys =
  [| String.make 16 '\000'; "\x80" ^ String.make 15 '\000'; String.make 15 '\000' ^ "\x01";
     String.make 16 '\xff' |]

let check_ghash rng =
  let h =
    if Prng.bool rng then ghash_edge_subkeys.(Prng.int rng (Array.length ghash_edge_subkeys))
    else Prng.bytes rng 16
  in
  let parts = List.init (Prng.int rng 5) (fun _ -> Prng.bytes rng (Prng.int rng 70)) in
  let fast = C.Gcm.ghash_bytes ~h parts in
  let ref_ = R.Gcm.ghash_bytes ~h parts in
  if String.equal fast ref_ then Ok ()
  else
    Error
      (Printf.sprintf "ghash mismatch (h=%s, %d parts): fast=%s ref=%s" (hex h)
         (List.length parts) (hex fast) (hex ref_))

let check_gcm rng =
  let key = Prng.bytes rng 16 in
  let iv = Prng.bytes rng (if Prng.bool rng then 12 else 1 + Prng.int rng 32) in
  let aad = if Prng.bool rng then Some (Prng.bytes rng (Prng.int rng 40)) else None in
  let pt = Prng.bytes rng (Prng.int rng 200) in
  let ct_f, tag_f = C.Gcm.encrypt ~key ~iv ?aad pt in
  let ct_r, tag_r = R.Gcm.encrypt ~key ~iv ?aad pt in
  if not (String.equal ct_f ct_r && String.equal tag_f tag_r) then
    Error
      (Printf.sprintf "gcm encrypt mismatch (iv %d bytes): ct %s/%s tag %s/%s"
         (String.length iv) (hex ct_f) (hex ct_r) (hex tag_f) (hex tag_r))
  else
    match C.Gcm.decrypt ~key ~iv ?aad ~tag:tag_f ct_f with
    | None -> Error "gcm decrypt rejected its own ciphertext"
    | Some pt' when not (String.equal pt pt') ->
      Error "gcm decrypt roundtrip changed the plaintext"
    | Some _ -> (
      let bad_tag =
        let b = Bytes.of_string tag_f in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
        Bytes.to_string b
      in
      match C.Gcm.decrypt ~key ~iv ?aad ~tag:bad_tag ct_f with
      | Some _ -> Error "gcm accepted a corrupted tag"
      | None -> Ok ())

let aes_key_sizes = [ 16; 24; 32 ]
let gcm_boundary_lengths = [| 0; 1; 15; 16; 17; 31; 32; 33; 255; 256; 257 |]

let check_aes rng =
  let rec blocks = function
    | [] -> Ok ()
    | n :: rest ->
      let key = Prng.bytes rng n and block = Prng.bytes rng 16 in
      let b = Bytes.of_string block in
      C.Aes.encrypt_into (C.Aes.expand_key key) b 0 b 0;
      let fast = Bytes.to_string b in
      let ref_ = R.Aes.encrypt_block (R.Aes.expand_key key) block in
      if String.equal fast ref_ then blocks rest
      else
        Error
          (Printf.sprintf "aes-%d block mismatch (key %s, block %s): fast=%s ref=%s" (8 * n)
             (hex key) (hex block) (hex fast) (hex ref_))
  in
  match blocks aes_key_sizes with
  | Error _ as e -> e
  | Ok () -> (
    let length () = gcm_boundary_lengths.(Prng.int rng (Array.length gcm_boundary_lengths)) in
    let key = Prng.bytes rng (List.nth aes_key_sizes (Prng.int rng 3)) in
    let iv = Prng.bytes rng 12 in
    let pt = Prng.bytes rng (length ()) in
    let aad = Prng.bytes rng (length ()) in
    let ct_f, tag_f = C.Gcm.encrypt ~key ~iv ~aad pt in
    let ct_r, tag_r = R.Gcm.encrypt ~key ~iv ~aad pt in
    if not (String.equal ct_f ct_r && String.equal tag_f tag_r) then
      Error
        (Printf.sprintf "gcm encrypt mismatch (key %d, pt %d, aad %d bytes): ct %s/%s tag %s/%s"
           (String.length key) (String.length pt) (String.length aad) (hex ct_f) (hex ct_r)
           (hex tag_f) (hex tag_r))
    else
      match C.Gcm.decrypt ~key ~iv ~aad ~tag:tag_r ct_r with
      | Some pt' when String.equal pt pt' -> Ok ()
      | Some _ -> Error "gcm decrypt of the reference ciphertext changed the plaintext"
      | None -> Error "gcm decrypt rejected the reference ciphertext and tag")

(** One differential round drawing which primitive to hit from the
    same stream as its inputs. *)
let round rng =
  match Prng.int rng 8 with
  | 0 | 1 -> check_sha256 rng
  | 2 -> check_ecdsa rng
  | 3 -> check_ecdh rng
  | 4 | 5 -> check_ghash rng
  | 6 -> check_gcm rng
  | _ -> check_aes rng
