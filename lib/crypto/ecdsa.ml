type private_key = Bn.t
type public_key = P256.point

let n = P256.n
let sr = P256.scalar_ring

let private_of_bytes s =
  if String.length s <> 32 then invalid_arg "Ecdsa.private_of_bytes: need 32 bytes";
  let d = Bn.mod_ (Bn.of_bytes_be s) n in
  if Bn.is_zero d then Bn.one else d

let private_to_bytes d = Bn.to_bytes_be ~len:32 d
let public_of_private d = P256.base_mul d

let keypair_of_seed seed =
  (* Hash a counter with the seed until a valid scalar appears; with a
     256-bit group this virtually always succeeds on the first try. *)
  let rec candidate i =
    let h = Sha256.digest_list [ "watz-keygen"; seed; String.make 1 (Char.chr i) ] in
    let d = Bn.of_bytes_be h in
    if Bn.is_zero d || Bn.compare d n >= 0 then candidate (i + 1) else d
  in
  let d = candidate 0 in
  (d, public_of_private d)

(* RFC 6979 deterministic nonce generation, specialised to SHA-256 and
   a 256-bit group order (so bits2int is the identity on digests). Each
   K is prepared once and reused for the V updates under it. *)
let rfc6979_k d digest =
  let x = Bn.to_bytes_be ~len:32 d in
  let h1 =
    (* bits2octets: reduce the digest mod n, re-encode on 32 bytes. *)
    Bn.to_bytes_be ~len:32 (Bn.mod_ (Bn.of_bytes_be digest) n)
  in
  let v = ref (String.make 32 '\x01') in
  let k = ref (Hmac.prepare (String.make 32 '\x00')) in
  k := Hmac.prepare (Hmac.mac !k (!v ^ "\x00" ^ x ^ h1));
  v := Hmac.mac !k !v;
  k := Hmac.prepare (Hmac.mac !k (!v ^ "\x01" ^ x ^ h1));
  v := Hmac.mac !k !v;
  let rec attempt () =
    v := Hmac.mac !k !v;
    let candidate = Bn.of_bytes_be !v in
    if (not (Bn.is_zero candidate)) && Bn.compare candidate n < 0 then candidate
    else begin
      k := Hmac.prepare (Hmac.mac !k (!v ^ "\x00"));
      v := Hmac.mac !k !v;
      attempt ()
    end
  in
  attempt ()

(* s = k^-1 (z + r d) mod n, computed in place on the scalar ring:
   [fr] becomes r d, then z + r d, then s. *)
let sign_digest d digest =
  if String.length digest <> 32 then invalid_arg "Ecdsa.sign_digest: need 32 bytes";
  let z = Fe256.of_bn sr (Bn.of_bytes_be digest) in
  let fd = Fe256.of_bn sr d in
  let rec attempt k =
    match P256.to_affine (P256.base_mul k) with
    | None -> attempt (Bn.add k Bn.one)
    | Some (x1, _) ->
        let r = Bn.mod_ x1 n in
        if Bn.is_zero r then attempt (Bn.add k Bn.one)
        else begin
          let fr = Fe256.of_bn sr r in
          let fk = Fe256.of_bn sr k in
          Fe256.mul_into sr fr fr fd;
          Fe256.add_into sr fr fr z;
          Fe256.inv_into sr fk fk;
          Fe256.mul_into sr fr fr fk;
          if Fe256.is_zero fr then attempt (Bn.add k Bn.one)
          else Bn.to_bytes_be ~len:32 r ^ Bn.to_bytes_be ~len:32 (Fe256.to_bn sr fr)
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
  (* u1 = z s^-1 and u2 = r s^-1, in place on the scalar ring *)
  let w = Fe256.of_bn sr s in
  Fe256.inv_into sr w w;
  let u1 = Fe256.of_bn sr (Bn.of_bytes_be digest) in
  Fe256.mul_into sr u1 u1 w;
  let u2 = Fe256.of_bn sr r in
  Fe256.mul_into sr u2 u2 w;
  match P256.to_affine (P256.double_mul (Fe256.to_bn sr u1) (Fe256.to_bn sr u2) q) with
  | None -> false
  | Some (x1, _) -> Bn.equal (Bn.mod_ x1 n) r

let verify q ~msg ~signature = verify_digest q ~digest:(Sha256.digest msg) ~signature
