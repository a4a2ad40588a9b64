type private_key = string (* 32 big-endian bytes in [1, n-1] *)
type public_key = P256.point

let sr = P256.scalar_ring

(* The 32 bytes at [s.[off]], as an element if they lie in [1, n-1]. *)
let scalar s off =
  match Fe256.of_bytes sr s off with
  | Some e when not (Fe256.is_zero e) -> Some e
  | _ -> None

let private_of_bytes s =
  if String.length s <> 32 then invalid_arg "Ecdsa.private_of_bytes: need 32 bytes";
  let d = Fe256.of_bytes_mod sr s 0 in
  Fe256.to_string sr (if Fe256.is_zero d then Fe256.one sr else d)

let private_to_bytes d = d
let public_of_private d = P256.base_mul d

let keypair_of_seed seed =
  (* Hash a counter with the seed until a valid scalar appears; with a
     256-bit group this virtually always succeeds on the first try. *)
  let rec candidate i =
    let h = Sha256.digest_list [ "watz-keygen"; seed; String.make 1 (Char.chr i) ] in
    if Option.is_some (scalar h 0) then h else candidate (i + 1)
  in
  let d = candidate 0 in
  (d, public_of_private d)

(* s = k^-1 (z + r d), in place on the scalar ring: [fr] becomes r d,
   then z + r d, then s. [None] when r or s is 0. *)
let sign_with d z fk k =
  match P256.affine_x (P256.base_mul k) with
  | None -> None
  | Some x1 ->
      let fr = Fe256.of_bytes_mod sr x1 0 in
      if Fe256.is_zero fr then None
      else begin
        let out = Bytes.create 64 in
        Fe256.to_bytes sr out 0 fr;
        Fe256.mul_into sr fr fr (Fe256.of_bytes_mod sr d 0);
        Fe256.add_into sr fr fr z;
        Fe256.inv_into sr fk fk;
        Fe256.mul_into sr fr fr fk;
        Fe256.to_bytes sr out 32 fr;
        if Fe256.is_zero fr then None else Some (Bytes.unsafe_to_string out)
      end

(* RFC 6979 deterministic nonces, specialised to SHA-256 and a 256-bit
   group order (so bits2int is the identity on digests), with the
   signature in the loop: a candidate k outside [1, n-1], or one that
   gives r = 0 or s = 0, moves on to the next candidate (§3.2 step
   h.3). Each K is prepared once and reused for the V updates under
   it. *)
let sign_digest d digest =
  if String.length digest <> 32 then invalid_arg "Ecdsa.sign_digest: need 32 bytes";
  (* bits2octets: the digest mod n, re-encoded on 32 bytes *)
  let z = Fe256.of_bytes_mod sr digest 0 in
  let h1 = Fe256.to_string sr z in
  let v = ref (String.make 32 '\x01') in
  let k = ref (Hmac.prepare (String.make 32 '\x00')) in
  k := Hmac.prepare (Hmac.mac !k (!v ^ "\x00" ^ d ^ h1));
  v := Hmac.mac !k !v;
  k := Hmac.prepare (Hmac.mac !k (!v ^ "\x01" ^ d ^ h1));
  v := Hmac.mac !k !v;
  let rec attempt () =
    v := Hmac.mac !k !v;
    match Option.bind (scalar !v 0) (fun fk -> sign_with d z fk !v) with
    | Some signature -> signature
    | None ->
        k := Hmac.prepare (Hmac.mac !k (!v ^ "\x00"));
        v := Hmac.mac !k !v;
        attempt ()
  in
  attempt ()

let sign d msg = sign_digest d (Sha256.digest msg)

let verify_digest q ~digest ~signature =
  String.length signature = 64 && String.length digest = 32
  && (not (P256.is_infinity q))
  &&
  match (scalar signature 0, scalar signature 32) with
  | Some r, Some w -> (
      (* u1 = z s^-1 and u2 = r s^-1, in place on the scalar ring *)
      Fe256.inv_into sr w w;
      let u1 = Fe256.of_bytes_mod sr digest 0 in
      Fe256.mul_into sr u1 u1 w;
      Fe256.mul_into sr w r w;
      match P256.affine_x (P256.double_mul (Fe256.to_string sr u1) (Fe256.to_string sr w) q) with
      | None -> false
      | Some x1 -> Fe256.equal (Fe256.of_bytes_mod sr x1 0) r)
  | _ -> false

let verify q ~msg ~signature = verify_digest q ~digest:(Sha256.digest msg) ~signature
