type private_key = string
type keypair = { priv : private_key; pub : P256.point }

let generate ~random =
  let rec draw () =
    let d = random 32 in
    match Fe256.of_bytes P256.scalar_ring d 0 with
    | Some k when not (Fe256.is_zero k) -> { priv = d; pub = P256.base_mul d }
    | _ -> draw ()
  in
  draw ()

let shared_secret ~priv ~peer = P256.affine_x (P256.mul priv peer)
