type session_keys = { kdk : string; k_m : string; k_e : string }

let reverse_bytes s = String.init (String.length s) (fun i -> s.[String.length s - 1 - i])

(* The all-zero CMAC key is fixed by the derivation, so prepare it once
   per domain, on first use. A [Domain.DLS] key, not a global [lazy]:
   fleet shards derive their first session keys at the same moment, and
   an OCaml 5 lazy forced by two domains at once raises
   [CamlinternalLazy.Undefined]. *)
let zero_key = Domain.DLS.new_key (fun () -> Cmac.prepare (String.make 16 '\000'))

let kdk_of_shared gab_x =
  if String.length gab_x <> 32 then invalid_arg "Kdf.kdk_of_shared: need 32 bytes";
  (* Intel's derivation feeds the little-endian x-coordinate. *)
  Cmac.mac_with (Domain.DLS.get zero_key) (reverse_bytes gab_x)

let derive_label ~kdk label = Cmac.mac ~key:kdk ("\x01" ^ label ^ "\x00\x80\x00")

let session_of_shared gab_x =
  let kdk = kdk_of_shared gab_x in
  (* One prepared KDK serves every label derivation. *)
  let key = Cmac.prepare kdk in
  let derive label = Cmac.mac_with key ("\x01" ^ label ^ "\x00\x80\x00") in
  { kdk; k_m = derive "SMK"; k_e = derive "SK" }
