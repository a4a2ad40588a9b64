(** The SGX-style key-derivation schedule used by the WaTZ remote
    attestation protocol (§IV, following Intel's remote-attestation
    end-to-end example).

    From the ECDHE shared secret [g]{^ab}:
    - KDK = AES-CMAC(0{^16}, little-endian(g{^ab}.x))
    - K{_m} (MAC key, "SMK" label) authenticates protocol messages;
    - K{_e} (encryption key, "SK" label) protects msg3's secret blob. *)

type session_keys = { kdk : string; k_m : string; k_e : string }

val derive_label : kdk:string -> string -> string
(** [derive_label ~kdk label] is AES-CMAC(KDK, 0x01 || label || 0x00 ||
    0x80 || 0x00), the SGX derivation shape. *)

val session_of_shared : string -> session_keys
