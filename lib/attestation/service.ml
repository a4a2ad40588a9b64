(** The attestation service: a trusted-kernel module (§V).

    It alone holds the private attestation key, derived
    deterministically at every boot from the hardware root of trust:
    MKVB → [huk_subkey_derive] → Fortuna seed → ECDSA P-256 key pair
    (the paper's LibTomCrypt/Fortuna extension). TAs — including the
    WaTZ runtime — submit claims and get back signed evidence; they
    never see the key. *)

type t = {
  priv : Watz_crypto.Ecdsa.private_key;
  pub : Watz_crypto.Ecdsa.public_key;
  version : string;
}

(** Derive the attestation key pair from the trusted OS's root of
    trust. Same boot, same device ⇒ same keys; different device ⇒
    different keys. *)
let create os =
  let subkey = Watz_tz.Optee.Kernel.derive_subkey os ~label:"watz-attestation-key" in
  let fortuna = Watz_crypto.Fortuna.of_seed subkey in
  let seed = Watz_crypto.Fortuna.generate fortuna 32 in
  let priv, pub = Watz_crypto.Ecdsa.keypair_of_seed seed in
  (* The key pair lives for the whole boot: warm its SEC 1 encoding
     now so no "pubkey" request or evidence body pays the inversion. *)
  ignore (Watz_crypto.P256.encode pub);
  { priv; pub; version = Watz_tz.Optee.Kernel.version os }

let public_key t = t.pub

(** Issue signed evidence over a claim (the Wasm bytecode measurement)
    bound to a session anchor. *)
let issue_evidence t ~anchor ~claim : Evidence.signed =
  if String.length anchor <> 32 then invalid_arg "Service.issue_evidence: anchor must be 32 bytes";
  if String.length claim <> 32 then invalid_arg "Service.issue_evidence: claim must be 32 bytes";
  let body =
    { Evidence.anchor; version = t.version; claim; attestation_pubkey = t.pub }
  in
  { Evidence.body; signature = Watz_crypto.Ecdsa.sign t.priv (Evidence.body_bytes body) }

(* ------------------------------------------------------------------ *)
(* Kernel-service plumbing: the WaTZ runtime TA reaches the service
   through the OP-TEE syscall boundary with a tiny serialized command
   set. *)

let service_name = "watz.attestation"

let install os =
  let service = create os in
  Watz_tz.Optee.Kernel.register_service os ~name:service_name (fun request ->
      let r = Watz_util.Bytesio.Reader.of_string request in
      let cmd = Watz_util.Bytesio.Reader.len_bytes r in
      match cmd with
      | "pubkey" -> Watz_crypto.P256.encode service.pub
      | "issue" ->
        let anchor = Watz_util.Bytesio.Reader.bytes r 32 in
        let claim = Watz_util.Bytesio.Reader.bytes r 32 in
        (* The evidence signature (⑥ in Table III) is the service's one
           expensive step; trace it as the secure-world signing seam. *)
        Watz_obs.Trace.span
          (Watz_tz.Simclock.tracer os.Watz_tz.Optee.clock)
          Watz_obs.Trace.Secure ~session:Watz_obs.Trace.no_session "crypto.ecdsa_sign"
          (fun () -> Evidence.encode (issue_evidence service ~anchor ~claim))
      | other -> failwith ("attestation service: unknown command " ^ other));
  service

(* Client-side wrappers over the syscall. *)

(** Signed evidence over [claim] bound to [anchor], as the encoded
    bytes the service returns: the bytes msg2 carries, so the kernel
    call's result crosses into the TA undecoded. *)
let request_issue os ~anchor ~claim =
  let w = Watz_util.Bytesio.Writer.create () in
  Watz_util.Bytesio.Writer.len_bytes w "issue";
  Watz_util.Bytesio.Writer.bytes w anchor;
  Watz_util.Bytesio.Writer.bytes w claim;
  Watz_tz.Optee.kernel_call os ~service:service_name (Watz_util.Bytesio.Writer.contents w)

let request_pubkey os =
  let w = Watz_util.Bytesio.Writer.create () in
  Watz_util.Bytesio.Writer.len_bytes w "pubkey";
  let resp =
    Watz_tz.Optee.kernel_call os ~service:service_name (Watz_util.Bytesio.Writer.contents w)
  in
  match Watz_crypto.P256.decode resp with
  | Some p -> p
  | None -> failwith "attestation service returned an invalid public key"
