(* A tour of the WaTZ trust chain and what each link rejects (§IV,
   §VII): secure boot vs tampered firmware, the OP-TEE signing policy
   vs the Wasm sandbox, and the verifier's appraisal of evidence —
   ending with the Dolev-Yao verification of the protocol itself.

   dune exec examples/attestation_demo.exe *)

module P = Watz_attest.Protocol

let rng = Watz_util.Prng.create 0xde30L
let random n = Watz_util.Prng.bytes rng n

let banner t = Printf.printf "\n--- %s ---\n" t

let () =
  banner "1. Secure boot";
  let soc = Watz_tz.Soc.manufacture ~seed:"demo-device" () in
  (match Watz_tz.Soc.boot soc with
  | Ok _ -> print_endline "genuine chain: boots"
  | Error _ -> failwith "unexpected");
  let evil = Watz_tz.Soc.manufacture ~seed:"demo-device" () in
  let chain =
    Watz_tz.Boot.tamper_stage (Watz_tz.Boot.standard_chain evil.Watz_tz.Soc.vendor)
      ~name:"optee-os"
  in
  (match Watz_tz.Soc.boot evil ~chain with
  | Error e -> Format.printf "tampered trusted OS: refused (%a)@." Watz_tz.Boot.pp_boot_error e
  | Ok _ -> failwith "tampered chain accepted!");

  banner "2. Deployment policies";
  let os = Watz_tz.Soc.optee soc in
  let unsigned_ta =
    {
      Watz_tz.Optee.ta_uuid = "third-party-ta";
      ta_code_id = Watz_crypto.Sha256.digest "someone else's code";
      ta_signature = None;
      ta_heap_bytes = 4096;
      ta_stack_bytes = 1024;
      ta_invoke = (fun _ ~cmd:_ s -> s);
    }
  in
  (match Watz_tz.Optee.open_session os unsigned_ta with
  | exception Watz_tz.Optee.Ta_rejected msg ->
    Printf.printf "native TA without vendor signature: rejected (%s)\n" msg
  | _ -> failwith "unsigned TA accepted!");
  let third_party_wasm =
    Watz_wasmc.Minic.compile_to_bytes
      (Watz_wasmc.Minic.Dsl.program
         [ Watz_wasmc.Minic.Dsl.fn "f" [] (Some Watz_wasmc.Minic.I32)
             [ Watz_wasmc.Minic.Dsl.ret (Watz_wasmc.Minic.Dsl.i 7) ] ])
  in
  let app = Watz.Runtime.load ~entry:None soc third_party_wasm in
  Printf.printf "the same third-party code as Wasm: runs sandboxed, measured as %s...\n"
    (String.sub (Watz_util.Hex.encode (Watz.Runtime.claim app)) 0 16);
  Watz.Runtime.unload app;

  banner "3. The verifier's appraisal";
  let service = Watz_attest.Service.install os in
  let claim_good = Watz_crypto.Sha256.digest "release-build.wasm" in
  let policy =
    P.Verifier.make_policy ~identity_seed:"relying-party"
      ~endorsed_keys:[ Watz_attest.Service.public_key service ]
      ~reference_claims:[ claim_good ]
      ~accept_version:(fun v -> String.equal v Watz_tz.Soc.watz_version)
      ~secret_blob:"deployment credentials" ()
  in
  let attempt name ~accept ~claim ~issue_service ~expected_verifier =
    let issue ~anchor =
      Watz_attest.Evidence.encode (Watz_attest.Service.issue_evidence issue_service ~anchor ~claim)
    in
    match P.run_local ~random ~policy ~issue ~expected_verifier () with
    | Ok r when accept -> Printf.printf "%-40s accepted (blob %S)\n" name r.P.blob
    | Error e when not accept -> Format.printf "%-40s rejected: %a@." name P.pp_error e
    | Ok _ -> failwith (name ^ " accepted!")
    | Error e -> Format.kasprintf failwith "%s rejected: %a" name P.pp_error e
  in
  attempt "genuine device, known measurement:" ~accept:true ~claim:claim_good
    ~issue_service:service ~expected_verifier:policy.P.Verifier.identity_pub;
  attempt "genuine device, tampered application:" ~accept:false
    ~claim:(Watz_crypto.Sha256.digest "backdoored.wasm")
    ~issue_service:service ~expected_verifier:policy.P.Verifier.identity_pub;
  let rogue = Watz_tz.Soc.manufacture ~seed:"rogue-board" () in
  (match Watz_tz.Soc.boot rogue with Ok _ -> () | Error _ -> assert false);
  let rogue_service = Watz_attest.Service.install (Watz_tz.Soc.optee rogue) in
  attempt "unendorsed device, correct measurement:" ~accept:false ~claim:claim_good
    ~issue_service:rogue_service ~expected_verifier:policy.P.Verifier.identity_pub;
  let _, impostor = Watz_crypto.Ecdsa.keypair_of_seed "impostor" in
  attempt "masquerading verifier:" ~accept:false ~claim:claim_good ~issue_service:service
    ~expected_verifier:impostor;

  banner "4. Formal analysis of the protocol (Scyther substitute)";
  let claims = Watz_attest.Symbolic.verify_protocol () in
  List.iter
    (fun v ->
      Printf.printf "%-66s %s\n" v.Watz_attest.Symbolic.claim
        (if v.Watz_attest.Symbolic.holds then "holds" else "VIOLATED"))
    claims;
  let findings = Watz_attest.Symbolic.attack_findings () in
  List.iter
    (fun (name, found) ->
      Printf.printf "checker sanity [%s]: %s\n" name
        (if found then "attack found, as expected" else "checker too weak!"))
    findings;
  if not (List.for_all (fun v -> v.Watz_attest.Symbolic.holds) claims && List.for_all snd findings)
  then exit 1
