(** A Dolev–Yao symbolic analysis of the WaTZ protocol — the
    repository's stand-in for the paper's Scyther verification (§VII).

    The protocol of Table II is modelled as a term algebra. What the
    analysis does is one deduction closure over a hand-written list of
    what the intruder observes ({!intruder_knowledge}): the messages
    of one honest session and its own key material. From that list it
    applies the standard deduction rules (pairing / projection,
    symmetric decryption with a known key, Diffie–Hellman combination
    of a known private scalar with a known public point, key
    derivation from a known shared secret); signatures, MACs and
    hashes are one-way. There are no roles and no interleavings: the
    weakened variant's man-in-the-middle sessions are written into
    that list, so finding the MITM re-reads what the list holds
    (ROADMAP item 17 replaces the list with a search).

    Checked claims, mirroring the paper's Scyther script:
    - {e secrecy} of the session keys and of the msg3 secret blob in an
      honest session;
    - {e agreement}: the intruder cannot fabricate evidence binding a
      session it controls (it lacks the device attestation key);
    - {e non-vacuity}: the same closure derives the blob when the
      authentication ingredients (the verifier's signature over the
      session keys / the evidence check) are removed, from the MITM
      terms the list then holds, and the leak when a session private
      key is compromised. *)

type term =
  | Name of string (* atomic secret: private scalar, key, nonce, blob *)
  | Pub of term (* public counterpart *)
  | Pair of term * term
  | Hash of term
  | Senc of term * term (* data encrypted under key *)
  | Sign of term * term (* data signed by key (reveals data) *)
  | Mac of term * term
  | Shared of string * string (* DH shared secret of two principals, normalised *)
  | Kdf of string * term (* label-separated derivation *)

let shared a b = if String.compare a b <= 0 then Shared (a, b) else Shared (b, a)

module TermSet = Set.Make (struct
  type t = term

  let compare = compare
end)

(* One closure step: everything derivable from [known] by a single
   rule application. *)
let step known =
  let add t acc = TermSet.add t acc in
  TermSet.fold
    (fun t acc ->
      match t with
      | Pair (a, b) -> add a (add b acc)
      | Sign (m, _) -> add m acc (* signatures reveal their content *)
      | Senc (m, k) -> if TermSet.mem k known then add m acc else acc
      | _ -> acc)
    known known
  |> fun acc ->
  (* DH: private scalar x + public point of y => shared secret. *)
  TermSet.fold
    (fun t acc ->
      match t with
      | Name x ->
        TermSet.fold
          (fun u acc -> match u with Pub (Name y) -> add (shared x y) acc | _ -> acc)
          known acc
      | _ -> acc)
    known acc
  |> fun acc ->
  (* KDF from a known shared secret. *)
  TermSet.fold
    (fun t acc ->
      match t with
      | Shared _ -> add (Kdf ("SMK", t)) (add (Kdf ("SK", t)) acc)
      | _ -> acc)
    known acc

let rec closure known =
  let next = step known in
  if TermSet.cardinal next = TermSet.cardinal known then known else closure next

let derivable known t = TermSet.mem t (closure (TermSet.of_list known))

(* ------------------------------------------------------------------ *)
(* The protocol model *)

type scenario = {
  attester_compromised : bool; (* intruder knows the session scalar a *)
  authenticate_session : bool; (* msg1 carries SIGN_V(G_v || G_a) and it is checked *)
  check_evidence : bool; (* verifier validates the evidence binding *)
}

let honest = { attester_compromised = false; authenticate_session = true; check_evidence = true }

(* Principals: attester session scalar "a", verifier session scalar
   "v", verifier identity key "V", device attestation key "A", intruder
   scalar "e" and identity "E". The blob is the protected payload. *)

let blob = Name "secret-blob"
let k_e_honest = Kdf ("SK", shared "a" "v")
let k_m_honest = Kdf ("SMK", shared "a" "v")

(** The messages the intruder observes (and its own key material),
    given a scenario. When authentication is missing, the verifier can
    be coaxed into a session keyed with the intruder, and the attester
    into another — the classic unauthenticated-DH MITM — so the
    observable message set includes those sessions too. *)
let intruder_knowledge scenario =
  let base =
    [
      (* public values *)
      Pub (Name "a");
      Pub (Name "v");
      Pub (Name "V");
      Pub (Name "A");
      (* intruder's own material *)
      Name "e";
      Pub (Name "e");
      Name "E";
      Pub (Name "E");
    ]
  in
  let honest_session =
    [
      (* msg0 *)
      Pub (Name "a");
      (* msg1: G_v, V, SIGN_V(G_v || G_a), MAC *)
      Pair
        ( Pub (Name "v"),
          Pair
            ( Pub (Name "V"),
              Sign (Pair (Pub (Name "v"), Pub (Name "a")), Name "V") ) );
      Mac (Pair (Pub (Name "v"), Pub (Name "V")), k_m_honest);
      (* msg2: G_a, evidence = SIGN_A(anchor || claim || pub A) *)
      Sign
        ( Pair (Hash (Pair (Pub (Name "a"), Pub (Name "v"))), Pair (Name "claim-hash-public", Pub (Name "A"))),
          Name "A" );
      (* claims are public data *)
      Name "claim-hash-public";
      (* msg3 *)
      Senc (blob, k_e_honest);
    ]
  in
  let mitm_sessions =
    if scenario.authenticate_session && scenario.check_evidence then []
    else
      [
        (* The verifier keyed a session with the intruder (it could not
           tell): it will release the blob under that session's key. *)
        Senc (blob, Kdf ("SK", shared "e" "v"));
        (* The attester keyed a session with the intruder. *)
        Senc (blob, Kdf ("SK", shared "a" "e"));
      ]
  in
  let compromise = if scenario.attester_compromised then [ Name "a" ] else [] in
  base @ honest_session @ mitm_sessions @ compromise

(* ------------------------------------------------------------------ *)
(* Claims *)

type verdict = { claim : string; holds : bool }

let analyze scenario =
  let known = intruder_knowledge scenario in
  [
    { claim = "secrecy of secret blob"; holds = not (derivable known blob) };
    { claim = "secrecy of K_e"; holds = not (derivable known k_e_honest) };
    { claim = "secrecy of K_m"; holds = not (derivable known k_m_honest) };
    {
      claim = "secrecy of attester session key a";
      holds = not (derivable known (Name "a"));
    };
    {
      claim = "agreement: intruder cannot forge evidence for its own session";
      holds =
        not
          (derivable known
             (Sign
                ( Pair
                    ( Hash (Pair (Pub (Name "e"), Pub (Name "v"))),
                      Pair (Name "claim-hash-public", Pub (Name "A")) ),
                  Name "A" )));
    };
    {
      claim = "agreement: intruder cannot impersonate the verifier identity";
      holds = not (derivable known (Sign (Pair (Pub (Name "e"), Pub (Name "a")), Name "V")));
    };
    {
      claim = "reachability: honest participants can complete (blob decryptable with K_e)";
      holds = derivable (Senc (blob, k_e_honest) :: k_e_honest :: known) blob;
    };
  ]

(** All Scyther-style claims for the honest protocol. *)
let verify_protocol () = analyze honest

(** The sanity attacks: the checker must FIND these. *)
let attack_findings () =
  let unauth = { honest with authenticate_session = false; check_evidence = false } in
  let compromised = { honest with attester_compromised = true } in
  [
    ( "MITM once session authentication is removed",
      derivable (intruder_knowledge unauth) blob );
    ( "blob leak once the attester session key is compromised",
      derivable (intruder_knowledge compromised) blob );
  ]
