(** The mesh verifier: {!Watz.Verifier_app} with the mesh's fast paths
    installed as its per-connection frame handler, all on one port:

    - the server's full msg0–msg3 handshake mints a resumption ticket
      (sealed into msg3 through the handler's [augment] trailer) and
      records the appraisal in the evidence {!Cache};
    - a ["WZR0"] first frame takes the 1-RTT resume path: redeem the
      ticket, check the binding MAC and the cache, answer with the
      secret blob under a fresh per-resumption key — or reject with a
      typed reason and close, pushing the attester back to a full
      handshake;
    - ["WZSC"] frames on an established connection (full or resumed)
      are hierarchical sub-claims, appraised against the sub-module
      reference list without any re-handshake.

    Frame dispatch is unambiguous: msg0 is a 65-byte SEC1 point
    starting with 0x04, every mesh frame starts with an ASCII magic.

    All trust decisions and their rejections, and the evidence cache's
    counts, go to the server's metrics registry; the storm report and
    its forged-acceptance oracle read them from there. *)

module P = Watz_attest.Protocol
module Evidence = Watz_attest.Evidence
module T = Watz_obs.Trace
module Metrics = Watz_obs.Metrics
module Soc = Watz_tz.Soc
module V = Watz.Verifier_app

(* An established connection: full handshake completed or resumption
   accepted. Holds what sub-claims and retransmits need. *)
type estab = {
  e_k_sub : string;
  mutable e_resume_cache : (string * string) option; (* resume0 -> reply *)
  e_sub_acks : (string, string) Hashtbl.t; (* subclaim frame -> ack *)
}

(* What the frame handlers share across connections. *)
type mesh = {
  sub_refs : string list; (* acceptable sub-module measurements *)
  master : Ticket.master;
  cache : Cache.t;
  ticket_ttl_ns : int64;
}

type t = { server : V.t; mesh : mesh }

let metrics t = V.metrics t.server
let cache t = t.mesh.cache

(** Endorse an additional attestation key (an attester rotated). *)
let endorse t pub =
  Watz_crypto.P256.prepare pub;
  let policy = t.server.V.policy in
  t.server.V.policy <-
    { policy with P.Verifier.endorsed_keys = pub :: policy.P.Verifier.endorsed_keys }

(** Replace the acceptable runtime measurements (module update). *)
let set_reference_claims t claims =
  t.server.V.policy <- { t.server.V.policy with P.Verifier.reference_claims = claims }

(** Rotate the session-ticket key: outstanding tickets reject as
    [rotated] from now on. *)
let rotate_tickets t =
  Metrics.incr (metrics t) "stek_rotations";
  Ticket.rotate t.mesh.master

let establish_from_rms ~rms =
  { e_k_sub = Hier.derive_key ~rms; e_resume_cache = None; e_sub_acks = Hashtbl.create 4 }

(* ------------------------------------------------------------------ *)
(* Resume path *)

(** The resume0 checks that read nothing but the frame, the clock and
    the ticket master: parse, redeem the ticket, match the presented
    attester id against the sealed one and check the binding MAC under
    the sealed resumption secret. [handle_resume0] runs exactly this
    and then the cache and policy checks; the mesh tests and the proto
    fuzz target check it directly. *)
let redeem_resume0 master ~now_ns frame :
    (Resume.resume0 * Ticket.body, Resume.reject_reason) result =
  match Resume.parse_resume0 frame with
  | None -> Error Resume.Rj_malformed
  | Some r -> (
    match Ticket.redeem master ~now_ns r.Resume.r_ticket with
    | Error reason -> Error reason
    | Ok body ->
      if not (String.equal body.Ticket.attester_id r.Resume.r_attester_id) then
        Error Resume.Rj_id_mismatch
      else if not (Resume.check_binding ~rms:body.Ticket.rms r) then Error Resume.Rj_bad_binding
      else Ok (r, body))

let handle_resume0 m v (c : V.conn_state) estab frame =
  let metrics = V.metrics v and tracer = Soc.tracer v.V.soc in
  match !estab with
  | Some e -> (
    match e.e_resume_cache with
    | Some (prev, rep) when String.equal prev frame ->
      Metrics.incr metrics "retransmits_answered";
      ignore (V.reply v c rep)
    | _ -> V.stray v c)
  | None ->
    if c.V.vsession <> None then V.stray v c
    else begin
      Metrics.incr metrics "resume_attempts";
      let now = Soc.now_ns v.V.soc in
      let policy = v.V.policy in
      let reject reason =
        Metrics.incr metrics ("resume_rejected." ^ Resume.reason_to_string reason);
        T.instant tracer T.Normal ~session:c.V.id "mesh.resume_reject";
        if V.reply v c (Resume.build_reject reason) then
          (* The attester falls back on a fresh connection; this one is
             done. Closing here (not aborting) keeps reject != failure. *)
          V.drop_session v c "resume_fallbacks"
      in
      let verdict =
        Soc.smc v.V.soc (fun () ->
            match redeem_resume0 m.master ~now_ns:now frame with
            | Error reason -> Error reason
            | Ok (r, body) ->
              if
                not
                  (Cache.lookup m.cache ~now_ns:now ~attester_id:body.Ticket.attester_id
                     ~claim:body.Ticket.claim ~boot:body.Ticket.boot)
              then Error Resume.Rj_cache_stale
              else if
                not
                  (List.exists (String.equal body.Ticket.claim)
                     policy.P.Verifier.reference_claims)
              then Error Resume.Rj_policy
              else begin
                let nonce_v = V.random v Resume.nonce_len in
                let iv = V.random v Resume.iv_len in
                let rep =
                  Resume.build_accept ~rms:body.Ticket.rms ~nonce_a:r.Resume.r_nonce_a ~nonce_v
                    ~iv policy.P.Verifier.secret_blob
                in
                Ok (body.Ticket.rms, rep)
              end)
      in
      match verdict with
      | Error reason -> reject reason
      | Ok (rms, rep) ->
        let e = establish_from_rms ~rms in
        e.e_resume_cache <- Some (frame, rep);
        estab := Some e;
        c.V.completed <- true;
        Metrics.incr metrics "resumes_accepted";
        T.instant tracer T.Normal ~session:c.V.id "mesh.resume_accept";
        ignore (V.reply v c rep)
    end

(* ------------------------------------------------------------------ *)
(* Hierarchical sub-claims *)

let handle_subclaim m v c estab frame =
  let metrics = V.metrics v in
  match !estab with
  | None -> V.abort v c (P.Malformed "mesh verifier: sub-claim before establishment")
  | Some e -> (
    match Hashtbl.find_opt e.e_sub_acks frame with
    | Some ack ->
      Metrics.incr metrics "retransmits_answered";
      ignore (V.reply v c ack)
    | None -> (
      match Soc.smc v.V.soc (fun () -> Hier.verify ~k_sub:e.e_k_sub frame) with
      | Some sub when List.exists (String.equal sub.Hier.measurement) m.sub_refs ->
        let ack = Soc.smc v.V.soc (fun () -> Hier.ack ~k_sub:e.e_k_sub frame) in
        Hashtbl.replace e.e_sub_acks frame ack;
        Metrics.incr metrics "subclaims_accepted";
        ignore (V.reply v c ack)
      | verified ->
        Metrics.incr metrics "subclaims_rejected";
        V.abort v c
          (if Option.is_none verified then P.Bad_mac "sub-claim" else P.Unknown_measurement)))

(* ------------------------------------------------------------------ *)
(* Full handshake: ticket minting *)

(* On the first acceptance, record the appraisal in the evidence
   cache, derive the session's resumption secret and seal the ticket
   into msg3's encrypted blob. *)
let mint_ticket m v estab vsession (evidence : Evidence.signed) =
  let now = Soc.now_ns v.V.soc in
  let body = evidence.Evidence.body in
  let attester_id = Identity.attester_id_of_pub body.Evidence.attestation_pubkey in
  let claim = body.Evidence.claim in
  let boot =
    match Identity.boot_digest_of_version body.Evidence.version with
    | Some b -> b
    | None -> Watz_crypto.Sha256.digest "WZ-MESH-NO-TCB"
  in
  Cache.store m.cache ~now_ns:now ~attester_id ~claim ~boot;
  let rms = P.Verifier.resumption_secret vsession in
  let ticket =
    Ticket.mint m.master ~random:(V.random v) ~now_ns:now ~ttl_ns:m.ticket_ttl_ns ~attester_id
      ~claim ~boot ~rms
  in
  Metrics.incr (V.metrics v) "tickets_minted";
  estab := Some (establish_from_rms ~rms);
  Resume.seal_trailer ticket

(* One connection's frame handler. Frames it declines (msg0, msg2 and
   their retransmits) go to the server's full-handshake path. *)
let handler m v (c : V.conn_state) =
  let estab = ref None in
  {
    V.on_frame =
      (fun frame ->
        if Resume.is_resume0 frame then begin
          handle_resume0 m v c estab frame;
          true
        end
        else if Hier.is_subclaim frame then begin
          handle_subclaim m v c estab frame;
          true
        end
        else if c.V.vsession = None && !estab <> None then begin
          (* A resumed connection only ever carries resume0
             retransmits and sub-claims. *)
          V.stray v c;
          true
        end
        else false);
    augment = mint_ticket m v estab;
  }

(** Start listening. [stek_seed] derives the ticket master — shards of
    a federated fleet pass the same seed so tickets are portable
    across them. [sub_refs] is the reference list for hierarchical
    sub-claims. *)
let start ?(ticket_ttl_ns = 10_000_000_000L) ?(cache_ttl_ns = 10_000_000_000L) ?(sub_refs = [])
    ~stek_seed soc ~port ~policy () =
  (* The cache counts into the server's registry, so the mesh is built
     after the server; handlers are built per connection, later. *)
  let shared = ref None in
  let server = V.start ~handler:(fun v c -> handler (Option.get !shared) v c) soc ~port ~policy in
  let mesh =
    {
      sub_refs;
      master = Ticket.make ~seed:stek_seed;
      cache = Cache.create (V.metrics server) ~ttl_ns:cache_ttl_ns;
      ticket_ttl_ns;
    }
  in
  shared := Some mesh;
  { server; mesh }

(** One scheduling quantum of the server: {!Watz.Verifier_app.step}. *)
let step t = V.step t.server
