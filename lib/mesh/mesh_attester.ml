(** The mesh attester driver: one session of the attested service
    mesh over the lossy simulated network, as a non-blocking state
    machine with per-state deadlines and bounded exponential-backoff
    retransmission (the same discipline as {!Watz.Attester_app}).

    A session holding a ticket opens with the 1-RTT resume exchange;
    on any reject — or on losing the connection while resuming — it
    falls back to the full msg0–msg3 handshake on a fresh connection,
    still inside the same logical session (the fallback's extra round
    trip stays in this session's latency). A full handshake harvests
    the ticket sealed into msg3 and the resumption secret from the
    protocol state, stashing both in the {!Identity} for the next
    session. Once established (either path), the driver streams its
    hierarchical sub-claims and waits for each ack before the next. *)

module P = Watz_attest.Protocol
module T = Watz_obs.Trace
module Net = Watz_tz.Net
module Soc = Watz_tz.Soc

type retry = Watz.Attester_app.retry = {
  initial_timeout_ns : int64;
  backoff : float;
  max_retries : int;
}

let default_retry = Watz.Attester_app.default_retry

type phase =
  | Resume_await (* resume0 outstanding *)
  | Full_await_msg1
  | Full_await_msg3
  | Sub_await (* sub-claim outstanding *)
  | Term

type path = Resumed | Full_handshake

type done_info = {
  path : path;
  blob : string;
  fell_back : bool; (* a resume attempt preceded the full handshake *)
  subclaims_acked : int;
}

type outcome = Pending | Done of done_info | Aborted of P.error

type t = {
  soc : Soc.t;
  port : int;
  identity : Identity.t;
  expected_verifier : Watz_crypto.P256.point;
  random : int -> string;
  retry : retry;
  sid : int;
  mutable subclaims : (string * string) list; (* (name, measurement) left to attest *)
  mutable subclaims_acked : int;
  mutable conn : Net.conn;
  mutable proto : P.Attester.t option; (* full-handshake protocol state *)
  mutable phase : phase;
  mutable outcome : outcome;
  mutable outstanding : string;
  mutable timeout_ns : int64;
  mutable deadline_ns : int64;
  mutable retries_left : int;
  mutable retries : int;
  mutable full_restarts_left : int;
  mutable fell_back : bool;
  mutable resumed : bool;
  mutable nonce_a : string;
  mutable k_sub : string;
  mutable blob : string;
  started_ns : int64;
  mutable established_ns : int64; (* handshake (either path) done; 0 until then *)
  mutable finished_ns : int64;
}

let now t = Soc.now_ns t.soc
let tr t = Soc.tracer t.soc
let arm t = t.deadline_ns <- Int64.add (now t) t.timeout_ns

let rearm_fresh t =
  t.timeout_ns <- t.retry.initial_timeout_ns;
  t.retries_left <- t.retry.max_retries;
  arm t

let finish t outcome =
  (match outcome with
  | Aborted _ -> T.instant (tr t) T.Normal ~session:t.sid "mesh.attest.abort"
  | Done _ | Pending -> ());
  T.end_ (tr t) T.Normal ~session:t.sid "mesh.attest.session";
  t.outcome <- outcome;
  t.phase <- Term;
  t.finished_ns <- now t;
  Net.close t.conn

let abort t err = finish t (Aborted err)

(* How often a session will re-run the whole handshake from scratch
   after the verifier hangs up on it mid-protocol. Churn makes this
   legitimate: a module update or key rotation can invalidate evidence
   that was in flight when the event fired, and the correct client
   behaviour is to re-attest with fresh state, not to give up. *)
let full_restart_budget = 3

let rec send t frame =
  match Net.send_frame t.conn frame with
  | () -> true
  | exception Net.Peer_closed ->
    on_peer_closed t "mesh attester: peer closed";
    false

(* The verifier closed our connection. While resuming that is just the
   fallback signal (rejects are advisory and may themselves be lost);
   elsewhere, re-attest from scratch on a fresh connection while the
   budget lasts. *)
and on_peer_closed t reason =
  match t.phase with
  | Term -> ()
  | Resume_await -> fall_back t
  | Full_await_msg1 | Full_await_msg3 | Sub_await ->
    if t.full_restarts_left > 0 then begin
      t.full_restarts_left <- t.full_restarts_left - 1;
      T.instant (tr t) T.Normal ~session:t.sid "mesh.attest.restart";
      Net.close t.conn;
      t.conn <- Net.connect t.soc.Soc.net ~port:t.port;
      start_full t
    end
    else abort t (P.Connection_lost reason)

and finish_done t =
  finish t
    (Done
       {
         path = (if t.resumed then Resumed else Full_handshake);
         blob = t.blob;
         fell_back = t.fell_back;
         subclaims_acked = t.subclaims_acked;
       })

(* Establishment reached on either path: stream sub-claims, then finish. *)
and next_subclaim t =
  match t.subclaims with
  | [] -> finish_done t
  | (name, measurement) :: _ ->
    let frame = Soc.smc t.soc (fun () -> Hier.make ~k_sub:t.k_sub ~name ~measurement) in
    t.outstanding <- frame;
    t.phase <- Sub_await;
    if send t frame then rearm_fresh t

and established t ~rms ~blob =
  t.established_ns <- now t;
  t.k_sub <- Hier.derive_key ~rms;
  t.blob <- blob;
  next_subclaim t

(* Start the full msg0–msg3 handshake on the current connection
   (first contact, or fallback after a rejected resume). *)
and start_full t =
  let proto =
    Soc.smc t.soc (fun () ->
        P.Attester.create ~trace:(tr t) ~sid:t.sid ~random:t.random
          ~expected_verifier:t.expected_verifier ())
  in
  t.proto <- Some proto;
  let m0 = P.Attester.msg0 proto in
  t.outstanding <- m0;
  t.phase <- Full_await_msg1;
  rearm_fresh t;
  ignore (send t m0 : bool)

(* A rejected (or transport-dead) resume: drop the stale ticket and
   fall back on a fresh connection. *)
and fall_back t =
  t.fell_back <- true;
  t.identity.Identity.ticket <- None;
  t.identity.Identity.rms <- None;
  T.instant (tr t) T.Normal ~session:t.sid "mesh.attest.fallback";
  Net.close t.conn;
  t.conn <- Net.connect t.soc.Soc.net ~port:t.port;
  start_full t

(** Launch one session. With a ticket in the identity the session
    opens with resume0; otherwise it goes straight to msg0.
    [subclaims] are attested in order once the session establishes. *)
let start ?(retry = default_retry) ?(sid = T.no_session) ?(subclaims = []) soc ~port ~random
    ~identity ~expected_verifier () =
  T.begin_ (Soc.tracer soc) T.Normal ~session:sid "mesh.attest.session";
  let t =
    {
      soc;
      port;
      identity;
      expected_verifier;
      random;
      retry;
      sid;
      subclaims;
      subclaims_acked = 0;
      conn = Net.connect soc.Soc.net ~port;
      proto = None;
      phase = Term;
      outcome = Pending;
      outstanding = "";
      timeout_ns = retry.initial_timeout_ns;
      deadline_ns = 0L;
      retries_left = retry.max_retries;
      retries = 0;
      full_restarts_left = full_restart_budget;
      fell_back = false;
      resumed = false;
      nonce_a = "";
      k_sub = "";
      blob = "";
      started_ns = Soc.now_ns soc;
      established_ns = 0L;
      finished_ns = 0L;
    }
  in
  (match (identity.Identity.ticket, identity.Identity.rms) with
  | Some ticket, Some rms ->
    t.nonce_a <- random Resume.nonce_len;
    let frame =
      Soc.smc soc (fun () ->
          Resume.build_resume0 ~rms ~attester_id:(Identity.attester_id identity)
            ~nonce_a:t.nonce_a ~ticket)
    in
    t.outstanding <- frame;
    t.phase <- Resume_await;
    rearm_fresh t;
    ignore (send t frame : bool)
  | _ -> start_full t);
  t

let outcome t = t.outcome
let retries t = t.retries
let started_ns t = t.started_ns
let established_ns t = t.established_ns
let finished_ns t = t.finished_ns

let handle_frame t frame =
  match t.phase with
  | Term -> ()
  | Resume_await -> (
    let opened =
      if not (Resume.is_accept frame) then None
      else
        Soc.smc t.soc (fun () ->
            match t.identity.Identity.rms with
            | Some rms ->
              Option.map (fun b -> (rms, b)) (Resume.open_accept ~rms ~nonce_a:t.nonce_a frame)
            | None -> None)
    in
    match opened with
    | Some (rms, blob) ->
      t.resumed <- true;
      T.instant (tr t) T.Normal ~session:t.sid "mesh.attest.resumed";
      established t ~rms ~blob
    | None ->
      (* A reject, an accept that fails to authenticate (e.g. corrupted
         in flight) or unparseable traffic: the resume path is dead, so
         re-attest in full, the safe state. *)
      fall_back t)
  | Full_await_msg1 -> (
    let proto = Option.get t.proto in
    match Soc.smc t.soc (fun () -> P.Attester.handle_msg1 proto frame) with
    | Error e -> abort t e
    | Ok anchor -> (
      let evidence =
        Soc.smc t.soc (fun () -> Identity.issue_evidence t.identity ~anchor)
      in
      match Soc.smc t.soc (fun () -> P.Attester.msg2 proto ~evidence) with
      | Error e -> abort t e
      | Ok m2 ->
        t.outstanding <- m2;
        if send t m2 then begin
          t.phase <- Full_await_msg3;
          rearm_fresh t
        end))
  | Full_await_msg3 -> (
    let proto = Option.get t.proto in
    (* A duplicated msg1 is answered by resending msg2 (same backoff
       discipline as Attester_app). *)
    match Soc.smc t.soc (fun () -> P.Attester.handle_msg1 proto frame) with
    | Ok _anchor -> if send t t.outstanding then arm t
    | Error _ -> (
      match Soc.smc t.soc (fun () -> P.Attester.handle_msg3 proto frame) with
      | Error e -> abort t e
      | Ok blob_with_trailer ->
        let blob, ticket = Resume.split_blob blob_with_trailer in
        let rms =
          match P.Attester.resumption_secret proto with
          | Some rms -> rms
          | None -> assert false (* session keys exist on a completed handshake *)
        in
        t.identity.Identity.ticket <- ticket;
        t.identity.Identity.rms <- Some rms;
        established t ~rms ~blob))
  | Sub_await ->
    if Hier.check_ack ~k_sub:t.k_sub ~subclaim:t.outstanding frame then begin
      t.subclaims_acked <- t.subclaims_acked + 1;
      t.subclaims <- List.tl t.subclaims;
      next_subclaim t
    end
    (* Anything else is late/duplicated traffic (the accept or msg3
       resent, an earlier ack duplicated): ignore, keep waiting. *)

let on_deadline t =
  if t.retries_left <= 0 then
    abort t
      (P.Timed_out
         (match t.phase with
         | Resume_await -> "mesh attester: awaiting resume reply"
         | Full_await_msg1 -> "mesh attester: awaiting msg1"
         | Full_await_msg3 -> "mesh attester: awaiting msg3"
         | Sub_await -> "mesh attester: awaiting sub-claim ack"
         | Term -> "mesh attester: finished"))
  else begin
    T.instant (tr t) T.Normal ~session:t.sid "mesh.attest.retransmit";
    t.retries_left <- t.retries_left - 1;
    t.retries <- t.retries + 1;
    t.timeout_ns <- Int64.of_float (Int64.to_float t.timeout_ns *. t.retry.backoff);
    if send t t.outstanding then arm t
  end

(** One scheduling quantum: consume every complete frame, then check
    the retransmission deadline. Terminal states are absorbing. *)
let step t =
  let rec drain () =
    if t.outcome = Pending then
      match Net.recv_frame_ex t.conn with
      | Net.Frame frame ->
        handle_frame t frame;
        drain ()
      | Net.Awaiting -> if Int64.compare (now t) t.deadline_ns >= 0 then on_deadline t
      | Net.Closed_by_peer -> on_peer_closed t "mesh attester: stream ended mid-protocol"
      | Net.Frame_violation e ->
        if t.phase = Resume_await then fall_back t
        else abort t (P.Malformed (Format.asprintf "frame: %a" Net.pp_frame_error e))
  in
  drain ()
