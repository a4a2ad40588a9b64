(** The verifier server (§V "The server"): a normal-world listener in
    front of a verifier trusted application.

    The GP socket API cannot listen for incoming connections, so the
    paper splits the verifier across worlds: the listener accepts TCP
    connections and relays each message into the TEE, where the
    protocol logic runs; replies travel back out through shared
    buffers. Here, [step] plays the listener's event loop: it accepts
    pending connections and relays complete frames inward, charging a
    world round trip per message exactly as the paper observes
    ("the server of the verifier invokes functions inside the TEE once
    received by the TCP server").

    The server is multi-session: every accepted connection gets its own
    per-connection protocol state in a session table. Sessions survive
    retransmitted messages (answered idempotently from the protocol
    caches), are aborted on the first typed protocol error, and are
    evicted once stalled longer than {!session_timeout_ns} on the
    simulated clock. A metrics registry records everything the storm bench
    reports: sessions started / completed / aborted / evicted,
    retransmits answered, and transport faults observed.

    Extensions ride on the same loop instead of copying it: a
    per-connection {!handler} sees every frame before the msg0–msg2
    handler and may consume it, and may append a trailer to msg3. The
    attested mesh ({!Watz_mesh.Mesh_verifier}) installs its ticket
    resumption and sub-claim paths this way. *)

module P = Watz_attest.Protocol
module Evidence = Watz_attest.Evidence
module T = Watz_obs.Trace
module Metrics = Watz_obs.Metrics
module Net = Watz_tz.Net
module Soc = Watz_tz.Soc

(** A per-connection extension, built when the connection is accepted.
    [on_frame frame] runs before the msg0–msg2 handler and returns
    [true] when it consumed the frame. [augment session evidence]
    returns the trailer sealed into msg3 on the session's first
    acceptance (see {!P.Verifier.handle_msg2}). *)
type handler = {
  on_frame : string -> bool;
  augment : P.Verifier.session -> Evidence.signed -> string;
}

(* The plain server's handler: consumes nothing, appends nothing. One
   shared value, so connections without an extension allocate none. *)
let no_handler = { on_frame = (fun _ -> false); augment = (fun _ _ -> "") }

type conn_state = {
  id : int;
  conn : Net.conn;
  mutable vsession : P.Verifier.session option;
  mutable completed : bool;
  mutable last_activity_ns : int64;
  mutable handler : handler;
}

type t = {
  soc : Soc.t;
  port : int;
  mutable policy : P.Verifier.policy; (* read by each msg0 and by handlers *)
  rng : Watz_util.Prng.t;
  sessions : (int, conn_state) Hashtbl.t;
  mutable next_id : int;
  make_handler : t -> conn_state -> handler;
  metrics : Metrics.t; (* server-side counters, dumped by the storm report *)
  mutable last_err : P.error option;
}

(** Simulated-clock inactivity after which a session is evicted. *)
let session_timeout_ns = 2_000_000_000L

(* The generator of the ECDHE scalars, msg3 IVs and (in the mesh)
   ticket IVs and resumption nonces is seeded from the identity's
   private key, so two verifiers with different identities never draw
   the same stream. Federated mesh shards share one ticket key, and a
   shared stream would seal two tickets under one key and IV. *)
let stream_seed (policy : P.Verifier.policy) =
  let key = Watz_crypto.Ecdsa.private_to_bytes policy.P.Verifier.identity_priv in
  String.get_int64_le (Watz_crypto.Sha256.digest key) 0

(** Start listening. [soc] is the device hosting the verifier (the
    paper co-locates attester and verifier on one board). [handler t
    conn] builds each accepted connection's extension (default: none). *)
let start ?(handler = fun (_ : t) (_ : conn_state) -> no_handler) soc ~port ~policy =
  ignore (Net.listen soc.Soc.net ~port);
  (* Pay the one-time crypto table costs (fixed-base comb, endorsed-key
     windows, identity encoding) at startup, not inside the first
     session's latency. An endorsed key builds its comb later, once it
     has verified {!Watz_crypto.P256.comb_threshold} signatures. *)
  Watz_crypto.P256.prewarm ();
  List.iter Watz_crypto.P256.prepare policy.P.Verifier.endorsed_keys;
  ignore (Watz_crypto.P256.encode policy.P.Verifier.identity_pub);
  {
    soc;
    port;
    policy;
    rng = Watz_util.Prng.create (stream_seed policy);
    sessions = Hashtbl.create 32;
    next_id = 0;
    make_handler = handler;
    metrics = Metrics.create ();
    last_err = None;
  }

let random t n = Watz_util.Prng.bytes t.rng n

(** Counter values, sorted by name (the storm report's "server" rows). *)
let counters t = Metrics.counter_list t.metrics

(** The server's metrics registry, for exporters that want more than
    the counter list. *)
let metrics t = t.metrics
let live_sessions t = Hashtbl.length t.sessions

let abort t state err =
  t.last_err <- Some err;
  Metrics.incr t.metrics "sessions_aborted";
  T.instant (Soc.tracer t.soc) T.Normal ~session:state.id "verifier.abort";
  Net.close state.conn;
  Hashtbl.remove t.sessions state.id

(** Close a connection that is not a failure, counting it under
    [reason]. *)
let drop_session t state reason =
  Metrics.incr t.metrics reason;
  Net.close state.conn;
  Hashtbl.remove t.sessions state.id

(** Reply to the attester; a dead link while answering aborts the
    session instead of escaping the event loop. [false] when the
    session is gone. *)
let reply t state frame =
  match Net.send_frame state.conn frame with
  | () -> true
  | exception Net.Peer_closed ->
    if state.completed then drop_session t state "sessions_closed"
    else abort t state (P.Connection_lost "verifier: peer vanished mid-reply");
    false

(** Traffic against a terminal session: never aborts (the completed
    appraisal stands), never answers. *)
let stray t state =
  Metrics.incr t.metrics "stray_after_complete";
  T.instant (Soc.tracer t.soc) T.Normal ~session:state.id "verifier.stray_after_complete"

(* The msg2 appraisal in the TEE, signature check included. [already]
   is whether the session had completed before this frame was handled:
   an [Ok] then answers a retransmit, an [Error] is stray traffic
   against a terminal session. *)
let appraise t state vsession frame =
  let already = state.completed in
  match
    Soc.smc t.soc (fun () ->
        P.Verifier.handle_msg2 ~augment:(state.handler.augment vsession) vsession
          ~random:(random t) frame)
  with
  | Ok m3 ->
    if already then begin
      Metrics.incr t.metrics "retransmits_answered";
      T.instant (Soc.tracer t.soc) T.Normal ~session:state.id "verifier.retransmit_answered"
    end
    else begin
      state.completed <- true;
      Metrics.incr t.metrics "sessions_completed";
      T.instant (Soc.tracer t.soc) T.Normal ~session:state.id "verifier.accept"
    end;
    ignore (reply t state m3)
  | Error _ when already ->
    (* Anything that is not the byte-exact msg2 retransmit. *)
    stray t state
  | Error e -> abort t state e

let handle_frame t state frame =
  match state.vsession with
  | None -> (
    (* First message on this connection: msg0, handled in the TEE. *)
    match
      Soc.smc t.soc (fun () ->
          P.Verifier.handle_msg0 ~trace:(Soc.tracer t.soc) ~sid:state.id t.policy
            ~random:(random t) frame)
    with
    | Ok (vsession, m1) ->
      state.vsession <- Some vsession;
      ignore (reply t state m1)
    | Error e -> abort t state e)
  | Some vsession ->
    if P.Verifier.is_msg0_retransmit vsession frame then begin
      match P.Verifier.msg1_reply vsession with
      | Some m1 ->
        (* The attester never saw msg1: answer from the session cache. *)
        Metrics.incr t.metrics "retransmits_answered";
        T.instant (Soc.tracer t.soc) T.Normal ~session:state.id "verifier.retransmit_answered";
        ignore (reply t state m1)
      | None ->
        (* Completed sessions are terminal: a late-duplicated msg0 gets
           no reply — answering msg1 here would reopen the finished
           handshake (the resurrection bug). *)
        stray t state
    end
    else appraise t state vsession frame

(** One scheduling quantum of the listener: accept pending connections,
    process every complete frame on every live session, and evict the
    stalled ones. Each frame goes to the connection's {!handler} first
    and to the msg0–msg2 handler only if the extension declined it. *)
let step t =
  let rec accept_all () =
    match Net.accept t.soc.Soc.net ~port:t.port with
    | None -> ()
    | Some conn ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Metrics.incr t.metrics "sessions_started";
      let state =
        {
          id;
          conn;
          vsession = None;
          completed = false;
          last_activity_ns = Soc.now_ns t.soc;
          handler = no_handler;
        }
      in
      state.handler <- t.make_handler t state;
      Hashtbl.replace t.sessions id state;
      accept_all ()
  in
  accept_all ();
  let now = Soc.now_ns t.soc in
  let live = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
  let rec drain state =
    match Net.recv_frame_ex state.conn with
    | Net.Frame frame ->
      state.last_activity_ns <- Soc.now_ns t.soc;
      if not (state.handler.on_frame frame) then handle_frame t state frame;
      if Hashtbl.mem t.sessions state.id then drain state
    | Net.Awaiting ->
      if Int64.sub now state.last_activity_ns > session_timeout_ns then
        if state.completed then drop_session t state "sessions_closed"
        else begin
          Metrics.incr t.metrics "sessions_evicted";
          abort t state (P.Timed_out "verifier: session stalled")
        end
    | Net.Closed_by_peer ->
      (* A clean close after completion; anything earlier is a loss. *)
      if state.completed then drop_session t state "sessions_closed"
      else abort t state (P.Connection_lost "verifier: peer closed mid-protocol")
    | Net.Frame_violation e ->
      Metrics.incr t.metrics "frame_violations";
      abort t state (P.Malformed (Format.asprintf "frame: %a" Net.pp_frame_error e))
  in
  List.iter drain live

(** Most recent failure across connections, for tests asserting
    rejection reasons. *)
let last_error t = t.last_err
