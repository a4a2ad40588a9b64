(** WASI-RA: the paper's WASI extension for remote attestation (§V).

    Exposes the functions that let a hosted Wasm application drive the
    attestation flow, with evidence generation deliberately decoupled
    from the transport:

    - [collect_quote] / [dispose_quote] — issue evidence for an anchor
      through the kernel attestation service (returned as an opaque
      handle, readable with [quote_len]/[quote_read]);
    - [net_handshake] — connect to a verifier, exchange msg0/msg1,
      yielding a context handle and the 32-byte session anchor;
    - [net_send_quote] — send msg2 built from a collected quote;
    - [net_receive_data] — receive and decrypt the msg3 secret blob;
    - [net_dispose] — tear the context down.

    All socket traffic crosses to the normal-world supplicant; a [pump]
    callback lets the embedder run the normal-world verifier listener
    between secure-world steps (the simulator's stand-in for OS
    scheduling). *)

module T = Watz_wasm.Types
module A = Watz_wasm.Ast
module Mem = Watz_wasm.Instance.Memory

let errno_inval = 28
let errno_badhandle = 8
let errno_proto = 71
let errno_conn = 61
let errno_again = 6

type ra_session = {
  attester : Watz_attest.Protocol.Attester.t;
  conn : Watz_tz.Net.conn;
  anchor : string;
  mutable blob : string option;
}

type env = {
  os : Watz_tz.Optee.t;
  claim : string; (* measurement of the running Wasm app, set by the runtime *)
  random : int -> string;
  pump : unit -> unit;
  quotes : (int, string) Hashtbl.t;
  sessions : (int, ra_session) Hashtbl.t;
  mutable next_handle : int;
  wasi : Wasi.env;
}

let make_env ~os ~claim ~random ?(pump = fun () -> ()) wasi =
  {
    os;
    claim;
    random;
    pump;
    quotes = Hashtbl.create 4;
    sessions = Hashtbl.create 4;
    next_handle = 1;
    wasi;
  }

let memory env = Wasi.memory env.wasi
let i32_arg = Wasi.i32_arg
let errno e = [ A.VI32 (Int32.of_int e) ]
let ok = [ A.VI32 0l ]

let fresh_handle env =
  let h = env.next_handle in
  env.next_handle <- h + 1;
  h

let issue env ~anchor =
  Watz_attest.Evidence.encode
    (Watz_attest.Service.request_issue env.os ~anchor ~claim:env.claim)

(* wasi_ra_collect_quote(anchor_ptr, anchor_len, handle_out) *)
let collect_quote env args =
  let mem = memory env in
  let anchor_ptr = i32_arg args 0 and anchor_len = i32_arg args 1 in
  if anchor_len <> 32 then errno errno_inval
  else begin
    let anchor = Mem.load_string mem anchor_ptr 32 in
    let evidence = issue env ~anchor in
    let h = fresh_handle env in
    Hashtbl.replace env.quotes h evidence;
    Mem.store32 mem (i32_arg args 2) (Int32.of_int h);
    ok
  end

let dispose_quote env args =
  let h = i32_arg args 0 in
  if Hashtbl.mem env.quotes h then begin
    Hashtbl.remove env.quotes h;
    ok
  end
  else errno errno_badhandle

(* wasi_ra_quote_len(handle, len_out) *)
let quote_len env args =
  match Hashtbl.find_opt env.quotes (i32_arg args 0) with
  | None -> errno errno_badhandle
  | Some q ->
    Mem.store32 (memory env) (i32_arg args 1) (Int32.of_int (String.length q));
    ok

(* wasi_ra_quote_read(handle, buf, buf_len) *)
let quote_read env args =
  match Hashtbl.find_opt env.quotes (i32_arg args 0) with
  | None -> errno errno_badhandle
  | Some q ->
    if i32_arg args 2 < String.length q then errno errno_inval
    else begin
      Mem.store_string (memory env) (i32_arg args 1) q;
      ok
    end

(* Pump the normal world until a frame arrives (bounded, to fail
   rather than spin forever on a dead peer). Transport failures come
   back as errnos: a violated frame is a protocol error, a vanished
   peer a connection error, a mere stall "try again". *)
let recv_with_pump env conn =
  let rec go tries =
    if tries = 0 then Error errno_again
    else
      match Watz_tz.Optee.socket_recv env.os conn with
      | Some frame -> Ok frame
      | exception Watz_tz.Net.Bad_frame _ -> Error errno_proto
      | None ->
        if Watz_tz.Net.peer_closed conn && Watz_tz.Net.available conn = 0 then
          Error errno_conn
        else begin
          env.pump ();
          go (tries - 1)
        end
  in
  go 64

(* wasi_ra_net_handshake(port, verifier_key_ptr, ctx_out, anchor_out) *)
let net_handshake env args =
  let mem = memory env in
  let port = i32_arg args 0 in
  let key_raw = Mem.load_string mem (i32_arg args 1) 65 in
  match Watz_crypto.P256.decode key_raw with
  | None -> errno errno_inval
  | Some expected_verifier -> (
    match Watz_tz.Optee.socket_connect env.os ~port with
    | exception Watz_tz.Net.Refused _ -> errno errno_conn
    | conn -> (
      let attester =
        (* Trace the WASI-RA handshake under the board's tracer, using
           the fresh handle number as the session correlation id. *)
        Watz_attest.Protocol.Attester.create
          ~trace:(Watz_tz.Simclock.tracer env.os.Watz_tz.Optee.clock)
          ~sid:env.next_handle ~random:env.random ~expected_verifier ()
      in
      let m0 = Watz_attest.Protocol.Attester.msg0 attester in
      match Watz_tz.Optee.socket_send env.os conn m0 with
      | exception Watz_tz.Net.Peer_closed -> errno errno_conn
      | () -> (
      env.pump ();
      match recv_with_pump env conn with
      | Error e -> errno e
      | Ok m1 -> (
        match Watz_attest.Protocol.Attester.handle_msg1 attester m1 with
        | Error _ -> errno errno_proto
        | Ok anchor ->
          let h = fresh_handle env in
          Hashtbl.replace env.sessions h { attester; conn; anchor; blob = None };
          Mem.store32 mem (i32_arg args 2) (Int32.of_int h);
          Mem.store_string mem (i32_arg args 3) anchor;
          ok))))

(* wasi_ra_net_send_quote(ctx, quote_handle) *)
let net_send_quote env args =
  match
    ( Hashtbl.find_opt env.sessions (i32_arg args 0),
      Hashtbl.find_opt env.quotes (i32_arg args 1) )
  with
  | None, _ | _, None -> errno errno_badhandle
  | Some session, Some evidence -> (
    match Watz_attest.Protocol.Attester.msg2 session.attester ~evidence with
    | Error _ -> errno errno_proto
    | Ok m2 -> (
      match Watz_tz.Optee.socket_send env.os session.conn m2 with
      | exception Watz_tz.Net.Peer_closed -> errno errno_conn
      | () ->
        env.pump ();
        ok))

(* wasi_ra_net_data_len(ctx, len_out): receive msg3 if needed, report
   the decrypted blob's size. *)
let receive_blob env session =
  match session.blob with
  | Some b -> Ok b
  | None -> (
    match recv_with_pump env session.conn with
    | Error e -> Error e
    | Ok m3 -> (
      match Watz_attest.Protocol.Attester.handle_msg3 session.attester m3 with
      | Error _ -> Error errno_proto
      | Ok blob ->
        session.blob <- Some blob;
        Ok blob))

let net_data_len env args =
  match Hashtbl.find_opt env.sessions (i32_arg args 0) with
  | None -> errno errno_badhandle
  | Some session -> (
    match receive_blob env session with
    | Error e -> errno e
    | Ok blob ->
      Mem.store32 (memory env) (i32_arg args 1) (Int32.of_int (String.length blob));
      ok)

(* wasi_ra_net_receive_data(ctx, buf, buf_len, nread_out) *)
let net_receive_data env args =
  match Hashtbl.find_opt env.sessions (i32_arg args 0) with
  | None -> errno errno_badhandle
  | Some session -> (
    match receive_blob env session with
    | Error e -> errno e
    | Ok blob ->
      let mem = memory env in
      if i32_arg args 2 < String.length blob then errno errno_inval
      else begin
        Mem.store_string mem (i32_arg args 1) blob;
        Mem.store32 mem (i32_arg args 3) (Int32.of_int (String.length blob));
        ok
      end)

let net_dispose env args =
  let h = i32_arg args 0 in
  match Hashtbl.find_opt env.sessions h with
  | None -> errno errno_badhandle
  | Some session ->
    Watz_tz.Net.close session.conn;
    Hashtbl.remove env.sessions h;
    ok

let module_name = "wasi_ra"
let i = T.I32

let bindings_for env : (string * T.valtype list * T.valtype list * (A.value array -> A.value list)) list =
  [
    ("collect_quote", [ i; i; i ], [ i ], collect_quote env);
    ("dispose_quote", [ i ], [ i ], dispose_quote env);
    ("quote_len", [ i; i ], [ i ], quote_len env);
    ("quote_read", [ i; i; i ], [ i ], quote_read env);
    ("net_handshake", [ i; i; i; i ], [ i ], net_handshake env);
    ("net_send_quote", [ i; i ], [ i ], net_send_quote env);
    ("net_data_len", [ i; i ], [ i ], net_data_len env);
    ("net_receive_data", [ i; i; i; i ], [ i ], net_receive_data env);
    ("net_dispose", [ i ], [ i ], net_dispose env);
  ]

let interp_imports env =
  List.map
    (fun (name, params, results, impl) ->
      ( module_name,
        name,
        Watz_wasm.Instance.Extern_func
          (Watz_wasm.Instance.host_func ~name ~params ~results impl) ))
    (bindings_for env)

let fast_imports env : Watz_wasm.Fastinterp.import_binding list =
  List.map
    (fun (name, params, results, impl) ->
      Watz_wasm.Fastinterp.host ~module_:module_name ~name ~params ~results impl)
    (bindings_for env)

(** MiniC import declarations matching {!bindings_for}, for apps that
    use the attestation API. *)
let minic_imports : Watz_wasmc.Minic.import_decl list =
  let ii = Watz_wasmc.Minic.I32 in
  [
    { i_module = module_name; i_name = "collect_quote"; i_params = [ ii; ii; ii ]; i_ret = Some ii };
    { i_module = module_name; i_name = "dispose_quote"; i_params = [ ii ]; i_ret = Some ii };
    { i_module = module_name; i_name = "quote_len"; i_params = [ ii; ii ]; i_ret = Some ii };
    { i_module = module_name; i_name = "quote_read"; i_params = [ ii; ii; ii ]; i_ret = Some ii };
    { i_module = module_name; i_name = "net_handshake"; i_params = [ ii; ii; ii; ii ]; i_ret = Some ii };
    { i_module = module_name; i_name = "net_send_quote"; i_params = [ ii; ii ]; i_ret = Some ii };
    { i_module = module_name; i_name = "net_data_len"; i_params = [ ii; ii ]; i_ret = Some ii };
    { i_module = module_name; i_name = "net_receive_data"; i_params = [ ii; ii; ii; ii ]; i_ret = Some ii };
    { i_module = module_name; i_name = "net_dispose"; i_params = [ ii ]; i_ret = Some ii };
  ]
