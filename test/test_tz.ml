(* TrustZone/OP-TEE simulator tests: secure boot chain of trust, the
   world-dependent root of trust, memory-pool limits, TA signing
   policy, the executable-pages kernel extension, world-switch cost
   accounting, and the simulated network. *)

open Watz_tz

let fresh_soc () =
  let soc = Soc.manufacture ~seed:"test-device" () in
  (match Soc.boot soc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "boot failed: %a" Boot.pp_boot_error e);
  soc

(* ------------------------------------------------------------------ *)
(* Secure boot *)

let test_boot_succeeds_genuine () =
  let soc = Soc.manufacture ~seed:"dev" () in
  match Soc.boot soc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "genuine chain rejected: %a" Boot.pp_boot_error e

let test_boot_rejects_tampered_stage () =
  List.iter
    (fun stage ->
      let soc = Soc.manufacture ~seed:"dev" () in
      let chain = Boot.tamper_stage (Boot.standard_chain soc.Soc.vendor) ~name:stage in
      match Soc.boot soc ~chain with
      | Ok _ -> Alcotest.failf "tampered %s accepted" stage
      | Error (Boot.Bad_stage_signature s) -> Alcotest.(check string) "failing stage" stage s
      | Error Boot.Bad_vendor_key -> Alcotest.fail "wrong error")
    [ "u-boot-spl"; "arm-trusted-firmware"; "optee-os" ]

let test_boot_rejects_wrong_vendor () =
  let soc = Soc.manufacture ~seed:"dev" () in
  let other_vendor = Boot.vendor_key_of_seed "attacker" in
  let chain = Boot.standard_chain other_vendor in
  (* The attacker signs a whole chain with their own key; the eFused
     hash does not match the genuine vendor key they must present. *)
  match Boot.verify ~fuses:soc.Soc.fuses ~vendor_pub:other_vendor.Boot.vk_pub chain with
  | Ok _ -> Alcotest.fail "foreign vendor key accepted"
  | Error Boot.Bad_vendor_key -> ()
  | Error (Boot.Bad_stage_signature _) -> Alcotest.fail "wrong error"

let test_unbooted_soc_has_no_tee () =
  let soc = Soc.manufacture ~seed:"dev" () in
  match Soc.optee soc with
  | _ -> Alcotest.fail "TEE available before boot"
  | exception Failure _ -> ()

let test_boot_measurement_changes_with_chain () =
  let soc1 = Soc.manufacture ~seed:"dev" () in
  let m1 =
    match Soc.boot soc1 with Ok os -> Optee.Kernel.boot_measurement os | Error _ -> assert false
  in
  let soc2 = Soc.manufacture ~seed:"dev" () in
  let chain =
    Boot.standard_chain soc2.Soc.vendor
    |> List.map (fun img ->
           if String.equal img.Boot.img_name "optee-os" then
             Boot.sign_image soc2.Soc.vendor ~name:"optee-os" ~payload:"trusted kernel 3.14"
           else img)
  in
  let m2 =
    match Soc.boot soc2 ~chain with
    | Ok os -> Optee.Kernel.boot_measurement os
    | Error _ -> assert false
  in
  Alcotest.(check bool) "measurement differs" false (String.equal m1 m2)

(* ------------------------------------------------------------------ *)
(* Fuses and root of trust *)

let test_fuses_one_time_programmable () =
  let f = Fuses.blank () in
  Fuses.program_otpmk f (String.make 32 'k');
  Alcotest.check_raises "reprogram rejected" (Fuses.Already_programmed "OTPMK") (fun () ->
      Fuses.program_otpmk f (String.make 32 'x'))

let test_mkvb_world_separation () =
  let soc = fresh_soc () in
  let os = Soc.optee soc in
  let secure_subkey = Optee.Kernel.derive_subkey os ~label:"watz-attestation-key" in
  let normal_mkvb = Soc.mkvb_as_seen_from_normal_world soc in
  let normal_attempt = Caam.huk_subkey_derive ~mkvb:normal_mkvb ~label:"watz-attestation-key" in
  Alcotest.(check bool) "normal world cannot derive the secure subkey" false
    (String.equal secure_subkey normal_attempt)

let test_mkvb_device_unique () =
  let s1 = fresh_soc () in
  let s2 = Soc.manufacture ~seed:"other-device" () in
  (match Soc.boot s2 with Ok _ -> () | Error _ -> assert false);
  let k1 = Optee.Kernel.derive_subkey (Soc.optee s1) ~label:"x" in
  let k2 = Optee.Kernel.derive_subkey (Soc.optee s2) ~label:"x" in
  Alcotest.(check bool) "devices differ" false (String.equal k1 k2)

let test_mkvb_stable_across_reboots () =
  let soc = Soc.manufacture ~seed:"dev" () in
  let k1 =
    match Soc.boot soc with
    | Ok os -> Optee.Kernel.derive_subkey os ~label:"attest"
    | Error _ -> assert false
  in
  let k2 =
    match Soc.boot soc with
    | Ok os -> Optee.Kernel.derive_subkey os ~label:"attest"
    | Error _ -> assert false
  in
  Alcotest.(check bool) "keys survive OS update/reboot" true (String.equal k1 k2)

(* ------------------------------------------------------------------ *)
(* Memory pools (the paper's 27 MB / 9 MB patched limits) *)

let dummy_ta ?(heap = 1024) soc =
  Soc.sign_ta soc
    {
      Optee.ta_uuid = "test-ta";
      ta_code_id = Watz_crypto.Sha256.digest "test-ta-code";
      ta_signature = None;
      ta_heap_bytes = heap;
      ta_stack_bytes = 1024;
      ta_invoke = (fun _ ~cmd:_ s -> s);
    }

let test_shared_memory_limit () =
  let soc = fresh_soc () in
  let os = Soc.optee soc in
  let shm = Optee.shm_alloc os (8 * 1024 * 1024) in
  (match Optee.shm_alloc os (2 * 1024 * 1024) with
  | _ -> Alcotest.fail "9 MB shared-memory cap not enforced"
  | exception Optee.Out_of_memory _ -> ());
  Optee.shm_free os shm;
  let shm2 = Optee.shm_alloc os (2 * 1024 * 1024) in
  Optee.shm_free os shm2

let test_ta_heap_limit () =
  let soc = fresh_soc () in
  let os = Soc.optee soc in
  (* 27 MB cap across TA heaps. *)
  let ta = dummy_ta ~heap:(26 * 1024 * 1024) soc in
  let s = Optee.open_session os ta in
  (match Optee.open_session os (dummy_ta ~heap:(2 * 1024 * 1024) soc) with
  | _ -> Alcotest.fail "27 MB heap cap not enforced"
  | exception Optee.Out_of_memory _ -> ());
  Optee.close_session s;
  let s2 = Optee.open_session os (dummy_ta ~heap:(2 * 1024 * 1024) soc) in
  Optee.close_session s2

let test_ta_session_heap_accounting () =
  let soc = fresh_soc () in
  let os = Soc.optee soc in
  let s = Optee.open_session os (dummy_ta ~heap:4096 soc) in
  Optee.ta_malloc s 4000;
  (match Optee.ta_malloc s 200 with
  | () -> Alcotest.fail "TA heap overrun allowed"
  | exception Optee.Out_of_memory _ -> ());
  Optee.ta_free s 1000;
  Optee.ta_malloc s 200;
  Optee.close_session s

(* ------------------------------------------------------------------ *)
(* TA deployment policy *)

let test_unsigned_ta_rejected () =
  let soc = fresh_soc () in
  let os = Soc.optee soc in
  let unsigned = { (dummy_ta soc) with Optee.ta_signature = None } in
  match Optee.open_session os unsigned with
  | _ -> Alcotest.fail "unsigned TA accepted"
  | exception Optee.Ta_rejected _ -> ()

let test_mis_signed_ta_rejected () =
  let soc = fresh_soc () in
  let os = Soc.optee soc in
  let ta = dummy_ta soc in
  (* Tamper with the code after signing. *)
  let evil = { ta with Optee.ta_code_id = Watz_crypto.Sha256.digest "evil-code" } in
  match Optee.open_session os evil with
  | _ -> Alcotest.fail "tampered TA accepted"
  | exception Optee.Ta_rejected _ -> ()

let test_exec_pages_extension () =
  let soc = fresh_soc () in
  let os = Soc.optee soc in
  let s = Optee.open_session os (dummy_ta soc) in
  (* With the WaTZ extension (default): fine. *)
  Optee.ta_mprotect_exec s 4096;
  (* Stock OP-TEE: no executable heap pages (GitHub issue #4396). *)
  os.Optee.exec_pages_syscall <- false;
  (match Optee.ta_mprotect_exec s 4096 with
  | () -> Alcotest.fail "exec pages allowed on stock OP-TEE"
  | exception Optee.Access_denied _ -> ());
  Optee.close_session s

(* ------------------------------------------------------------------ *)
(* Clock and transition costs *)

let test_world_switch_costs () =
  let soc = fresh_soc () in
  let before = Soc.now_ns soc in
  let result = Soc.smc soc (fun () -> 42) in
  Alcotest.(check int) "smc result" 42 result;
  let elapsed = Int64.sub (Soc.now_ns soc) before in
  (* 86 us in + 20 us out *)
  Alcotest.(check int64) "transition cost" 106_000L elapsed

let test_secure_time_costs () =
  let soc = fresh_soc () in
  let os = Soc.optee soc in
  let before = Soc.now_ns soc in
  ignore (Optee.ree_time_ns os);
  Alcotest.(check int64) "10 us RPC" 10_000L (Int64.sub (Soc.now_ns soc) before)

let test_time_resolution () =
  let soc = fresh_soc () in
  let os = Soc.optee soc in
  (* Advance by a non-millisecond amount and check ms truncation. *)
  Simclock.advance soc.Soc.clock 1_234_567;
  let ms = Optee.ree_time_ms os in
  let ns = Optee.ree_time_ns os in
  Alcotest.(check bool) "ms resolution truncates" true (Int64.rem ns 1_000_000L <> 0L);
  Alcotest.(check int64) "ms value" (Int64.div ns 1_000_000L) ms

(* ------------------------------------------------------------------ *)
(* GP TEE Client API: the normal world's side of a TA session *)

(* [f ()] and the simulated time it took. *)
let timed soc f =
  let before = Soc.now_ns soc in
  let r = f () in
  (r, Int64.sub (Soc.now_ns soc) before)

let test_ree_session () =
  let soc = fresh_soc () in
  let ctx = Ree.initialize_context soc in
  let echo = dummy_ta soc in
  (* Every session call is one SMC round trip: 86 us in + 20 us out. *)
  let s, t_open = timed soc (fun () -> Ree.open_session ctx echo) in
  Alcotest.(check int64) "open: one world switch" 106_000L t_open;
  let reply, t_invoke = timed soc (fun () -> Ree.invoke_command ctx s ~cmd:3 "ping") in
  Alcotest.(check string) "TA reply" "ping" reply;
  Alcotest.(check int64) "invoke: one world switch" 106_000L t_invoke;
  let (), t_close = timed soc (fun () -> Ree.close_session ctx s) in
  Alcotest.(check int64) "close: one world switch" 106_000L t_close;
  Alcotest.check_raises "invoke after close"
    (Invalid_argument "Optee.invoke_session: session closed") (fun () ->
      ignore (Ree.invoke_command ctx s ~cmd:3 "ping"))

let test_ree_shared_memory () =
  let soc = fresh_soc () in
  let ctx = Ree.initialize_context soc in
  let mib = 1024 * 1024 in
  let shm = Ree.allocate_shared_memory ctx (8 * mib) in
  (match Ree.allocate_shared_memory ctx (2 * mib) with
  | _ -> Alcotest.fail "9 MB shared-memory pool overcommitted"
  | exception Optee.Out_of_memory _ -> ());
  (* The buffer is mapped in both worlds, so writing it is no world switch. *)
  let (), t_write = timed soc (fun () -> Ree.write_shared ctx shm ~off:0 "ping") in
  Alcotest.(check int64) "write: no world switch" 0L t_write;
  Alcotest.(check string) "bytes in the buffer" "ping" (Bytes.sub_string shm.Optee.shm_data 0 4);
  Ree.release_shared_memory ctx shm;
  Ree.release_shared_memory ctx (Ree.allocate_shared_memory ctx (2 * mib))

(* ------------------------------------------------------------------ *)
(* Network *)

let test_net_connect_refused () =
  let net = Net.create () in
  Alcotest.check_raises "refused" (Net.Refused 9999) (fun () ->
      ignore (Net.connect net ~port:9999))

let test_net_roundtrip () =
  let net = Net.create () in
  ignore (Net.listen net ~port:7000);
  let client = Net.connect net ~port:7000 in
  let server =
    match Net.accept net ~port:7000 with Some s -> s | None -> Alcotest.fail "no accept"
  in
  Net.send_frame client "hello";
  Alcotest.(check (option string)) "server receives" (Some "hello") (Net.recv_frame server);
  Alcotest.(check (option string)) "no more frames" None (Net.recv_frame server);
  Net.send_frame server "world";
  Net.send_frame server "again";
  Alcotest.(check (option string)) "client 1" (Some "world") (Net.recv_frame client);
  Alcotest.(check (option string)) "client 2" (Some "again") (Net.recv_frame client)

let test_net_partial_frame () =
  let net = Net.create () in
  ignore (Net.listen net ~port:7001);
  let client = Net.connect net ~port:7001 in
  let server = Option.get (Net.accept net ~port:7001) in
  (* Send a raw prefix shorter than the declared frame. *)
  Net.send client "\x10\x00\x00\x00abc";
  Alcotest.(check (option string)) "incomplete frame invisible" None (Net.recv_frame server);
  Net.send client (String.make 13 'x');
  Alcotest.(check (option string)) "completes" (Some ("abc" ^ String.make 13 'x'))
    (Net.recv_frame server)

(* A caller that never ticks, as the WASI-RA path does not, must not
   keep closed connections alive: each would pin its buffers, a 128 KiB
   msg3 in a provisioning session. Only the last cycle's two pipes may
   remain. *)
let test_net_closed_pipes_forgotten () =
  let net = Net.create () in
  ignore (Net.listen net ~port:7002);
  for _ = 1 to 1000 do
    let client = Net.connect net ~port:7002 in
    let server = Option.get (Net.accept net ~port:7002) in
    Net.send_frame client "msg";
    Alcotest.(check (option string)) "frame" (Some "msg") (Net.recv_frame server);
    Net.close client;
    Net.close server
  done;
  let pipes = List.length net.Net.pipes in
  Alcotest.(check bool) (Printf.sprintf "%d pipes left (<= 2)" pipes) true (pipes <= 2)

(* ------------------------------------------------------------------ *)
(* Random source *)

(* Each board owns its random source: what one board drew does not
   shift another's stream, whether the boards share a domain or not. *)
let test_random_per_board () =
  let hex = Watz_util.Hex.encode in
  let first_32 () = hex (Optee.generate_random (Soc.optee (fresh_soc ())) 32) in
  let a = Soc.optee (fresh_soc ()) in
  let a32 = hex (Optee.generate_random a 32) in
  ignore (Optee.generate_random a 1000);
  Alcotest.(check string) "board B starts where board A started" a32 (first_32 ());
  let d1 = Domain.spawn first_32 and d2 = Domain.spawn first_32 in
  let b1 = Domain.join d1 and b2 = Domain.join d2 in
  Alcotest.(check string) "board on a first domain" a32 b1;
  Alcotest.(check string) "board on a second domain" a32 b2

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "tz.boot",
      [
        case "genuine chain boots" test_boot_succeeds_genuine;
        case "tampered stages rejected" test_boot_rejects_tampered_stage;
        case "foreign vendor key rejected" test_boot_rejects_wrong_vendor;
        case "no TEE before boot" test_unbooted_soc_has_no_tee;
        case "measurement tracks chain" test_boot_measurement_changes_with_chain;
      ] );
    ( "tz.root_of_trust",
      [
        case "fuses are one-time" test_fuses_one_time_programmable;
        case "MKVB world separation" test_mkvb_world_separation;
        case "MKVB device-unique" test_mkvb_device_unique;
        case "MKVB stable across reboots" test_mkvb_stable_across_reboots;
      ] );
    ( "tz.memory",
      [
        case "9 MB shared-memory cap" test_shared_memory_limit;
        case "27 MB TA heap cap" test_ta_heap_limit;
        case "per-session heap accounting" test_ta_session_heap_accounting;
      ] );
    ( "tz.ta_policy",
      [
        case "unsigned TA rejected" test_unsigned_ta_rejected;
        case "tampered TA rejected" test_mis_signed_ta_rejected;
        case "exec-pages kernel extension" test_exec_pages_extension;
      ] );
    ( "tz.clock",
      [
        case "world-switch costs" test_world_switch_costs;
        case "secure time RPC cost" test_secure_time_costs;
        case "ms vs ns resolution" test_time_resolution;
      ] );
    ( "tz.ree",
      [
        case "one world switch per session call" test_ree_session;
        case "shared memory against the 9 MB pool" test_ree_shared_memory;
      ] );
    ("tz.random", [ case "one random source per board" test_random_per_board ]);
    ( "tz.net",
      [
        case "connect refused" test_net_connect_refused;
        case "frame roundtrip" test_net_roundtrip;
        case "partial frames buffered" test_net_partial_frame;
        case "closed connections forgotten without a tick" test_net_closed_pipes_forgotten;
      ] );
  ]
