(* End-to-end WaTZ runtime tests: launching Wasm in the secure world,
   WASI bound to the GP API, startup measurement, heap budgets, and the
   full remote-attestation flow driven from inside a Wasm application
   through WASI-RA (the paper's Fig. 2 scenario). *)

open Watz_wasmc.Minic
open Watz_wasmc.Minic.Dsl
module Runtime = Watz.Runtime
module Wamr = Watz.Wamr
module Verifier_app = Watz.Verifier_app
module P = Watz_attest.Protocol

let booted_soc seed =
  let soc = Watz_tz.Soc.manufacture ~seed () in
  (match Watz_tz.Soc.boot soc with Ok _ -> () | Error _ -> assert false);
  soc

(* A hello-world WASI app: writes to stdout with fd_write via an iovec. *)
let hello_app () =
  let wasi = "wasi_snapshot_preview1" in
  let msg = "hello from the secure world\n" in
  Dsl.program
    ~imports:
      [ { i_module = wasi; i_name = "fd_write"; i_params = [ I32; I32; I32; I32 ]; i_ret = Some I32 } ]
    ~data:[ (64, msg) ]
    [
      fn "_start" [] None
        [
          (* iovec at 16: ptr=64, len=|msg| *)
          i32_set (i 0) (i 4) (i 64);
          i32_set (i 0) (i 5) (i (String.length msg));
          ExprS (calle "fd_write" [ i 1; i 16; i 1; i 32 ]);
          ret_void;
        ];
    ]

let test_hello_watz () =
  let soc = booted_soc "dev" in
  let bytes = compile_to_bytes (hello_app ()) in
  let app = Runtime.load soc bytes in
  Alcotest.(check string) "stdout captured" "hello from the secure world\n" (Runtime.output app);
  Alcotest.(check int) "claim is a sha256" 32 (String.length (Runtime.claim app));
  Runtime.unload app

let test_hello_wamr_same_binary () =
  let soc = booted_soc "dev" in
  let bytes = compile_to_bytes (hello_app ()) in
  let app = Wamr.load soc bytes in
  Alcotest.(check string) "same output in normal world" "hello from the secure world\n"
    (Wamr.output app)

let test_claim_matches_measure () =
  let soc = booted_soc "dev" in
  let bytes = compile_to_bytes (hello_app ()) in
  let app = Runtime.load soc bytes in
  Alcotest.(check string) "claim = measure" (Watz_util.Hex.encode (Runtime.measure bytes))
    (Watz_util.Hex.encode (Runtime.claim app));
  Runtime.unload app

let test_startup_breakdown_sane () =
  let soc = booted_soc "dev" in
  let bytes = compile_to_bytes (hello_app ()) in
  let app = Runtime.load soc bytes in
  let s = app.Runtime.startup in
  Alcotest.(check (float 0.0)) "transition is the simulated 86 us" 86_000.0 s.Runtime.transition_ns;
  let non_negative x = Stdlib.( >= ) x 0.0 in
  Alcotest.(check bool) "all phases non-negative" true
    (List.for_all non_negative
       [ s.Runtime.alloc_ns; s.Runtime.hash_ns; s.Runtime.load_ns; s.Runtime.instantiate_ns ]);
  Alcotest.(check bool) "total covers phases" true (Stdlib.( > ) (Runtime.total_ns s) 86_000.0);
  Runtime.unload app

let test_invoke_export () =
  let soc = booted_soc "dev" in
  let p =
    Dsl.program
      [ fn "double" [ ("x", I32) ] (Some I32) [ ret (v "x" * i 2) ] ]
  in
  let app = Runtime.load ~entry:None soc (compile_to_bytes p) in
  (match Runtime.invoke app "double" [ Watz_wasm.Ast.VI32 21l ] with
  | [ Watz_wasm.Ast.VI32 42l ] -> ()
  | _ -> Alcotest.fail "bad result");
  Runtime.unload app

let test_wasm_clock_via_wasi () =
  let soc = booted_soc "dev" in
  let wasi = "wasi_snapshot_preview1" in
  let p =
    Dsl.program
      ~imports:
        [ { i_module = wasi; i_name = "clock_time_get"; i_params = [ I32; I64; I32 ]; i_ret = Some I32 } ]
      [
        fn "gettime" [] (Some I64)
          [
            ExprS (calle "clock_time_get" [ i 0; LongE 1L; i 8 ]);
            ret (LoadE (I64, i 8));
          ];
      ]
  in
  let app = Runtime.load ~entry:None soc (compile_to_bytes p) in
  let before = Watz_tz.Soc.now_ns soc in
  let t1 =
    match Runtime.invoke app "gettime" [] with
    | [ Watz_wasm.Ast.VI64 t ] -> t
    | _ -> Alcotest.fail "bad result"
  in
  (* Wasm clock read inside the TEE costs the RPC (10 us) + WASI
     dispatch (3 us): Fig. 3a's ~13 us. *)
  Alcotest.(check bool) "13 us charged" true (Stdlib.( >= ) (Int64.sub t1 before) 13_000L);
  Runtime.unload app

let test_heap_budget_enforced () =
  let soc = booted_soc "dev" in
  (* App declares 2 pages but tries to grow to 100 pages; the TA heap
     budget (256 kB) must make grow fail (return -1), not crash. *)
  let p =
    Dsl.program ~mem_pages:2
      [ fn "grow" [ ("pages", I32) ] (Some I32) [ ret (MemGrowE (v "pages")) ] ]
  in
  let config = { Runtime.default_config with Runtime.heap_bytes = 262144 } in
  let app = Runtime.load ~config ~entry:None soc (compile_to_bytes p) in
  (match Runtime.invoke app "grow" [ Watz_wasm.Ast.VI32 100l ] with
  | [ Watz_wasm.Ast.VI32 r ] -> Alcotest.(check int32) "grow fails" (-1l) r
  | _ -> Alcotest.fail "bad result");
  (match Runtime.invoke app "grow" [ Watz_wasm.Ast.VI32 1l ] with
  | [ Watz_wasm.Ast.VI32 r ] -> Alcotest.(check int32) "small grow ok" 2l r
  | _ -> Alcotest.fail "bad result");
  Runtime.unload app

let test_oversized_binary_rejected () =
  let soc = booted_soc "dev" in
  (* > 9 MB cannot be staged through shared memory. *)
  let huge = String.make 10485760 'x' in
  match Runtime.load soc huge with
  | _ -> Alcotest.fail "10 MB staged through a 9 MB pool"
  | exception Watz_tz.Optee.Out_of_memory _ -> ()

let test_trap_is_contained () =
  let soc = booted_soc "dev" in
  let p =
    Dsl.program
      [ fn "crash" [] (Some I32) [ ret (i 1 / i 0) ] ]
  in
  let app = Runtime.load ~entry:None soc (compile_to_bytes p) in
  (match Runtime.invoke app "crash" [] with
  | _ -> Alcotest.fail "trap did not propagate"
  | exception Runtime.App_trap _ -> ());
  (* The runtime and the TEE survive the sandboxed fault. *)
  (match Runtime.invoke app "crash" [] with
  | _ -> Alcotest.fail "trap did not propagate"
  | exception Runtime.App_trap _ -> ());
  Runtime.unload app

(* A trap in the [_start] a launch runs is the app's trap, on both
   runtimes and both tiers, like a trap in any later invoke; a missing
   export is [Not_found] on both. *)
let test_start_trap_is_app_trap () =
  let module B = Watz_wasm.Builder in
  let b = B.create () in
  let start = B.func b ~params:[] ~results:[] ~locals:[] [ Watz_wasm.Ast.Unreachable ] in
  B.export_func b "_start" start;
  let bytes = Watz_wasm.Encode.encode (B.build b) in
  let soc = booted_soc "dev" in
  List.iter
    (fun tier ->
      let what = "tier " ^ Watz.Engine.tier_name tier in
      let trap = "unreachable executed" in
      (match Runtime.load ~config:{ Runtime.default_config with Runtime.tier } soc bytes with
      | _ -> Alcotest.fail ("WaTZ launched a trapping _start on " ^ what)
      | exception Runtime.App_trap m -> Alcotest.(check string) ("WaTZ, " ^ what) trap m);
      (match Wamr.load ~tier soc bytes with
      | _ -> Alcotest.fail ("WAMR launched a trapping _start on " ^ what)
      | exception Wamr.App_trap m -> Alcotest.(check string) ("WAMR, " ^ what) trap m);
      let app = Wamr.load ~tier ~entry:None soc bytes in
      (match Wamr.invoke app "_start" [] with
      | _ -> Alcotest.fail ("WAMR invoked a trapping _start on " ^ what)
      | exception Wamr.App_trap _ -> ());
      match Wamr.invoke app "missing" [] with
      | _ -> Alcotest.fail ("WAMR invoked a missing export on " ^ what)
      | exception Not_found -> ())
    [ Runtime.Interp; Runtime.Fast ]

(* An app whose [_start] recurses without end traps at the call-depth
   bound on both tiers, within a second, and its failed launch gives
   back its TEE memory like any other. *)
let test_recursing_start_traps () =
  let module B = Watz_wasm.Builder in
  let b = B.create () in
  let start = B.func b ~params:[] ~results:[] ~locals:[] [ Watz_wasm.Ast.Call 0 ] in
  B.export_func b "_start" start;
  let bytes = Watz_wasm.Encode.encode (B.build b) in
  let soc = booted_soc "dev" in
  let os = Watz_tz.Soc.optee soc in
  let pools () = (os.Watz_tz.Optee.heap_pool.used, os.Watz_tz.Optee.shm_pool.used) in
  let before = pools () in
  List.iter
    (fun tier ->
      let what = "tier " ^ Watz.Engine.tier_name tier in
      let t0 = Sys.time () in
      (match Runtime.load ~config:{ Runtime.default_config with Runtime.tier } soc bytes with
      | _ -> Alcotest.fail ("WaTZ launched a recursing _start on " ^ what)
      | exception Runtime.App_trap m -> Alcotest.(check string) what "call stack exhausted" m);
      let seconds = Sys.time () -. t0 in
      Alcotest.(check bool) (Printf.sprintf "%s: trapped in %.3f s (< 1 s)" what seconds) true
        Stdlib.(seconds < 1.0);
      Alcotest.(check (pair int int)) (what ^ ": heap and shared pools restored") before (pools ()))
    [ Runtime.Interp; Runtime.Fast ]

(* A failed launch gives back everything it took from the TEE. At 2 MB
   of TA heap per session, 13 leaked sessions leave the 27 MB heap pool
   no room for a 14th, and three leaked 3 MB staging buffers fill the
   9 MB shared pool; after either, no module could launch on the board. *)
let test_failed_launch_releases_tee_memory () =
  let soc = booted_soc "dev" in
  let trace = Watz_obs.Trace.create () in
  Watz_tz.Soc.attach_tracer soc trace;
  let os = Watz_tz.Soc.optee soc in
  let pools () = (os.Watz_tz.Optee.heap_pool.used, os.Watz_tz.Optee.shm_pool.used) in
  let before = pools () in
  for _ = 1 to 20 do
    match Runtime.load soc "\x00asm\x01\x00\x00\x00\x01\xff" with
    | _ -> Alcotest.fail "malformed module launched"
    | exception Watz_wasm.Decode.Malformed _ -> ()
  done;
  (* Over the default 2 MB TA heap, under the 9 MB shared pool. *)
  let oversized = String.make 3_145_728 '\000' in
  for _ = 1 to 4 do
    match Runtime.load soc oversized with
    | _ -> Alcotest.fail "3 MB module fit a 2 MB heap"
    | exception Watz_tz.Optee.Out_of_memory _ -> ()
  done;
  let trapping = Dsl.program [ fn "_start" [] None [ ExprS (i 1 / i 0); ret_void ] ] in
  (match Runtime.load soc (compile_to_bytes trapping) with
  | _ -> Alcotest.fail "trapping _start launched"
  | exception Watz_wasm.Instance.Trap _ -> ());
  Alcotest.(check (pair int int)) "heap and shared pools restored" before (pools ());
  let loads kind =
    List.length
      (List.filter
         (fun (e : Watz_obs.Trace.event) ->
           Stdlib.(e.Watz_obs.Trace.kind = kind && String.equal e.Watz_obs.Trace.name "runtime.load"))
         (Watz_obs.Trace.events trace))
  in
  Alcotest.(check int) "every runtime.load span ended" (loads Watz_obs.Trace.Begin)
    (loads Watz_obs.Trace.End);
  let app = Runtime.load soc (compile_to_bytes (hello_app ())) in
  Alcotest.(check string) "a valid module still launches" "hello from the secure world\n"
    (Runtime.output app);
  Runtime.unload app

(* Two launches of the same bytes share nothing but the board: each
   measures the bytecode itself and owns its linear memory (the sandbox
   boundary). *)
let test_launches_are_independent () =
  let soc = booted_soc "dev" in
  let p =
    Dsl.program
      [
        fn "put" [ ("x", I32) ] None [ StoreS (I32, i 64, v "x"); ret_void ];
        fn "get" [] (Some I32) [ ret (LoadE (I32, i 64)) ];
      ]
  in
  let bytes = compile_to_bytes p in
  let a = Runtime.load ~entry:None soc bytes and b = Runtime.load ~entry:None soc bytes in
  let claim = Watz_util.Hex.encode (Runtime.measure bytes) in
  Alcotest.(check string) "first claim" claim (Watz_util.Hex.encode (Runtime.claim a));
  Alcotest.(check string) "second claim" claim (Watz_util.Hex.encode (Runtime.claim b));
  ignore (Runtime.invoke a "put" [ Watz_wasm.Ast.VI32 42l ]);
  let get app =
    match Runtime.invoke app "get" [] with
    | [ Watz_wasm.Ast.VI32 x ] -> x
    | _ -> Alcotest.fail "bad result"
  in
  Alcotest.(check int32) "store visible to its own app" 42l (get a);
  Alcotest.(check int32) "store invisible to the other app" 0l (get b);
  Runtime.unload a;
  Runtime.unload b

(* ------------------------------------------------------------------ *)
(* WASI-RA end to end *)

(* Memory layout of the attester app:
   1024: verifier identity key (65 bytes, via data segment => measured)
   2048: anchor (32, out)   2100: ctx handle   2104: quote handle
   2108: blob length        4096: received blob *)
let attester_app ~verifier_key ~port =
  Dsl.program ~imports:Watz_wasi.Wasi_ra.minic_imports ~mem_pages:2
    ~data:[ (1024, verifier_key) ]
    [
      fn "attest" [] (Some I32)
        [
          DeclS ("rc", I32, Some (calle "net_handshake" [ i port; i 1024; i 2100; i 2048 ]));
          if_ (v "rc" <> i 0) [ ret (i 100 + v "rc") ] [];
          set "rc" (calle "collect_quote" [ i 2048; i 32; i 2104 ]);
          if_ (v "rc" <> i 0) [ ret (i 200 + v "rc") ] [];
          set "rc" (calle "net_send_quote" [ LoadE (I32, i 2100); LoadE (I32, i 2104) ]);
          if_ (v "rc" <> i 0) [ ret (i 300 + v "rc") ] [];
          set "rc" (calle "net_receive_data" [ LoadE (I32, i 2100); i 4096; i 65536; i 2108 ]);
          if_ (v "rc" <> i 0) [ ret (i 400 + v "rc") ] [];
          ExprS (calle "dispose_quote" [ LoadE (I32, i 2104) ]);
          ExprS (calle "net_dispose" [ LoadE (I32, i 2100) ]);
          ret (i 0);
        ];
      fn "blob_len" [] (Some I32) [ ret (LoadE (I32, i 2108)) ];
      fn "blob_byte" [ ("k", I32) ] (Some I32)
        [ ret (LoadPackedE (W8, false, i 4096 + v "k")) ];
    ]

let ra_setup ?(secret = "iris dataset bytes") ?(tamper = false) () =
  let soc = booted_soc "dev" in
  let service = Watz_attest.Service.install (Watz_tz.Soc.optee soc) in
  let policy0 =
    P.Verifier.make_policy ~identity_seed:"relying-party"
      ~endorsed_keys:[ Watz_attest.Service.public_key service ]
      ~reference_claims:[] ~secret_blob:secret ()
  in
  let verifier_key = Watz_crypto.P256.encode policy0.P.Verifier.identity_pub in
  let port = 4433 in
  let bytes = compile_to_bytes (attester_app ~verifier_key ~port) in
  let reference = if tamper then [ Watz_crypto.Sha256.digest "something-else" ] else [ Runtime.measure bytes ] in
  let policy = { policy0 with P.Verifier.reference_claims = reference } in
  let server = Verifier_app.start soc ~port ~policy in
  let config =
    { Runtime.default_config with Runtime.pump = (fun () -> Verifier_app.step server) }
  in
  let app = Runtime.load ~config ~entry:None soc bytes in
  (soc, server, app)

let server_counter server name =
  Option.value ~default:0 (List.assoc_opt name (Verifier_app.counters server))

let test_wasi_ra_end_to_end () =
  let secret = "iris dataset bytes" in
  let _soc, server, app = ra_setup ~secret () in
  (match Runtime.invoke app "attest" [] with
  | [ Watz_wasm.Ast.VI32 0l ] -> ()
  | [ Watz_wasm.Ast.VI32 rc ] -> Alcotest.failf "attest failed with %ld" rc
  | _ -> Alcotest.fail "bad result");
  Alcotest.(check int) "verifier served one attestation" 1
    (server_counter server "sessions_completed");
  (match Runtime.invoke app "blob_len" [] with
  | [ Watz_wasm.Ast.VI32 n ] -> Alcotest.(check int32) "blob length" (Int32.of_int (String.length secret)) n
  | _ -> Alcotest.fail "bad result");
  (* Check the blob content byte by byte from inside the sandbox. *)
  String.iteri
    (fun k c ->
      match Runtime.invoke app "blob_byte" [ Watz_wasm.Ast.VI32 (Int32.of_int k) ] with
      | [ Watz_wasm.Ast.VI32 b ] -> Alcotest.(check int32) "blob byte" (Int32.of_int (Char.code c)) b
      | _ -> Alcotest.fail "bad result")
    secret;
  Runtime.unload app

let test_wasi_ra_rejects_tampered_app () =
  (* The verifier knows a different reference measurement: msg2 must be
     rejected and the app must never receive the secret. *)
  let _soc, server, app = ra_setup ~tamper:true () in
  (match Runtime.invoke app "attest" [] with
  | [ Watz_wasm.Ast.VI32 rc ] ->
    Alcotest.(check bool) "attest fails at receive" true (Stdlib.( >= ) (Int32.to_int rc) 400)
  | _ -> Alcotest.fail "bad result");
  Alcotest.(check int) "verifier rejected" 1 (server_counter server "sessions_aborted");
  (match Verifier_app.last_error server with
  | Some P.Unknown_measurement -> ()
  | Some e -> Alcotest.failf "wrong rejection: %a" P.pp_error e
  | None -> Alcotest.fail "no rejection recorded");
  Runtime.unload app

let test_wasi_ra_connection_refused () =
  (* No verifier listening: handshake must fail with an errno, not hang. *)
  let soc = booted_soc "dev" in
  ignore (Watz_attest.Service.install (Watz_tz.Soc.optee soc));
  let _, pub = Watz_crypto.Ecdsa.keypair_of_seed "nobody" in
  let bytes =
    compile_to_bytes (attester_app ~verifier_key:(Watz_crypto.P256.encode pub) ~port:5555)
  in
  let app = Runtime.load ~entry:None soc bytes in
  (match Runtime.invoke app "attest" [] with
  | [ Watz_wasm.Ast.VI32 rc ] -> Alcotest.(check bool) "handshake errno" true (Stdlib.( > ) (Int32.to_int rc) 100)
  | _ -> Alcotest.fail "bad result");
  Runtime.unload app

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Execution tiers *)

let compute_app () =
  Dsl.program
    [
      fn "run" [ ("n", I32) ] (Some I32)
        [
          decl "s" I32 (i 0);
          for_ "k" (i 0) (v "n") [ set "s" (v "s" + (v "k" * v "k")) ];
          ret (v "s");
        ];
    ]

let test_all_tiers_agree () =
  let soc = booted_soc "dev" in
  let bytes = compile_to_bytes (compute_app ()) in
  let run tier =
    let config = { Runtime.default_config with Runtime.tier } in
    let app = Runtime.load ~config ~entry:None soc bytes in
    let r = Runtime.invoke app "run" [ Watz_wasm.Ast.VI32 1000l ] in
    Alcotest.(check string) "tier recorded" (Watz.Engine.tier_name tier)
      (Watz.Engine.tier_name app.Runtime.tier);
    Runtime.unload app;
    r
  in
  match List.map run Watz.Engine.all_tiers with
  | [ a; b ] -> Alcotest.(check bool) "interp = fast" true (Stdlib.( = ) a b)
  | _ -> Alcotest.fail "expected two tiers"

let suite =
  [
    ( "runtime.launch",
      [
        case "hello world in WaTZ" test_hello_watz;
        case "same binary under WAMR" test_hello_wamr_same_binary;
        case "claim matches measure" test_claim_matches_measure;
        case "startup breakdown sane" test_startup_breakdown_sane;
        case "invoke export" test_invoke_export;
        case "WASI clock costs" test_wasm_clock_via_wasi;
        case "heap budget enforced" test_heap_budget_enforced;
        case "oversized binary rejected" test_oversized_binary_rejected;
        case "traps contained by sandbox" test_trap_is_contained;
        case "a trap in _start is App_trap on both runtimes" test_start_trap_is_app_trap;
        case "failed launches release TEE memory" test_failed_launch_releases_tee_memory;
        case "a recursing _start is App_trap and gives back its TEE memory" test_recursing_start_traps;
        case "launches of the same bytes are independent" test_launches_are_independent;
      ] );
    ( "runtime.tiers",
      [
        case "all tiers agree" test_all_tiers_agree;
      ] );
    ( "runtime.wasi_ra",
      [
        case "end-to-end attestation from Wasm" test_wasi_ra_end_to_end;
        case "tampered app rejected" test_wasi_ra_rejects_tampered_app;
        case "connection refused surfaces" test_wasi_ra_connection_refused;
      ] );
  ]
