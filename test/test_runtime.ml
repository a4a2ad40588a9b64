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

let test_wasi_ra_end_to_end () =
  let secret = "iris dataset bytes" in
  let _soc, server, app = ra_setup ~secret () in
  (match Runtime.invoke app "attest" [] with
  | [ Watz_wasm.Ast.VI32 0l ] -> ()
  | [ Watz_wasm.Ast.VI32 rc ] -> Alcotest.failf "attest failed with %ld" rc
  | _ -> Alcotest.fail "bad result");
  Alcotest.(check int) "verifier served one attestation" 1 server.Verifier_app.served;
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
  Alcotest.(check int) "verifier rejected" 1 server.Verifier_app.rejected;
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
(* Execution tiers and the measurement-keyed module cache *)

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

let test_module_cache_hits () =
  Runtime.cache_clear ();
  let soc = booted_soc "dev" in
  let bytes = compile_to_bytes (compute_app ()) in
  let config = { Runtime.default_config with Runtime.tier = Runtime.Fast } in
  let app1 = Runtime.load ~config ~entry:None soc bytes in
  Alcotest.(check bool) "first load is a miss" false app1.Runtime.startup.Runtime.cache_hit;
  Alcotest.(check int) "one cached module" 1 (Runtime.cache_size ());
  let app2 = Runtime.load ~config ~entry:None soc bytes in
  Alcotest.(check bool) "second load hits" true app2.Runtime.startup.Runtime.cache_hit;
  Alcotest.(check int) "still one cached module" 1 (Runtime.cache_size ());
  let r1 = Runtime.invoke app1 "run" [ Watz_wasm.Ast.VI32 100l ] in
  let r2 = Runtime.invoke app2 "run" [ Watz_wasm.Ast.VI32 100l ] in
  Alcotest.(check bool) "cached instance agrees" true (Stdlib.( = ) r1 r2);
  (* A different tier is a different cache entry, not a hit. *)
  let interp_config = { Runtime.default_config with Runtime.tier = Runtime.Interp } in
  let app3 = Runtime.load ~config:interp_config ~entry:None soc bytes in
  Alcotest.(check bool) "other tier misses" false app3.Runtime.startup.Runtime.cache_hit;
  Alcotest.(check int) "two cache entries" 2 (Runtime.cache_size ());
  (* The registry-backed stats agree: app1 missed, app2 hit, app3
     (other tier) missed; the measurement memo saw one digest and two
     memo hits for the same bytes. *)
  Alcotest.(check (pair int int)) "module cache stats (hits, misses)" (1, 2)
    (Runtime.module_cache_stats ());
  Alcotest.(check (pair int int)) "measure memo stats (hits, misses)" (2, 1)
    (Runtime.measure_memo_stats ());
  Runtime.unload app1;
  Runtime.unload app2;
  Runtime.unload app3;
  Runtime.cache_clear ();
  Alcotest.(check int) "cache cleared" 0 (Runtime.cache_size ());
  Alcotest.(check (pair int int)) "stats reset with the cache" (0, 0)
    (Runtime.module_cache_stats ())

let test_module_cache_opt_out () =
  Runtime.cache_clear ();
  let soc = booted_soc "dev" in
  let bytes = compile_to_bytes (compute_app ()) in
  let config = { Runtime.default_config with Runtime.use_cache = false } in
  let app1 = Runtime.load ~config ~entry:None soc bytes in
  let app2 = Runtime.load ~config ~entry:None soc bytes in
  Alcotest.(check bool) "no hit without cache" false app2.Runtime.startup.Runtime.cache_hit;
  Alcotest.(check int) "nothing cached" 0 (Runtime.cache_size ());
  Alcotest.(check (pair int int)) "no cache stats recorded" (0, 0)
    (Runtime.module_cache_stats ());
  Runtime.unload app1;
  Runtime.unload app2

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
      ] );
    ( "runtime.tiers",
      [
        case "all tiers agree" test_all_tiers_agree;
        case "module cache hits by measurement" test_module_cache_hits;
        case "cache opt-out" test_module_cache_opt_out;
      ] );
    ( "runtime.wasi_ra",
      [
        case "end-to-end attestation from Wasm" test_wasi_ra_end_to_end;
        case "tampered app rejected" test_wasi_ra_rejects_tampered_app;
        case "connection refused surfaces" test_wasi_ra_connection_refused;
      ] );
  ]
