(* Quickstart: boot a simulated TrustZone board, compile a small
   program to Wasm with MiniC, and run it inside the WaTZ runtime in
   the secure world.

   dune exec examples/quickstart.exe *)

module Minic = Watz_wasmc.Minic
open Watz_wasmc.Minic.Dsl

let () =
  (* 1. Manufacture a device (burns the OTPMK and the vendor boot key
        into eFuses) and boot it through the secure-boot chain. *)
  let soc = Watz_tz.Soc.manufacture ~seed:"quickstart-device" () in
  (match Watz_tz.Soc.boot soc with
  | Ok _ -> print_endline "[boot] secure boot chain verified; OP-TEE running"
  | Error e -> Format.kasprintf failwith "boot failed: %a" Watz_tz.Boot.pp_boot_error e);

  (* 2. Write a program in MiniC and compile it to Wasm. It computes a
        few squares and prints through WASI fd_write. *)
  let message = "hello from Wasm in the secure world!\n" in
  let app =
    Minic.Dsl.program
      ~imports:
        [ { Minic.i_module = "wasi_snapshot_preview1"; i_name = "fd_write";
            i_params = [ Minic.I32; I32; I32; I32 ]; i_ret = Some Minic.I32 } ]
      ~data:[ (64, message) ]
      [
        fn "_start" [] None
          [
            (* iovec at 16 -> (ptr=64, len) *)
            i32_set (i 0) (i 4) (i 64);
            i32_set (i 0) (i 5) (i (String.length message));
            ExprS (calle "fd_write" [ i 1; i 16; i 1; i 32 ]);
            ret_void;
          ];
        fn "square" [ ("x", I32) ] (Some I32) [ ret (v "x" * v "x") ];
      ]
  in
  let wasm_bytes = Minic.compile_to_bytes app in
  Printf.printf "[compile] %d bytes of Wasm\n" (String.length wasm_bytes);

  (* 3. Launch it in WaTZ: the binary is staged through shared memory,
        copied into secure memory, measured, and executed. *)
  let running = Watz.Runtime.load soc wasm_bytes in
  Printf.printf "[watz] measurement (attestation claim): %s\n"
    (Watz_util.Hex.encode (Watz.Runtime.claim running));
  Printf.printf "[watz] app stdout: %s" (Watz.Runtime.output running);

  (* 4. Call an export from the normal world (one world round trip). *)
  (match Watz.Runtime.invoke running "square" [ Watz_wasm.Ast.VI32 12l ] with
  | [ Watz_wasm.Ast.VI32 144l ] -> print_endline "[watz] square(12) = 144"
  | _ -> failwith "square(12) did not return 144");

  (* 5. Startup breakdown, as in Fig. 4 of the paper. *)
  let s = running.Watz.Runtime.startup in
  Printf.printf
    "[watz] startup: total %.2f ms (transition %.0f us, alloc %.0f us, hash %.0f us, load %.0f us, instantiate %.0f us)\n"
    (Watz.Runtime.total_ns s /. 1e6)
    (s.Watz.Runtime.transition_ns /. 1e3)
    (s.Watz.Runtime.alloc_ns /. 1e3) (s.Watz.Runtime.hash_ns /. 1e3)
    (s.Watz.Runtime.load_ns /. 1e3)
    (s.Watz.Runtime.instantiate_ns /. 1e3);
  Watz.Runtime.unload running;
  print_endline "[done]"
