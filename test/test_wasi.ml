(* WASI adaptation-layer tests: the implemented preview1 calls against
   a live instance, argument/environment marshalling, the ENOSYS stubs,
   and proc_exit handling. *)

open Watz_wasmc.Minic
open Watz_wasmc.Minic.Dsl
module Wasi = Watz_wasi.Wasi

let wasi = "wasi_snapshot_preview1"

let run_app ?(args = [ "app.wasm" ]) ?(environ = []) program =
  let out = Buffer.create 64 in
  let rng = Watz_util.Prng.create 9L in
  let env =
    Wasi.make_env ~args ~environ
      ~clock_ns:(fun () -> 1_234_567_890L)
      ~random:(Watz_util.Prng.bytes rng)
      ~write_out:(Buffer.add_string out) ()
  in
  let inst =
    Watz_wasm.Fastinterp.instantiate ~imports:(Wasi.imports env)
      (Watz_wasm.Fastinterp.compile_bytes (compile_to_bytes program))
  in
  Wasi.attach_memory env inst;
  (env, inst, out)

let imp name params ret = { i_module = wasi; i_name = name; i_params = params; i_ret = ret }

let test_registered_surface () =
  (* The paper registers all 45 preview1 entry points. *)
  Alcotest.(check int) "45 entry points" 45 Wasi.registered_count

let test_args_marshalling () =
  let p =
    Dsl.program
      ~imports:[ imp "args_sizes_get" [ I32; I32 ] (Some I32); imp "args_get" [ I32; I32 ] (Some I32) ]
      [
        fn "argc" [] (Some I32)
          [ ExprS (calle "args_sizes_get" [ i 0; i 4 ]); ret (LoadE (I32, i 0)) ];
        fn "buf_size" [] (Some I32)
          [ ExprS (calle "args_sizes_get" [ i 0; i 4 ]); ret (LoadE (I32, i 4)) ];
        fn "first_byte" [] (Some I32)
          [
            ExprS (calle "args_get" [ i 16; i 64 ]);
            (* argv[0] points into the buffer; read its first byte *)
            ret (LoadPackedE (W8, false, LoadE (I32, i 16)));
          ];
      ]
  in
  let _, inst, _ = run_app ~args:[ "demo.wasm"; "--verbose" ] p in
  (match Watz_wasm.Fastinterp.invoke inst "argc" [] with
  | [ Watz_wasm.Ast.VI32 2l ] -> ()
  | _ -> Alcotest.fail "argc");
  (match Watz_wasm.Fastinterp.invoke inst "buf_size" [] with
  | [ Watz_wasm.Ast.VI32 n ] ->
    Alcotest.(check int32) "argv buffer bytes" (Int32.of_int 20) n
  | _ -> Alcotest.fail "buf_size");
  match Watz_wasm.Fastinterp.invoke inst "first_byte" [] with
  | [ Watz_wasm.Ast.VI32 c ] -> Alcotest.(check int32) "argv[0][0] = 'd'" (Int32.of_int (Char.code 'd')) c
  | _ -> Alcotest.fail "first_byte"

let test_environ () =
  let p =
    Dsl.program
      ~imports:
        [ imp "environ_sizes_get" [ I32; I32 ] (Some I32); imp "environ_get" [ I32; I32 ] (Some I32) ]
      [
        fn "count" [] (Some I32)
          [ ExprS (calle "environ_sizes_get" [ i 0; i 4 ]); ret (LoadE (I32, i 0)) ];
      ]
  in
  let _, inst, _ = run_app ~environ:[ ("HOME", "/"); ("MODE", "tee") ] p in
  match Watz_wasm.Fastinterp.invoke inst "count" [] with
  | [ Watz_wasm.Ast.VI32 2l ] -> ()
  | _ -> Alcotest.fail "environ count"

let test_clock_value () =
  let p =
    Dsl.program
      ~imports:[ imp "clock_time_get" [ I32; I64; I32 ] (Some I32) ]
      [
        fn "now" [] (Some I64)
          [ ExprS (calle "clock_time_get" [ i 0; LongE 1L; i 8 ]); ret (LoadE (I64, i 8)) ];
      ]
  in
  let _, inst, _ = run_app p in
  match Watz_wasm.Fastinterp.invoke inst "now" [] with
  | [ Watz_wasm.Ast.VI64 1_234_567_890L ] -> ()
  | _ -> Alcotest.fail "clock value"

let test_random_get () =
  let p2 =
    Dsl.program
      ~imports:[ imp "random_get" [ I32; I32 ] (Some I32) ]
      [
        fn "fill" [] (Some I32)
          [ ExprS (calle "random_get" [ i 0; i 16 ]); ret (i 0) ];
      ]
  in
  let env, inst, _ = run_app p2 in
  (match Watz_wasm.Fastinterp.invoke inst "fill" [] with
  | [ Watz_wasm.Ast.VI32 0l ] -> ()
  | _ -> Alcotest.fail "random_get rc");
  let mem = Option.get env.Wasi.memory in
  let drawn = Watz_wasm.Instance.Memory.load_string mem 0 16 in
  Alcotest.(check bool) "bytes written" false (String.equal drawn (String.make 16 '\000'))

(* random_get checks its range before it draws: on a one-page memory a
   1 MiB or a 2^32 - 1 byte request traps at once, with no host string
   of that length made first. *)
let test_random_get_range_first () =
  let p =
    Dsl.program
      ~imports:[ imp "random_get" [ I32; I32 ] (Some I32) ]
      [ fn "fill" [ ("len", I32) ] (Some I32) [ ret (calle "random_get" [ i 0; v "len" ]) ] ]
  in
  let _, inst, _ = run_app p in
  List.iter
    (fun len ->
      let what = Printf.sprintf "random_get(0, %lu)" len in
      let before = Gc.allocated_bytes () in
      (match Watz_wasm.Fastinterp.invoke inst "fill" [ Watz_wasm.Ast.VI32 len ] with
      | _ -> Alcotest.failf "%s on one page did not trap" what
      | exception Watz_wasm.Instance.Trap msg ->
        Alcotest.(check string) (what ^ " trap") "out of bounds memory access" msg);
      let grown = Gc.allocated_bytes () -. before in
      if Stdlib.( >= ) grown 65536. then
        Alcotest.failf "%s allocated %.0f bytes before its trap" what grown)
    [ 0x10_0000l; 0xFFFF_FFFFl ]

let test_stub_returns_enosys () =
  let p =
    Dsl.program
      ~imports:[ imp "path_open" [ I32; I32; I32; I32; I32; I64; I64; I32; I32 ] (Some I32) ]
      [
        fn "try_open" [] (Some I32)
          [ ret (calle "path_open" [ i 3; i 0; i 0; i 4; i 0; LongE 0L; LongE 0L; i 0; i 32 ]) ];
      ]
  in
  let _, inst, _ = run_app p in
  match Watz_wasm.Fastinterp.invoke inst "try_open" [] with
  | [ Watz_wasm.Ast.VI32 52l ] -> () (* ENOSYS *)
  | [ Watz_wasm.Ast.VI32 other ] -> Alcotest.failf "expected ENOSYS, got %ld" other
  | _ -> Alcotest.fail "try_open"

let test_fd_write_bad_fd () =
  let p =
    Dsl.program
      ~imports:[ imp "fd_write" [ I32; I32; I32; I32 ] (Some I32) ]
      [ fn "w" [ ("fd", I32) ] (Some I32) [ ret (calle "fd_write" [ v "fd"; i 16; i 0; i 32 ]) ] ]
  in
  let _, inst, _ = run_app p in
  (match Watz_wasm.Fastinterp.invoke inst "w" [ Watz_wasm.Ast.VI32 7l ] with
  | [ Watz_wasm.Ast.VI32 8l ] -> () (* EBADF *)
  | _ -> Alcotest.fail "bad fd not rejected");
  match Watz_wasm.Fastinterp.invoke inst "w" [ Watz_wasm.Ast.VI32 1l ] with
  | [ Watz_wasm.Ast.VI32 0l ] -> ()
  | _ -> Alcotest.fail "stdout refused"

let test_proc_exit () =
  let p =
    Dsl.program
      ~imports:[ imp "proc_exit" [ I32 ] None ]
      [ fn "_start" [] None [ call "proc_exit" [ i 3 ]; ret_void ] ]
  in
  let m = compile p in
  Watz_wasm.Validate.validate m;
  let soc = Watz_tz.Soc.manufacture ~seed:"wasi-test" () in
  (match Watz_tz.Soc.boot soc with Ok _ -> () | Error _ -> assert false);
  let app = Watz.Runtime.load soc (Watz_wasm.Encode.encode m) in
  Alcotest.(check (option int)) "exit code captured" (Some 3)
    app.Watz.Runtime.wasi_env.Wasi.exit_code;
  Watz.Runtime.unload app

(* ------------------------------------------------------------------ *)
(* The same WASI app under both worlds: secure (WaTZ runtime, syscalls
   crossing the TrustZone boundary) and normal (the stock-WAMR
   baseline). File output, clock and random must all work in both; a
   load past the linear-memory limit must trap in both — the sandbox
   holds on either side of the boundary. *)

let both_worlds_app () =
  let msg = "syscalls in two worlds\n" in
  Dsl.program
    ~imports:
      [
        imp "fd_write" [ I32; I32; I32; I32 ] (Some I32);
        imp "clock_time_get" [ I32; I64; I32 ] (Some I32);
        imp "random_get" [ I32; I32 ] (Some I32);
      ]
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
      fn "now" [] (Some I64)
        [ ExprS (calle "clock_time_get" [ i 0; LongE 1L; i 8 ]); ret (LoadE (I64, i 8)) ];
      fn "fill" [] (Some I32) [ ret (calle "random_get" [ i 128; i 16 ]) ];
      fn "peek" [ ("a", I32) ] (Some I32) [ ret (LoadE (I32, v "a")) ];
    ]

let booted_soc () =
  let soc = Watz_tz.Soc.manufacture ~seed:"wasi-worlds" () in
  (match Watz_tz.Soc.boot soc with Ok _ -> () | Error _ -> assert false);
  soc

let check_world ~world ~invoke ~memory ~output ~trap =
  Alcotest.(check string) (world ^ ": fd_write reached the console") "syscalls in two worlds\n"
    output;
  (match invoke "now" [] with
  | [ Watz_wasm.Ast.VI64 t ] ->
    Alcotest.(check bool) (world ^ ": clock readable") true (Stdlib.( >= ) t 0L)
  | _ -> Alcotest.fail (world ^ ": clock_time_get"));
  (match invoke "fill" [] with
  | [ Watz_wasm.Ast.VI32 0l ] -> ()
  | _ -> Alcotest.fail (world ^ ": random_get rc"));
  let drawn = Watz_wasm.Instance.Memory.load_string (Option.get memory) 128 16 in
  Alcotest.(check bool) (world ^ ": random bytes written") false
    (String.equal drawn (String.make 16 '\000'));
  (* A read past the linear-memory limit must trap, not read the
     host's (or the other world's) memory. *)
  trap (fun () -> invoke "peek" [ Watz_wasm.Ast.VI32 0x7ff0_0000l ])

let test_syscalls_secure_world () =
  let soc = booted_soc () in
  let app = Watz.Runtime.load soc (Watz_wasm.Encode.encode (compile (both_worlds_app ()))) in
  check_world ~world:"secure"
    ~invoke:(Watz.Runtime.invoke app)
    ~memory:(Watz.Runtime.export_memory app)
    ~output:(Watz.Runtime.output app)
    ~trap:(fun f ->
      match f () with
      | _ -> Alcotest.fail "secure: OOB read did not trap"
      | exception Watz.Runtime.App_trap _ -> ());
  Watz.Runtime.unload app

let test_syscalls_normal_world () =
  let soc = booted_soc () in
  let app = Watz.Wamr.load soc (Watz_wasm.Encode.encode (compile (both_worlds_app ()))) in
  check_world ~world:"normal"
    ~invoke:(Watz.Wamr.invoke app)
    ~memory:(Watz.Wamr.export_memory app)
    ~output:(Watz.Wamr.output app)
    ~trap:(fun f ->
      match f () with
      | _ -> Alcotest.fail "normal: OOB read did not trap"
      | exception Watz.Wamr.App_trap _ -> ())

(* The shared-memory staging limit is part of the WASI app's world
   contract too: a binary too large for the 9 MB pool must be refused
   at the boundary (typed error), never partially staged. *)
let test_shared_memory_limit () =
  let soc = booted_soc () in
  let huge = String.make 10485760 'Z' in
  match Watz.Runtime.load soc huge with
  | _ -> Alcotest.fail "10 MB binary staged through the 9 MB shared pool"
  | exception Watz_tz.Optee.Out_of_memory _ -> ()

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "wasi",
      [
        case "45 registered entry points" test_registered_surface;
        case "args marshalling" test_args_marshalling;
        case "environ" test_environ;
        case "clock value plumbed" test_clock_value;
        case "random_get fills memory" test_random_get;
        case "random_get checks its range first" test_random_get_range_first;
        case "stubs return ENOSYS" test_stub_returns_enosys;
        case "fd_write fd policy" test_fd_write_bad_fd;
        case "proc_exit captured" test_proc_exit;
      ] );
    ( "wasi.worlds",
      [
        case "file/clock/random in the secure world" test_syscalls_secure_world;
        case "file/clock/random in the normal world" test_syscalls_normal_world;
        case "shared-memory limit refused" test_shared_memory_limit;
      ] );
  ]
