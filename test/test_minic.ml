(* Tests for the MiniC -> Wasm compiler: end-to-end compile, validate,
   run in both engine tiers, and compare against expected values. *)

open Watz_wasmc.Minic
open Watz_wasmc.Minic.Dsl

let run_f64 program name args =
  let m, cm = Tiers.of_minic program in
  let finst = Watz_wasm.Fastinterp.instantiate cm in
  let inst = Watz_wasm.Interp.instantiate m in
  let boxed = List.map (fun x -> Watz_wasm.Ast.VF64 x) args in
  let a = Watz_wasm.Fastinterp.invoke finst name boxed in
  let b = Watz_wasm.Interp.invoke (Option.get (Watz_wasm.Instance.export_func inst name)) boxed in
  Alcotest.(check bool) "tiers agree" true (Stdlib.( = ) a b);
  match a with
  | [ Watz_wasm.Ast.VF64 x ] -> x
  | _ -> Alcotest.fail "expected one f64"

let run_i32 program name args =
  let m, cm = Tiers.of_minic program in
  let finst = Watz_wasm.Fastinterp.instantiate cm in
  let inst = Watz_wasm.Interp.instantiate m in
  let boxed = List.map (fun x -> Watz_wasm.Ast.VI32 (Int32.of_int x)) args in
  let a = Watz_wasm.Fastinterp.invoke finst name boxed in
  let b = Watz_wasm.Interp.invoke (Option.get (Watz_wasm.Instance.export_func inst name)) boxed in
  Alcotest.(check bool) "tiers agree" true (Stdlib.( = ) a b);
  match a with
  | [ Watz_wasm.Ast.VI32 x ] -> Int32.to_int x
  | _ -> Alcotest.fail "expected one i32"

let test_simple_arith () =
  let p =
    Dsl.program
      [ fn "f" [ ("a", I32); ("b", I32) ] (Some I32) [ ret ((v "a" + v "b") * i 2) ] ]
  in
  Alcotest.(check int) "(3+4)*2" 14 (run_i32 p "f" [ 3; 4 ])

let test_for_loop_sum () =
  let p =
    Dsl.program
      [
        fn "sum" [ ("n", I32) ] (Some I32)
          [
            DeclS ("acc", I32, Some (i 0));
            for_ "k" (i 1) (v "n" + i 1) [ set "acc" (v "acc" + v "k") ];
            ret (v "acc");
          ];
      ]
  in
  Alcotest.(check int) "sum 1..100" 5050 (run_i32 p "sum" [ 100 ])

let test_while_and_break () =
  (* Find the smallest divisor of n >= 2 using while + break. *)
  let p =
    Dsl.program
      [
        fn "mindiv" [ ("n", I32) ] (Some I32)
          [
            DeclS ("d", I32, Some (i 2));
            while_ (v "d" * v "d" <= v "n")
              [
                if_ (v "n" % v "d" = i 0) [ BreakS ] [];
                set "d" (v "d" + i 1);
              ];
            if_ (v "d" * v "d" > v "n") [ ret (v "n") ] [];
            ret (v "d");
          ];
      ]
  in
  Alcotest.(check int) "mindiv 91" 7 (run_i32 p "mindiv" [ 91 ]);
  Alcotest.(check int) "mindiv 97" 97 (run_i32 p "mindiv" [ 97 ])

let test_continue () =
  (* Sum of 0..n-1 skipping multiples of 3. *)
  let p =
    Dsl.program
      [
        fn "f" [ ("n", I32) ] (Some I32)
          [
            DeclS ("acc", I32, Some (i 0));
            for_ "k" (i 0) (v "n")
              [ if_ (v "k" % i 3 = i 0) [ ContinueS ] []; set "acc" (v "acc" + v "k") ];
            ret (v "acc");
          ];
      ]
  in
  (* 0..9 skipping 0,3,6,9: 1+2+4+5+7+8 = 27 *)
  Alcotest.(check int) "skip multiples of 3" 27 (run_i32 p "f" [ 10 ])

let test_nested_loops_memory () =
  (* Fill a 10x10 matrix a[i][j] = i*j, then sum it: (0+..+9)^2 = 2025. *)
  let n = i 10 in
  let base = i 0 in
  let p =
    Dsl.program
      [
        fn "f" [] (Some F64)
          [
            for_ "r" (i 0) n
              [ for_ "c" (i 0) n [ f64_set2 base n (v "r") (v "c") (to_f64 (v "r" * v "c")) ] ];
            DeclS ("acc", F64, Some (f 0.0));
            for_ "r2" (i 0) n
              [ for_ "c2" (i 0) n [ set "acc" (v "acc" + f64_get2 base n (v "r2") (v "c2")) ] ];
            ret (v "acc");
          ];
      ]
  in
  Alcotest.(check (float 1e-9)) "sum i*j" 2025.0 (run_f64 p "f" [])

let test_function_calls () =
  let p =
    Dsl.program
      [
        fn ~export:false "square" [ ("x", F64) ] (Some F64) [ ret (v "x" * v "x") ];
        fn "hyp" [ ("a", F64); ("b", F64) ] (Some F64)
          [ ret (SqrtE (calle "square" [ v "a" ] + calle "square" [ v "b" ])) ];
      ]
  in
  Alcotest.(check (float 1e-12)) "hyp 3 4" 5.0 (run_f64 p "hyp" [ 3.0; 4.0 ])

let test_recursion () =
  let p =
    Dsl.program
      [
        fn "fib" [ ("n", I32) ] (Some I32)
          [
            if_ (v "n" < i 2) [ ret (v "n") ] [];
            ret (calle "fib" [ v "n" - i 1 ] + calle "fib" [ v "n" - i 2 ]);
          ];
      ]
  in
  Alcotest.(check int) "fib 20" 6765 (run_i32 p "fib" [ 20 ])

let test_ternary_and_logic () =
  let p =
    Dsl.program
      [
        fn "clamp" [ ("x", I32); ("lo", I32); ("hi", I32) ] (Some I32)
          [ ret (TernE (v "x" < v "lo", v "lo", TernE (v "x" > v "hi", v "hi", v "x"))) ];
        fn "in_range" [ ("x", I32) ] (Some I32)
          [ ret (v "x" >= i 0 && v "x" < i 100) ];
      ]
  in
  Alcotest.(check int) "clamp below" 1 (run_i32 p "clamp" [ -5; 1; 9 ]);
  Alcotest.(check int) "clamp above" 9 (run_i32 p "clamp" [ 50; 1; 9 ]);
  Alcotest.(check int) "clamp inside" 5 (run_i32 p "clamp" [ 5; 1; 9 ]);
  Alcotest.(check int) "in_range yes" 1 (run_i32 p "in_range" [ 5 ]);
  Alcotest.(check int) "in_range no" 0 (run_i32 p "in_range" [ 100 ])

let test_short_circuit () =
  (* (x != 0) && (10 / x > 1) must not trap for x = 0. *)
  let p =
    Dsl.program
      [
        fn "safe" [ ("x", I32) ] (Some I32)
          [ ret (v "x" <> i 0 && i 10 / v "x" > i 1) ];
      ]
  in
  Alcotest.(check int) "x=0 no trap" 0 (run_i32 p "safe" [ 0 ]);
  Alcotest.(check int) "x=4" 1 (run_i32 p "safe" [ 4 ]);
  Alcotest.(check int) "x=10" 0 (run_i32 p "safe" [ 10 ])

let test_imports () =
  let p =
    Dsl.program
      ~imports:[ { i_module = "env"; i_name = "log_i32"; i_params = [ I32 ]; i_ret = None } ]
      [
        fn "f" [ ("x", I32) ] (Some I32)
          [ call "log_i32" [ v "x" ]; ret (v "x" + i 1) ];
      ]
  in
  let logged = ref [] in
  let finst =
    Watz_wasm.Fastinterp.instantiate
      ~imports:
        [
          Watz_wasm.Instance.host ~module_:"env" ~name:"log_i32"
            ~params:[ Watz_wasm.Types.I32 ] ~results:[]
            (fun args ->
              (match args.(0) with
              | Watz_wasm.Ast.VI32 v -> logged := Int32.to_int v :: !logged
              | _ -> ());
              []);
        ]
      (Watz_wasm.Fastinterp.compile_bytes (compile_to_bytes p))
  in
  let r = Watz_wasm.Fastinterp.invoke finst "f" [ Watz_wasm.Ast.VI32 41l ] in
  Alcotest.(check bool) "result" true (Stdlib.( = ) r [ Watz_wasm.Ast.VI32 42l ]);
  Alcotest.(check (list int)) "host saw arg" [ 41 ] !logged

let test_type_errors_rejected () =
  let bad body = Dsl.program [ fn "f" [ ("x", I32) ] (Some I32) body ] in
  let expect_type_error name p =
    match compile p with
    | _ -> Alcotest.failf "%s: expected type error" name
    | exception Type_error _ -> ()
  in
  expect_type_error "float+int" (bad [ ret (v "x" + f 1.0) ]);
  expect_type_error "unbound var" (bad [ ret (v "y") ]);
  expect_type_error "break outside loop" (bad [ BreakS; ret (v "x") ]);
  expect_type_error "wrong return type" (bad [ ret (f 1.0) ]);
  expect_type_error "unbound function" (bad [ ret (calle "nope" []) ])

let test_encode_runs_through_decoder () =
  let p =
    Dsl.program
      [ fn "f" [ ("a", F64) ] (Some F64) [ ret (v "a" * f 2.0) ] ]
  in
  let finst = Watz_wasm.Fastinterp.instantiate (Watz_wasm.Fastinterp.compile_bytes (compile_to_bytes p)) in
  match Watz_wasm.Fastinterp.invoke finst "f" [ Watz_wasm.Ast.VF64 21.0 ] with
  | [ Watz_wasm.Ast.VF64 x ] -> Alcotest.(check (float 0.0)) "through codec" 42.0 x
  | _ -> Alcotest.fail "bad result"

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "minic",
      [
        case "simple arithmetic" test_simple_arith;
        case "for-loop sum" test_for_loop_sum;
        case "while + break" test_while_and_break;
        case "continue" test_continue;
        case "nested loops over memory" test_nested_loops_memory;
        case "function calls" test_function_calls;
        case "recursion" test_recursion;
        case "ternary and logic" test_ternary_and_logic;
        case "short-circuit evaluation" test_short_circuit;
        case "imported host functions" test_imports;
        case "type errors rejected" test_type_errors_rejected;
        case "binary roundtrip" test_encode_runs_through_decoder;
      ] );
  ]
