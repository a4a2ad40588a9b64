(* Tests for the from-scratch Wasm engine: codec roundtrips, validator
   accept/reject, semantics of both execution tiers, and differential
   interp-vs-fast checks (the tiers must agree on every program,
   including traps). *)

open Watz_wasm
open Types
open Ast

let value_testable =
  let pp ppf = function
    | VI32 v -> Format.fprintf ppf "i32:%ld" v
    | VI64 v -> Format.fprintf ppf "i64:%Ld" v
    | VF32 v -> Format.fprintf ppf "f32:%h" v
    | VF64 v -> Format.fprintf ppf "f64:%h" v
  in
  let eq a b =
    match (a, b) with
    | VI32 x, VI32 y -> Int32.equal x y
    | VI64 x, VI64 y -> Int64.equal x y
    | VF32 x, VF32 y | VF64 x, VF64 y ->
      (Float.is_nan x && Float.is_nan y) || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | _ -> false
  in
  Alcotest.testable pp eq

(* Run an exported function on both execution tiers and check they
   agree: tree-walking interpreter and pre-decoded fast interpreter. *)
let run_both m name args =
  let ast, cm = Tiers.of_module m in
  let inst = Interp.instantiate ast in
  let interp_result =
    match Instance.export_func inst name with
    | Some f -> Interp.invoke f args
    | None -> Alcotest.failf "no export %s" name
  in
  let finst = Fastinterp.instantiate cm in
  let fast_result = Fastinterp.invoke finst name args in
  Alcotest.(check (list value_testable)) (name ^ ": interp = fast") interp_result fast_result;
  interp_result

let check_result m name args expected =
  let got = run_both m name args in
  Alcotest.(check (list value_testable)) name expected got

(* Convenient single-function module. *)
let single_func ?(locals = []) ?(extra = fun (_ : Builder.t) -> ()) ~params ~results body =
  let b = Builder.create () in
  extra b;
  let f = Builder.func b ~params ~results ~locals body in
  Builder.export_func b "f" f;
  Builder.build b

(* ------------------------------------------------------------------ *)
(* Arithmetic basics *)

let test_i32_arith () =
  let m =
    single_func ~params:[ I32; I32 ] ~results:[ I32 ]
      [ LocalGet 0; LocalGet 1; IBinop (I32, Add); LocalGet 0; IBinop (I32, Mul) ]
  in
  (* (a + b) * a *)
  check_result m "f" [ VI32 3l; VI32 4l ] [ VI32 21l ];
  check_result m "f" [ VI32 Int32.max_int; VI32 1l ] [ VI32 (Int32.mul Int32.min_int Int32.max_int) ]

let test_i32_division_semantics () =
  let op o = single_func ~params:[ I32; I32 ] ~results:[ I32 ] [ LocalGet 0; LocalGet 1; IBinop (I32, o) ] in
  check_result (op DivS) "f" [ VI32 (-7l); VI32 2l ] [ VI32 (-3l) ];
  check_result (op DivU) "f" [ VI32 (-1l); VI32 2l ] [ VI32 2147483647l ];
  check_result (op RemS) "f" [ VI32 (-7l); VI32 2l ] [ VI32 (-1l) ];
  check_result (op RemU) "f" [ VI32 (-1l); VI32 10l ] [ VI32 5l ];
  check_result (op RemS) "f" [ VI32 Int32.min_int; VI32 (-1l) ] [ VI32 0l ]

let expect_trap m name args msg_fragment =
  let ast, cm = Tiers.of_module m in
  let inst = Interp.instantiate ast in
  let f = Option.get (Instance.export_func inst name) in
  (match Interp.invoke f args with
  | _ -> Alcotest.failf "interp: expected trap %s" msg_fragment
  | exception Instance.Trap msg ->
    Alcotest.(check bool) ("interp trap: " ^ msg) true
      (Astring.String.is_infix ~affix:msg_fragment msg
       || String.length msg_fragment = 0));
  match Fastinterp.invoke (Fastinterp.instantiate cm) name args with
  | _ -> Alcotest.failf "fast: expected trap %s" msg_fragment
  | exception Instance.Trap msg ->
    Alcotest.(check bool) ("fast trap: " ^ msg) true
      (Astring.String.is_infix ~affix:msg_fragment msg
       || String.length msg_fragment = 0)

type outcome = Returned of value list | Trapped of string

let outcome_testable =
  let pp ppf = function
    | Returned vs -> Format.fprintf ppf "%a" (Format.pp_print_list (Alcotest.pp value_testable)) vs
    | Trapped msg -> Format.fprintf ppf "trap %S" msg
  in
  let eq a b =
    match (a, b) with
    | Returned x, Returned y ->
      List.length x = List.length y && List.for_all2 (Alcotest.equal value_testable) x y
    | Trapped x, Trapped y -> String.equal x y
    | _ -> false
  in
  Alcotest.testable pp eq

(* Run [name] on both tiers: the same result or trap message, and the
   same memory afterwards. Returns the outcome and the memory. *)
let on_both_tiers m name args =
  let ast, cm = Tiers.of_module m in
  let attempt f = match f () with vs -> Returned vs | exception Instance.Trap msg -> Trapped msg in
  let memory inst =
    match inst.Instance.memories with
    | [||] -> Bytes.empty
    | mems -> Bytes.copy mems.(0).Instance.Memory.data
  in
  let inst = Interp.instantiate ast in
  let interp = attempt (fun () -> Interp.invoke (Option.get (Instance.export_func inst name)) args) in
  let finst = Fastinterp.instantiate cm in
  let fast = attempt (fun () -> Fastinterp.invoke finst name args) in
  Alcotest.check outcome_testable (name ^ ": interp = fast") interp fast;
  Alcotest.(check bool) (name ^ ": same memory") true (Bytes.equal (memory inst) (memory finst));
  (fast, memory finst)

let test_div_by_zero_traps () =
  let m = single_func ~params:[ I32 ] ~results:[ I32 ] [ LocalGet 0; Builder.i32c 0; IBinop (I32, DivS) ] in
  expect_trap m "f" [ VI32 7l ] "divide by zero";
  let m2 =
    single_func ~params:[] ~results:[ I32 ]
      [ Const (VI32 Int32.min_int); Const (VI32 (-1l)); IBinop (I32, DivS) ]
  in
  expect_trap m2 "f" [] "overflow"

let test_i64_ops () =
  let m =
    single_func ~params:[ I64; I64 ] ~results:[ I64 ]
      [ LocalGet 0; LocalGet 1; IBinop (I64, Mul) ]
  in
  check_result m "f" [ VI64 0x123456789L; VI64 1000L ] [ VI64 4886718345000L ]

let test_i64_mul_exact () =
  let m =
    single_func ~params:[ I64; I64 ] ~results:[ I64 ]
      [ LocalGet 0; LocalGet 1; IBinop (I64, Mul) ]
  in
  check_result m "f" [ VI64 78187493520L; VI64 1000L ] [ VI64 78187493520000L ]

let test_bit_ops () =
  let un o = single_func ~params:[ I32 ] ~results:[ I32 ] [ LocalGet 0; IUnop (I32, o) ] in
  check_result (un Clz) "f" [ VI32 1l ] [ VI32 31l ];
  check_result (un Clz) "f" [ VI32 0l ] [ VI32 32l ];
  check_result (un Ctz) "f" [ VI32 0x80000000l ] [ VI32 31l ];
  check_result (un Popcnt) "f" [ VI32 0xF0F0F0F0l ] [ VI32 16l ];
  let rot =
    single_func ~params:[ I32; I32 ] ~results:[ I32 ] [ LocalGet 0; LocalGet 1; IBinop (I32, Rotl) ]
  in
  check_result rot "f" [ VI32 0x80000001l; VI32 1l ] [ VI32 3l ]

let test_f64_ops () =
  let m =
    single_func ~params:[ F64; F64 ] ~results:[ F64 ]
      [ LocalGet 0; LocalGet 1; FBinop (F64, Fdiv); FUnop (F64, Sqrt) ]
  in
  check_result m "f" [ VF64 8.0; VF64 2.0 ] [ VF64 2.0 ];
  let nearest = single_func ~params:[ F64 ] ~results:[ F64 ] [ LocalGet 0; FUnop (F64, Nearest) ] in
  check_result nearest "f" [ VF64 2.5 ] [ VF64 2.0 ];
  check_result nearest "f" [ VF64 3.5 ] [ VF64 4.0 ];
  check_result nearest "f" [ VF64 (-0.5) ] [ VF64 (-0.0) ]

let test_conversions () =
  let c op src = single_func ~params:[ src ] ~results:[] [ LocalGet 0; Cvtop op; Drop ] in
  ignore c;
  let m = single_func ~params:[ F64 ] ~results:[ I32 ] [ LocalGet 0; Cvtop I32TruncF64S ] in
  check_result m "f" [ VF64 (-3.7) ] [ VI32 (-3l) ];
  expect_trap m "f" [ VF64 Float.nan ] "invalid conversion";
  expect_trap m "f" [ VF64 3e9 ] "overflow";
  let m2 = single_func ~params:[ I32 ] ~results:[ F64 ] [ LocalGet 0; Cvtop F64ConvertI32U ] in
  check_result m2 "f" [ VI32 (-1l) ] [ VF64 4294967295.0 ];
  let m3 = single_func ~params:[ I64 ] ~results:[ F64 ] [ LocalGet 0; Cvtop F64ConvertI64U ] in
  check_result m3 "f" [ VI64 (-1L) ] [ VF64 1.8446744073709552e19 ];
  let m4 = single_func ~params:[ F64 ] ~results:[ I64 ] [ LocalGet 0; Cvtop I64TruncF64U ] in
  check_result m4 "f" [ VF64 1.0e19 ] [ VI64 (-8446744073709551616L) ]

let test_reinterpret () =
  let m = single_func ~params:[ F64 ] ~results:[ I64 ] [ LocalGet 0; Cvtop I64ReinterpretF64 ] in
  check_result m "f" [ VF64 1.0 ] [ VI64 0x3FF0000000000000L ]

(* ------------------------------------------------------------------ *)
(* Control flow *)

let test_if_else () =
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ]
      [
        LocalGet 0;
        If (BlockVal I32, [ Builder.i32c 100 ], [ Builder.i32c 200 ]);
      ]
  in
  check_result m "f" [ VI32 1l ] [ VI32 100l ];
  check_result m "f" [ VI32 0l ] [ VI32 200l ]

let test_loop_sum () =
  (* sum 1..n with a loop and br_if *)
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32; I32 ]
      [
        Block
          ( BlockEmpty,
            [
              Loop
                ( BlockEmpty,
                  [
                    LocalGet 1;
                    LocalGet 0;
                    IRelop (I32, GeS);
                    BrIf 1;
                    LocalGet 1;
                    Builder.i32c 1;
                    IBinop (I32, Add);
                    LocalSet 1;
                    LocalGet 2;
                    LocalGet 1;
                    IBinop (I32, Add);
                    LocalSet 2;
                    Br 0;
                  ] );
            ] );
        LocalGet 2;
      ]
  in
  check_result m "f" [ VI32 10l ] [ VI32 55l ];
  check_result m "f" [ VI32 0l ] [ VI32 0l ];
  check_result m "f" [ VI32 1000l ] [ VI32 500500l ]

let test_block_result_and_br () =
  (* block (result i32) that exits early with br carrying a value *)
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ]
      [
        Block
          ( BlockVal I32,
            [
              LocalGet 0;
              If (BlockEmpty, [ Builder.i32c 42; Br 1 ], []);
              Builder.i32c 7;
            ] );
      ]
  in
  check_result m "f" [ VI32 1l ] [ VI32 42l ];
  check_result m "f" [ VI32 0l ] [ VI32 7l ]

let test_br_table () =
  (* Three-way switch on local 0, storing the chosen tag in local 1. *)
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      [
        Block
          ( BlockEmpty,
            [
              Block
                ( BlockEmpty,
                  [
                    Block (BlockEmpty, [ LocalGet 0; BrTable ([| 0; 1 |], 2) ]);
                    (* case 0 *)
                    Builder.i32c 100;
                    LocalSet 1;
                    Br 1;
                  ] );
              (* case 1 *)
              Builder.i32c 200;
              LocalSet 1;
              Br 0;
            ] );
        LocalGet 1;
      ]
  in
  check_result m "f" [ VI32 0l ] [ VI32 100l ];
  check_result m "f" [ VI32 1l ] [ VI32 200l ];
  (* default: both inner cases skipped, local 1 stays 0 *)
  check_result m "f" [ VI32 9l ] [ VI32 0l ];
  check_result m "f" [ VI32 (-1l) ] [ VI32 0l ]

let test_early_return () =
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ]
      [
        LocalGet 0;
        If (BlockEmpty, [ Builder.i32c 1; Return ], []);
        Builder.i32c 2;
      ]
  in
  check_result m "f" [ VI32 5l ] [ VI32 1l ];
  check_result m "f" [ VI32 0l ] [ VI32 2l ]

let test_unreachable_traps () =
  let m = single_func ~params:[] ~results:[] [ Unreachable ] in
  expect_trap m "f" [] "unreachable"

let test_nested_loops () =
  (* Multiplication by repeated addition in two nested loops: i*j summed. *)
  let m =
    single_func ~params:[ I32; I32 ] ~results:[ I32 ] ~locals:[ I32; I32; I32 ]
      [
        Block
          ( BlockEmpty,
            [
              Loop
                ( BlockEmpty,
                  [
                    LocalGet 2;
                    LocalGet 0;
                    IRelop (I32, GeS);
                    BrIf 1;
                    (* inner: acc += j-loop of 1s *)
                    Builder.i32c 0;
                    LocalSet 3;
                    Block
                      ( BlockEmpty,
                        [
                          Loop
                            ( BlockEmpty,
                              [
                                LocalGet 3;
                                LocalGet 1;
                                IRelop (I32, GeS);
                                BrIf 1;
                                LocalGet 4;
                                Builder.i32c 1;
                                IBinop (I32, Add);
                                LocalSet 4;
                                LocalGet 3;
                                Builder.i32c 1;
                                IBinop (I32, Add);
                                LocalSet 3;
                                Br 0;
                              ] );
                        ] );
                    LocalGet 2;
                    Builder.i32c 1;
                    IBinop (I32, Add);
                    LocalSet 2;
                    Br 0;
                  ] );
            ] );
        LocalGet 4;
      ]
  in
  check_result m "f" [ VI32 7l; VI32 9l ] [ VI32 63l ]

(* ------------------------------------------------------------------ *)
(* Functions, recursion, call_indirect *)

let test_factorial_recursive () =
  let b = Builder.create () in
  let fact = Builder.func b ~params:[ I64 ] ~results:[ I64 ] ~locals:[]
      [
        LocalGet 0;
        Const (VI64 2L);
        IRelop (I64, LtS);
        If
          ( BlockVal I64,
            [ Const (VI64 1L) ],
            [
              LocalGet 0;
              LocalGet 0;
              Const (VI64 1L);
              IBinop (I64, Sub);
              Call 0;
              IBinop (I64, Mul);
            ] );
      ]
  in
  Builder.export_func b "fact" fact;
  let m = Builder.build b in
  check_result m "fact" [ VI64 10L ] [ VI64 3628800L ];
  check_result m "fact" [ VI64 20L ] [ VI64 2432902008176640000L ]

(* A call made with [Instance.max_call_depth] frames live traps on
   both tiers, so a recursion without end is a trap, not an OCaml stack
   overflow. Each frame of [forever] bumps the word at 0 before it
   recurses, so the memory shows how many frames ran; [down n] runs
   n + 1 frames. *)
let test_unbounded_recursion_traps () =
  let b = Builder.create () in
  ignore (Builder.memory b ~min:1 ());
  let word = { align = 2; offset = 0 } in
  let bump =
    [ Builder.i32c 0; Builder.i32c 0; Load (I32, None, word); Builder.i32c 1; IBinop (I32, Add);
      Store (I32, None, word) ]
  in
  let forever = Builder.func b ~params:[] ~results:[] ~locals:[] (bump @ [ Call 0 ]) in
  let down =
    Builder.func b ~params:[ I32 ] ~results:[ I32 ] ~locals:[]
      [ LocalGet 0; ITestop I32;
        If
          ( BlockVal I32,
            [ Builder.i32c 0 ],
            [ LocalGet 0; Builder.i32c 1; IBinop (I32, Sub); Call 1; Builder.i32c 1; IBinop (I32, Add) ] ) ]
  in
  Alcotest.(check (pair int int)) "function indices" (0, 1) (forever, down);
  Builder.export_func b "forever" forever;
  Builder.export_func b "down" down;
  let m = Builder.build b in
  let limit = Instance.max_call_depth in
  let exhausted = Trapped "call stack exhausted" in
  let outcome, memory = on_both_tiers m "forever" [] in
  Alcotest.check outcome_testable "forever" exhausted outcome;
  Alcotest.(check int32) "frames run" (Int32.of_int limit) (Bytes.get_int32_le memory 0);
  let down_to n = fst (on_both_tiers m "down" [ VI32 (Int32.of_int n) ]) in
  Alcotest.check outcome_testable "limit frames return"
    (Returned [ VI32 (Int32.of_int (limit - 1)) ])
    (down_to (limit - 1));
  Alcotest.check outcome_testable "one frame more traps" exhausted (down_to limit);
  (* Under fuel, the trapping call charges nothing: the check comes
     before the callee's entry charge, so both tiers charge one unit
     per frame run. The trap unwinds the count, so the same instance
     recurses to the limit again. *)
  let ast, cm = Tiers.of_module ~fuel:true m in
  let interp = Interp.instantiate ast and fast = Fastinterp.instantiate cm in
  let budget = 1_000_000 in
  List.iter
    (fun (tier, invoke) ->
      let left =
        Instance.Fuel.with_fuel budget (fun () ->
            (match invoke "forever" [] with
            | _ -> Alcotest.failf "%s: forever returned" tier
            | exception Instance.Trap _ -> ());
            !Instance.Fuel.cell)
      in
      Alcotest.(check int) (tier ^ ": one fuel unit per frame run") (budget - limit) left;
      Alcotest.(check (list value_testable)) (tier ^ ": limit frames after a trap")
        [ VI32 (Int32.of_int (limit - 1)) ]
        (invoke "down" [ VI32 (Int32.of_int (limit - 1)) ]))
    [
      ("interp", fun name args -> Interp.invoke (Option.get (Instance.export_func interp name)) args);
      ("fast", Fastinterp.invoke fast);
    ]

let test_mutual_recursion () =
  (* is_even / is_odd *)
  let b = Builder.create () in
  let is_even = 0 and is_odd = 1 in
  let even_idx =
    Builder.func b ~params:[ I32 ] ~results:[ I32 ] ~locals:[]
      [
        LocalGet 0;
        ITestop I32;
        If
          ( BlockVal I32,
            [ Builder.i32c 1 ],
            [ LocalGet 0; Builder.i32c 1; IBinop (I32, Sub); Call is_odd ] );
      ]
  in
  let odd_idx =
    Builder.func b ~params:[ I32 ] ~results:[ I32 ] ~locals:[]
      [
        LocalGet 0;
        ITestop I32;
        If
          ( BlockVal I32,
            [ Builder.i32c 0 ],
            [ LocalGet 0; Builder.i32c 1; IBinop (I32, Sub); Call is_even ] );
      ]
  in
  Alcotest.(check int) "indices" is_even even_idx;
  Alcotest.(check int) "indices" is_odd odd_idx;
  Builder.export_func b "even" even_idx;
  let m = Builder.build b in
  check_result m "even" [ VI32 10l ] [ VI32 1l ];
  check_result m "even" [ VI32 13l ] [ VI32 0l ]

let test_call_indirect () =
  let b = Builder.create () in
  let add = Builder.func b ~params:[ I32; I32 ] ~results:[ I32 ] ~locals:[]
      [ LocalGet 0; LocalGet 1; IBinop (I32, Add) ]
  in
  let sub = Builder.func b ~params:[ I32; I32 ] ~results:[ I32 ] ~locals:[]
      [ LocalGet 0; LocalGet 1; IBinop (I32, Sub) ]
  in
  let tidx = Builder.typeidx b { params = [ I32; I32 ]; results = [ I32 ] } in
  let dispatch = Builder.func b ~params:[ I32; I32; I32 ] ~results:[ I32 ] ~locals:[]
      [ LocalGet 1; LocalGet 2; LocalGet 0; CallIndirect tidx ]
  in
  ignore (Builder.table b ~min:2 ());
  Builder.elem b ~table:0 ~offset:0 [ add; sub ];
  Builder.export_func b "dispatch" dispatch;
  let m = Builder.build b in
  check_result m "dispatch" [ VI32 0l; VI32 10l; VI32 3l ] [ VI32 13l ];
  check_result m "dispatch" [ VI32 1l; VI32 10l; VI32 3l ] [ VI32 7l ];
  expect_trap m "dispatch" [ VI32 5l; VI32 0l; VI32 0l ] "undefined element"

let test_host_function_call () =
  let b = Builder.create () in
  let host_idx = Builder.import_func b ~module_:"env" ~name:"mul3" ~params:[ I32 ] ~results:[ I32 ] in
  let f = Builder.func b ~params:[ I32 ] ~results:[ I32 ] ~locals:[]
      [ LocalGet 0; Call host_idx; Builder.i32c 1; IBinop (I32, Add) ]
  in
  Builder.export_func b "f" f;
  let ast, cm = Tiers.of_module (Builder.build b) in
  let impl args =
    match args.(0) with
    | VI32 v -> [ VI32 (Int32.mul v 3l) ]
    | _ -> assert false
  in
  (* one host spec, linked by both tiers *)
  let imports = [ Instance.host ~module_:"env" ~name:"mul3" ~params:[ I32 ] ~results:[ I32 ] impl ] in
  let inst = Interp.instantiate ~imports ast in
  let got = Interp.invoke (Option.get (Instance.export_func inst "f")) [ VI32 5l ] in
  Alcotest.(check (list value_testable)) "interp host" [ VI32 16l ] got;
  let finst = Fastinterp.instantiate ~imports cm in
  let got = Fastinterp.invoke finst "f" [ VI32 5l ] in
  Alcotest.(check (list value_testable)) "fast host" [ VI32 16l ] got

(* ------------------------------------------------------------------ *)
(* Memory *)

let with_memory_module body =
  let b = Builder.create () in
  ignore (Builder.memory b ~min:1 ());
  let f = Builder.func b ~params:[ I32; I32 ] ~results:[ I32 ] ~locals:[] body in
  Builder.export_func b "f" f;
  Builder.build b

(* A memory whose every aligned word differs, for the word, addressing
   and copy cases. *)
let pattern = String.init 65536 (fun i -> Char.chr (((i * 7) + (i lsr 8)) land 0xff))

let patterned_memory b =
  ignore (Builder.memory b ~min:1 ());
  Builder.data b ~memory:0 ~offset:0 pattern

let test_memory_load_store () =
  let m =
    with_memory_module
      [
        LocalGet 0;
        LocalGet 1;
        Store (I32, None, { align = 2; offset = 0 });
        LocalGet 0;
        Load (I32, None, { align = 2; offset = 0 });
      ]
  in
  check_result m "f" [ VI32 100l; VI32 0xdeadbeefl ] [ VI32 0xdeadbeefl ]

let test_memory_sized_access () =
  let m =
    with_memory_module
      [
        LocalGet 0;
        LocalGet 1;
        Store (I32, Some P8, { align = 0; offset = 0 });
        LocalGet 0;
        Load (I32, Some (P8, SX), { align = 0; offset = 0 });
      ]
  in
  check_result m "f" [ VI32 10l; VI32 0xffl ] [ VI32 (-1l) ];
  let zx =
    with_memory_module
      [
        LocalGet 0;
        LocalGet 1;
        Store (I32, Some P8, { align = 0; offset = 0 });
        LocalGet 0;
        Load (I32, Some (P8, ZX), { align = 0; offset = 0 });
      ]
  in
  check_result zx "f" [ VI32 10l; VI32 0xffl ] [ VI32 255l ]

let test_memory_oob_traps () =
  let m = with_memory_module [ LocalGet 0; Load (I32, None, { align = 2; offset = 0 }) ] in
  (* One page = 65536 bytes; reading at 65533 needs 4 bytes -> trap *)
  expect_trap m "f" [ VI32 65533l; VI32 0l ] "out of bounds";
  expect_trap m "f" [ VI32 (-4l); VI32 0l ] "out of bounds";
  check_result m "f" [ VI32 65532l; VI32 0l ] [ VI32 0l ]

let test_memory_offset_overflow_traps () =
  let m = with_memory_module [ LocalGet 0; Load (I32, None, { align = 2; offset = 65535 }) ] in
  expect_trap m "f" [ VI32 4l; VI32 0l ] "out of bounds"

let test_memory_grow_and_size () =
  let b = Builder.create () in
  ignore (Builder.memory b ~min:1 ~max:3 ());
  let f = Builder.func b ~params:[ I32 ] ~results:[ I32 ] ~locals:[] [ LocalGet 0; MemoryGrow ] in
  let g = Builder.func b ~params:[] ~results:[ I32 ] ~locals:[] [ MemorySize ] in
  Builder.export_func b "grow" f;
  Builder.export_func b "size" g;
  let m = Builder.build b in
  check_result m "size" [] [ VI32 1l ];
  check_result m "grow" [ VI32 1l ] [ VI32 1l ];
  check_result m "grow" [ VI32 5l ] [ VI32 (-1l) ]

let test_data_segment () =
  let b = Builder.create () in
  ignore (Builder.memory b ~min:1 ());
  Builder.data b ~memory:0 ~offset:16 "\x2a\x00\x00\x00";
  let f = Builder.func b ~params:[] ~results:[ I32 ] ~locals:[]
      [ Builder.i32c 16; Load (I32, None, { align = 2; offset = 0 }) ]
  in
  Builder.export_func b "f" f;
  let m = Builder.build b in
  check_result m "f" [] [ VI32 42l ]

(* i64 words through each address shape: a plain address, x*8 + c,
   x << 3 + c and a register base x*8 + r. Each (x, r) below puts the
   word at 65528, the last in-bounds i64 of the page; a static offset
   of 1 puts it one byte past. Both tiers must agree on the value, the
   trap message and the memory. *)
let i64_word_addresses =
  let scaled by = [ LocalGet 0; Builder.i32c 8; IBinop (I32, Mul) ] @ by in
  [
    ("plain", [ LocalGet 0 ], (65528, 0));
    ("x*8+16", scaled [ Builder.i32c 16; IBinop (I32, Add) ], (8189, 0));
    ( "x<<3+16",
      [ LocalGet 0; Builder.i32c 3; IBinop (I32, Shl); Builder.i32c 16; IBinop (I32, Add) ],
      (8189, 0) );
    ("x*8+r", scaled [ LocalGet 1; IBinop (I32, Add) ], (8000, 1528));
  ]

let test_memory_i64_words () =
  let b = Builder.create () in
  patterned_memory b;
  let name op shape off = Printf.sprintf "%s %s +%d" op shape off in
  List.iter
    (fun (shape, addr, _) ->
      List.iter
        (fun off ->
          let m = { align = 3; offset = off } in
          Builder.export_func b (name "load" shape off)
            (Builder.func b ~params:[ I32; I32 ] ~results:[ I64 ] ~locals:[]
               (addr @ [ Load (I64, None, m) ]));
          Builder.export_func b (name "store" shape off)
            (Builder.func b ~params:[ I32; I32; I64 ] ~results:[] ~locals:[]
               (addr @ [ LocalGet 2; Store (I64, None, m) ])))
        [ 0; 1 ])
    i64_word_addresses;
  let m = Builder.build b in
  let last = String.get_int64_le pattern 65528 and v = 0x0123456789abcdefL in
  List.iter
    (fun (shape, _, (x, r)) ->
      let call op off args =
        on_both_tiers m (name op shape off) (VI32 (Int32.of_int x) :: VI32 (Int32.of_int r) :: args)
      in
      let oob what = function
        | Trapped msg, mem ->
          Alcotest.(check string) (what ^ ": trap") "out of bounds memory access" msg;
          Alcotest.(check int64) (what ^ ": memory untouched") last (Bytes.get_int64_le mem 65528)
        | Returned _, _ -> Alcotest.failf "%s %s: expected an out-of-bounds trap" what shape
      in
      (match call "load" 0 [] with
      | Returned [ VI64 got ], _ -> Alcotest.(check int64) ("load " ^ shape) last got
      | _ -> Alcotest.failf "load %s: expected one i64" shape);
      (match call "store" 0 [ VI64 v ] with
      | Returned [], mem ->
        Alcotest.(check int64) ("store " ^ shape) v (Bytes.get_int64_le mem 65528)
      | _ -> Alcotest.failf "store %s: expected no result" shape);
      oob ("load one past, " ^ shape) (call "load" 1 []);
      oob ("store one past, " ^ shape) (call "store" 1 [ VI64 v ]))
    i64_word_addresses

(* ------------------------------------------------------------------ *)
(* Globals *)

let test_globals () =
  let b = Builder.create () in
  let g = Builder.global b ~mut:true ~init:(VI32 10l) in
  let f = Builder.func b ~params:[ I32 ] ~results:[ I32 ] ~locals:[]
      [ GlobalGet g; LocalGet 0; IBinop (I32, Add); GlobalSet g; GlobalGet g ]
  in
  Builder.export_func b "f" f;
  let m = Builder.build b in
  (* Each instance starts fresh at 10. *)
  check_result m "f" [ VI32 5l ] [ VI32 15l ]

(* ------------------------------------------------------------------ *)
(* Binary codec *)

let test_encode_decode_roundtrip () =
  let b = Builder.create () in
  ignore (Builder.memory b ~min:2 ~max:10 ());
  ignore (Builder.global b ~mut:true ~init:(VF64 3.25));
  Builder.data b ~memory:0 ~offset:8 "hello";
  let f = Builder.func b ~params:[ I32; F64 ] ~results:[ F64 ] ~locals:[ I64; F32 ]
      [
        Block
          (BlockVal F64,
           [
             LocalGet 1;
             LocalGet 0;
             Cvtop F64ConvertI32S;
             FBinop (F64, Fadd);
           ]);
      ]
  in
  Builder.export_func b "f" f;
  let m = Builder.build b in
  Validate.validate m;
  let bytes = Encode.encode m in
  let m' = Decode.decode bytes in
  Validate.validate m';
  let bytes' = Encode.encode m' in
  Alcotest.(check string) "stable encoding" (Watz_util.Hex.encode bytes) (Watz_util.Hex.encode bytes');
  check_result m' "f" [ VI32 2l; VF64 0.5 ] [ VF64 2.5 ]

let test_decode_rejects_garbage () =
  let bad magic = try ignore (Decode.decode magic); false with Decode.Malformed _ -> true in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "bad magic" true (bad "\x00bsm\x01\x00\x00\x00");
  Alcotest.(check bool) "bad version" true (bad "\x00asm\x02\x00\x00\x00");
  Alcotest.(check bool) "truncated section" true (bad "\x00asm\x01\x00\x00\x00\x01\xff")

let test_leb_roundtrip =
  QCheck.Test.make ~name:"codec: sleb/uleb roundtrip" ~count:500 QCheck.int64 (fun v ->
      let w = Watz_util.Bytesio.Writer.create () in
      Watz_util.Bytesio.Writer.sleb w v;
      let r = Watz_util.Bytesio.Reader.of_string (Watz_util.Bytesio.Writer.contents w) in
      Int64.equal v (Watz_util.Bytesio.Reader.sleb r ~max_bits:64))

(* 32-bit LEB128 bounds: u32 fields (here a memarg offset) and i32.const
   immediates, through the real encoder and decoder. *)
let leb32_table =
  [ 0; 63; 64; 127; 128; -1; -64; -65; Int32.(to_int min_int); Int32.(to_int max_int); 0xFFFFFFFF ]

let test_leb32_decode_table () =
  List.iter
    (fun x ->
      let body =
        [ Const (VI32 (Int32.of_int x)); Load (I32, None, { align = 0; offset = x land 0xFFFFFFFF }); Drop ]
      in
      let b = Builder.create () in
      ignore (Builder.memory b ~min:1 ());
      ignore (Builder.func b ~params:[] ~results:[] ~locals:[] body);
      match (Decode.decode (Encode.encode (Builder.build b))).funcs with
      | [ f ] -> Alcotest.(check bool) (Printf.sprintf "%d decodes back" x) true (f.body = body)
      | _ -> Alcotest.fail "expected one function")
    leb32_table

(* A module with one memory and one [] -> [] function whose body is the
   raw instruction bytes [code]. *)
let module_with_body code =
  let section id payload =
    String.make 1 (Char.chr id) ^ String.make 1 (Char.chr (String.length payload)) ^ payload
  in
  let body = "\x00" ^ code ^ "\x0b" in
  "\x00asm\x01\x00\x00\x00" ^ section 1 "\x01\x60\x00\x00" ^ section 3 "\x01\x00"
  ^ section 5 "\x01\x00\x01"
  ^ section 10 ("\x01" ^ String.make 1 (Char.chr (String.length body)) ^ body)

let test_leb32_bounds () =
  let decodes code expected =
    match (Decode.decode (module_with_body code)).funcs with
    | [ f ] -> Alcotest.(check bool) (String.escaped code) true (f.body = expected)
    | _ -> Alcotest.fail "expected one function"
  in
  decodes "\x41\xff\xff\xff\xff\x07\x1a" [ Const (VI32 Int32.max_int); Drop ];
  decodes "\x41\x80\x80\x80\x80\x78\x1a" [ Const (VI32 Int32.min_int); Drop ];
  decodes "\x41\x00\x28\x02\xff\xff\xff\xff\x0f\x1a"
    [ Const (VI32 0l); Load (I32, None, { align = 2; offset = 0xFFFFFFFF }); Drop ];
  let malformed code =
    match Decode.decode (module_with_body code) with
    | _ -> Alcotest.failf "%s: decoded" (String.escaped code)
    | exception Decode.Malformed msg ->
      Alcotest.(check string) (String.escaped code) "malformed LEB128 integer" msg
  in
  (* 5-byte i32.const whose bits above bit 31 are not sign copies *)
  malformed "\x41\x80\x80\x80\x80\x10\x1a";
  malformed "\x41\xff\xff\xff\xff\x0f\x1a";
  malformed "\x41\xff\xff\xff\xff\x6f\x1a";
  (* 5-byte u32 fields with payload bits above bit 31 *)
  malformed "\x41\x00\x28\x02\x80\x80\x80\x80\x10\x1a";
  malformed "\x20\xff\xff\xff\xff\x1f\x1a";
  (* 6-byte overlong encodings *)
  malformed "\x41\x80\x80\x80\x80\x80\x00\x1a";
  malformed "\x41\xff\xff\xff\xff\xff\x7f\x1a";
  malformed "\x41\x00\x28\x02\x80\x80\x80\x80\x80\x00\x1a"

let test_leb32_roundtrip =
  QCheck.Test.make ~name:"codec: 32-bit sleb/uleb roundtrip" ~count:500 QCheck.int32 (fun v ->
      let w = Watz_util.Bytesio.Writer.create () in
      Watz_util.Bytesio.Writer.sleb w (Int64.of_int32 v);
      Watz_util.Bytesio.Writer.uleb w (Int32.to_int v land 0xFFFFFFFF);
      let r = Watz_util.Bytesio.Reader.of_string (Watz_util.Bytesio.Writer.contents w) in
      let s = Watz_util.Bytesio.Reader.sleb_int r ~max_bits:32 in
      let u = Watz_util.Bytesio.Reader.uleb r ~max_bits:32 in
      s = Int32.to_int v && u = Int32.to_int v land 0xFFFFFFFF && Watz_util.Bytesio.Reader.eof r)

(* CPU seconds taken by [f ()], with its result. The load path handles
   bytecode from the normal world, so its work must stay linear in the
   input. At the sizes used, linear work takes milliseconds and the
   quadratic shapes these cases pin took seconds, so a 1 s bound tells
   them apart on any machine. *)
let timed f =
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

let check_under_1s what seconds =
  Alcotest.(check bool) (Printf.sprintf "%s in %.3f s (< 1 s)" what seconds) true (seconds < 1.0)

let test_custom_sections_linear () =
  let names = List.init 40_000 string_of_int in
  let bytes = Encode.encode { empty_module with customs = List.map (fun n -> (n, "")) names } in
  let m, seconds = timed (fun () -> Decode.decode bytes) in
  check_under_1s "40,000 custom sections decode" seconds;
  Alcotest.(check (list string)) "original order" names (List.map fst m.customs)

(* Every numeric instruction: the decoder maps each of their opcodes to
   one shared value, so the roundtrip below checks that table. *)
let numeric_instr_gen =
  let open QCheck.Gen in
  let ity = oneofl [ I32; I64 ] and fty = oneofl [ F32; F64 ] in
  oneof
    [
      map (fun t -> ITestop t) ity;
      map2 (fun t o -> IUnop (t, o)) ity (oneofl [ Clz; Ctz; Popcnt ]);
      map2
        (fun t o -> IBinop (t, o))
        ity
        (oneofl [ Add; Sub; Mul; DivS; DivU; RemS; RemU; And; Or; Xor; Shl; ShrS; ShrU; Rotl; Rotr ]);
      map2 (fun t o -> IRelop (t, o)) ity (oneofl [ Eq; Ne; LtS; LtU; GtS; GtU; LeS; LeU; GeS; GeU ]);
      map2 (fun t o -> FUnop (t, o)) fty (oneofl [ Abs; Neg; Ceil; Floor; Trunc; Nearest; Sqrt ]);
      map2 (fun t o -> FBinop (t, o)) fty (oneofl [ Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax; Copysign ]);
      map2 (fun t o -> FRelop (t, o)) fty (oneofl [ Feq; Fne; Flt; Fgt; Fle; Fge ]);
      map
        (fun o -> Cvtop o)
        (oneofl
           [ I32WrapI64; I32TruncF32S; I32TruncF32U; I32TruncF64S; I32TruncF64U; I64ExtendI32S;
             I64ExtendI32U; I64TruncF32S; I64TruncF32U; I64TruncF64S; I64TruncF64U;
             F32ConvertI32S; F32ConvertI32U; F32ConvertI64S; F32ConvertI64U; F32DemoteF64;
             F64ConvertI32S; F64ConvertI32U; F64ConvertI64S; F64ConvertI64U; F64PromoteF32;
             I32ReinterpretF32; I64ReinterpretF64; F32ReinterpretI32; F64ReinterpretI64 ]);
    ]

(* Bodies with nested block, loop and if (with and without else, empty
   arms included) up to four levels deep. They need not validate: the
   codec roundtrip is structural. *)
let nested_body_gen =
  let open QCheck.Gen in
  let bt = oneofl [ BlockEmpty; BlockVal I32; BlockVal F64 ] in
  let leaf =
    frequency
      [
        (2, map (fun n -> Const (VI32 (Int32.of_int n))) small_signed_int);
        (1, map (fun n -> Const (VI64 (Int64.of_int n))) small_signed_int);
        (1, map (fun n -> Const (VF64 (float_of_int n))) small_signed_int);
        (2, map (fun n -> LocalGet n) (int_bound 2));
        (1, map (fun n -> BrIf n) (int_bound 3));
        (1, map2 (fun ts d -> BrTable (Array.of_list ts, d)) (list_size (int_bound 3) (int_bound 3)) (int_bound 3));
        (1, oneofl [ Nop; Drop; Select; Return; Unreachable; MemorySize; MemoryGrow ]);
        (3, numeric_instr_gen);
      ]
  in
  let seq =
    fix (fun self depth ->
        let arm = if depth = 0 then list_size (int_bound 3) leaf else self (depth - 1) in
        list_size (int_bound 4)
          (frequency
             [
               (3, leaf);
               (1, map2 (fun b xs -> Block (b, xs)) bt arm);
               (1, map2 (fun b xs -> Loop (b, xs)) bt arm);
               (1, map3 (fun b t e -> If (b, t, e)) bt arm (oneof [ return []; arm ]));
             ]))
  in
  int_bound 4 >>= seq

let qcheck_codec_roundtrip_nested =
  QCheck.Test.make ~name:"decode (encode m) = m with nested control" ~count:300
    (QCheck.make nested_body_gen)
    (fun body ->
      let m = single_func ~params:[ I32; I32 ] ~results:[] ~locals:[ F64 ] body in
      Decode.decode (Encode.encode m) = m)

(* ------------------------------------------------------------------ *)
(* Validator *)

let expect_invalid m fragment =
  match Validate.validate m with
  | () -> Alcotest.failf "expected validation failure (%s)" fragment
  | exception Validate.Invalid msg ->
    Alcotest.(check bool)
      (Printf.sprintf "invalid: %s contains %s" msg fragment)
      true
      (fragment = "" || Astring.String.is_infix ~affix:fragment msg)

let test_validator_rejects_type_errors () =
  expect_invalid
    (single_func ~params:[] ~results:[ I32 ] [ Const (VF64 1.0) ])
    "type mismatch";
  expect_invalid
    (single_func ~params:[] ~results:[ I32 ] [ Builder.i32c 1; Builder.i32c 2 ])
    "";
  expect_invalid (single_func ~params:[] ~results:[ I32 ] []) "";
  expect_invalid
    (single_func ~params:[] ~results:[] [ IBinop (I32, Add) ])
    "underflow";
  expect_invalid
    (single_func ~params:[] ~results:[] [ LocalGet 3 ])
    "out of range";
  expect_invalid
    (single_func ~params:[] ~results:[] [ Br 4 ])
    "out of range"

let test_validator_rejects_bad_memory_use () =
  expect_invalid
    (single_func ~params:[ I32 ] ~results:[ I32 ]
       [ LocalGet 0; Load (I32, None, { align = 2; offset = 0 }) ])
    "no memory";
  let b = Builder.create () in
  ignore (Builder.memory b ~min:1 ());
  let f = Builder.func b ~params:[ I32 ] ~results:[ I32 ] ~locals:[]
      [ LocalGet 0; Load (I32, None, { align = 5; offset = 0 }) ]
  in
  Builder.export_func b "f" f;
  expect_invalid (Builder.build b) "alignment";
  (* The decoder reads a memarg's fields as u32s, so a built AST must
     stay in that range too; the largest offset validates and is out
     of bounds of any memory. *)
  let with_memarg memarg =
    let b = Builder.create () in
    ignore (Builder.memory b ~min:1 ());
    let f = Builder.func b ~params:[ I32 ] ~results:[ I32 ] ~locals:[] [ LocalGet 0; Load (I32, None, memarg) ] in
    Builder.export_func b "f" f;
    Builder.build b
  in
  expect_invalid (with_memarg { align = 2; offset = -8 }) "memory offset -8 out of range";
  expect_invalid (with_memarg { align = 2; offset = 1 lsl 32 }) "memory offset 4294967296 out of range";
  expect_invalid (with_memarg { align = -1; offset = 0 }) "alignment -1 out of range";
  expect_trap (with_memarg { align = 2; offset = 0xffff_ffff }) "f" [ VI32 0l ] "out of bounds memory access"

let test_validator_accepts_unreachable_code () =
  let m =
    single_func ~params:[] ~results:[ I32 ]
      [ Builder.i32c 1; Return; Unreachable ]
  in
  Validate.validate m;
  check_result m "f" [] [ VI32 1l ]

let test_validator_rejects_immutable_global_set () =
  let b = Builder.create () in
  let g = Builder.global b ~mut:false ~init:(VI32 0l) in
  let f = Builder.func b ~params:[] ~results:[] ~locals:[] [ Builder.i32c 1; GlobalSet g ] in
  Builder.export_func b "f" f;
  expect_invalid (Builder.build b) "immutable"

let test_validator_deep_stack_linear () =
  let n = 40_000 in
  let m =
    single_func ~params:[] ~results:[]
      (List.init n (fun _ -> Const (VI32 0l)) @ List.init n (fun _ -> Drop))
  in
  let (), seconds = timed (fun () -> Validate.validate m) in
  check_under_1s "40,000-deep operand stack validates" seconds

(* One type per function: each function looks up its own type and
   calls through the table with it. *)
let test_validator_many_types_linear () =
  let n = 40_000 in
  let m =
    {
      empty_module with
      types = List.init n (fun _ -> { params = []; results = [] });
      funcs = List.init n (fun i -> { ftype = i; locals = []; body = [ Const (VI32 0l); CallIndirect i ] });
      tables = [ { min = 1; max = None } ];
    }
  in
  let (), seconds = timed (fun () -> Validate.validate m) in
  check_under_1s "40,000 types and functions validate" seconds;
  let inst, seconds = timed (fun () -> Interp.instantiate m) in
  check_under_1s "40,000 types and functions instantiate (interp)" seconds;
  Alcotest.(check int) "functions" n (Array.length inst.Instance.funcs)

(* The interp tier at run time: a [call_indirect] reads its type, and a
   [br_table] its target, in constant time, however many types or
   targets the module declares. *)
let test_interp_call_indirect_linear () =
  let n = 40_000 and calls = 200_000 in
  let last = n - 1 in
  let m =
    {
      empty_module with
      types = List.init n (fun _ -> { params = []; results = [] });
      funcs =
        [
          { ftype = last; locals = []; body = [] };
          {
            ftype = last;
            locals = [ I32 ];
            body =
              [
                Loop
                  ( BlockEmpty,
                    [
                      Builder.i32c 0;
                      CallIndirect last;
                      LocalGet 0;
                      Builder.i32c 1;
                      IBinop (I32, Add);
                      LocalTee 0;
                      Builder.i32c calls;
                      IRelop (I32, LtS);
                      BrIf 0;
                    ] );
              ];
          };
        ];
      tables = [ { min = 1; max = None } ];
      elems = [ { etable = 0; eoffset = [ Builder.i32c 0 ]; einit = [ 0 ] } ];
      exports = [ { exp_name = "run"; edesc = ExportFunc 1 } ];
    }
  in
  Validate.validate m;
  let inst = Interp.instantiate m in
  let run = Option.get (Instance.export_func inst "run") in
  let _, seconds = timed (fun () -> Interp.invoke run []) in
  check_under_1s "200,000 call_indirect at the last of 40,000 types (interp)" seconds

let test_interp_br_table_linear () =
  let n = 40_000 and runs = 100_000 in
  (* Every target but the last (0) leaves both blocks and skips the
     count, so the result counts the runs that took the last target. *)
  let targets = Array.init n (fun i -> if i = n - 1 then 0 else 1) in
  let m =
    single_func ~params:[] ~results:[ I32 ] ~locals:[ I32; I32 ]
      [
        Loop
          ( BlockEmpty,
            [
              Block
                ( BlockEmpty,
                  [
                    Block (BlockEmpty, [ Builder.i32c (n - 1); BrTable (targets, 1) ]);
                    LocalGet 1;
                    Builder.i32c 1;
                    IBinop (I32, Add);
                    LocalSet 1;
                  ] );
              LocalGet 0;
              Builder.i32c 1;
              IBinop (I32, Add);
              LocalTee 0;
              Builder.i32c runs;
              IRelop (I32, LtS);
              BrIf 0;
            ] );
        LocalGet 1;
      ]
  in
  Validate.validate m;
  let inst = Interp.instantiate m in
  let f = Option.get (Instance.export_func inst "f") in
  let got, seconds = timed (fun () -> Interp.invoke f []) in
  check_under_1s "100,000 br_table at the last of 40,000 targets (interp)" seconds;
  Alcotest.(check (list value_testable)) "last target taken every run" [ VI32 (Int32.of_int runs) ] got

(* ------------------------------------------------------------------ *)
(* Front-door parity. The fast tier loads bytes in one pass
   ([Fastinterp.compile_bytes]); the AST path decodes, then validates.
   On any bytes both must give one verdict with one message, and the
   cases below are the orders a one-pass loader can get wrong: a
   decoding error anywhere beats a validation error, and the
   module-level checks keep their order around the bodies. The shapes
   need raw bytes, since the AST cannot hold an unknown opcode, an
   explicit empty else or a count mismatch. *)

let uleb n =
  let w = Watz_util.Bytesio.Writer.create () in
  Watz_util.Bytesio.Writer.uleb w n;
  Watz_util.Bytesio.Writer.contents w

let raw_module sections =
  "\x00asm\x01\x00\x00\x00"
  ^ String.concat ""
      (List.map (fun (id, payload) -> String.make 1 (Char.chr id) ^ uleb (String.length payload) ^ payload)
         sections)

let vec items = uleb (List.length items) ^ String.concat "" items

(* A code-section entry with no locals; [code] excludes the closing end. *)
let code_entry code = uleb (String.length code + 2) ^ "\x00" ^ code ^ "\x0b"

let type_void = "\x60\x00\x00" (* [] -> [] *)
let type_i32 = "\x60\x00\x01\x7f" (* [] -> [i32] *)
let ill_typed = "\x41\x00\x42\x00\x6a\x1a" (* i32.const 0; i64.const 0; i32.add; drop *)
let ill_typed_error = "invalid: function 0: type mismatch: expected i32, got i64"

let front_door_verdict f =
  match f () with
  | () -> "accepted"
  | exception Decode.Malformed m -> "malformed: " ^ m
  | exception Validate.Invalid m -> "invalid: " ^ m

(* Both front doors' verdict, checked equal: interp's decode, then
   validate, and fast's one pass. *)
let front_doors bytes =
  let ast = front_door_verdict (fun () -> Validate.validate (Decode.decode bytes)) in
  let onepass = front_door_verdict (fun () -> ignore (Fastinterp.compile_bytes bytes)) in
  Alcotest.(check string) "one pass = decode, then validate" ast onepass;
  ast

let check_front_doors what expected bytes =
  Alcotest.(check string) what expected (front_doors bytes)

let test_parity_decode_error_beats_type_error () =
  check_front_doors "type error in function 0, unknown opcode in function 1"
    "malformed: unknown opcode 0x06"
    (raw_module
       [ (1, vec [ type_void ]); (3, vec [ "\x00"; "\x00" ]);
         (10, vec [ code_entry ill_typed; code_entry "\x06" ]) ]);
  check_front_doors "type error, then a truncated data section" "malformed: unexpected end of input"
    (raw_module
       [ (1, vec [ type_void ]); (3, vec [ "\x00" ]); (5, vec [ "\x00\x01" ]);
         (10, vec [ code_entry ill_typed ]);
         (11, vec [ "\x00\x41\x00\x0b\x05ab" ]) ]);
  check_front_doors "type index out of range, then a bad body opcode" "malformed: unknown opcode 0x06"
    (raw_module [ (1, vec [ type_void ]); (3, vec [ "\x05" ]); (10, vec [ code_entry "\x06" ]) ]);
  check_front_doors "fewer code entries than functions, and a type error"
    "malformed: function and code section lengths disagree (2 vs 1)"
    (raw_module
       [ (1, vec [ type_void ]); (3, vec [ "\x00"; "\x00" ]); (10, vec [ code_entry ill_typed ]) ]);
  (* Both errors in one body: a pass that ends at the failed check must
     still find the decoding error after it. *)
  check_front_doors "type error, then an unknown opcode, in function 0"
    "malformed: unknown opcode 0x06"
    (raw_module
       [ (1, vec [ type_void ]); (3, vec [ "\x00" ]); (10, vec [ code_entry (ill_typed ^ "\x06") ]) ])

let test_parity_check_order () =
  check_front_doors "a body's type error beats a duplicate export" ill_typed_error
    (raw_module
       [ (1, vec [ type_void ]); (3, vec [ "\x00" ]);
         (7, vec [ "\x01f\x00\x00"; "\x01f\x00\x00" ]);
         (10, vec [ code_entry ill_typed ]) ]);
  check_front_doors "type index out of range beats a body's type error"
    "invalid: type index 1 out of range"
    (raw_module
       [ (1, vec [ type_void ]); (3, vec [ "\x00"; "\x01" ]);
         (10, vec [ code_entry ill_typed; code_entry "" ]) ]);
  check_front_doors "the first function's error wins" ill_typed_error
    (raw_module
       [ (1, vec [ type_void ]); (3, vec [ "\x00"; "\x00" ]);
         (10, vec [ code_entry ill_typed; code_entry "\x41\x00" ]) ]);
  check_front_doors "no code section: the header is checked" "invalid: at most one memory in the MVP"
    (raw_module [ (5, vec [ "\x00\x01"; "\x00\x01" ]); (8, uleb 0) ]);
  check_front_doors "no code section: the start function is checked" "invalid: start function 0 out of range"
    (raw_module [ (1, vec [ type_void ]); (8, uleb 0) ])

let test_parity_empty_else () =
  let requires_else = "invalid: function 0: if with result type requires else" in
  let body code = raw_module [ (1, vec [ type_i32 ]); (3, vec [ "\x00" ]); (10, vec [ code_entry code ]) ] in
  (* i32.const 1; if (result i32) i32.const 2 [else] end *)
  check_front_doors "explicit empty else" requires_else (body "\x41\x01\x04\x7f\x41\x02\x05\x0b");
  check_front_doors "no else" requires_else (body "\x41\x01\x04\x7f\x41\x02\x0b");
  check_front_doors "empty else, empty result" "accepted"
    (raw_module
       [ (1, vec [ type_void ]); (3, vec [ "\x00" ]);
         (10, vec [ code_entry "\x41\x01\x04\x40\x01\x05\x0b" ]) ])

(* A [return] ends the then-arm: the flattener emits no jump over the
   else arm, and the else arm is live again. *)
let test_parity_return_in_then_arm () =
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ]
      [ LocalGet 0; If (BlockVal I32, [ Builder.i32c 7; Return ], [ Builder.i32c 3 ]) ]
  in
  check_result m "f" [ VI32 1l ] [ VI32 7l ];
  check_result m "f" [ VI32 0l ] [ VI32 3l ];
  let bytes = Encode.encode m in
  check_front_doors "return in a value-carrying then-arm, then else" "accepted" bytes;
  let cm = Fastinterp.compile_bytes bytes in
  Alcotest.(check int) "one jump: the return's" 1
    (Array.fold_left
       (fun n op -> match op with Fastinterp.OJmp _ -> n + 1 | _ -> n)
       0 cm.Fastinterp.cm_bodies.(0).Fastinterp.cb_code);
  Alcotest.(check (list value_testable)) "else arm" [ VI32 3l ]
    (Fastinterp.invoke (Fastinterp.instantiate cm) "f" [ VI32 0l ])

(* Code after an unconditional branch flattens to nothing, nested
   blocks included, and the block's end makes the code live again. *)
let test_dead_code_flattens_to_nothing () =
  let dead =
    [ Block (BlockEmpty, [ Br 0 ]); Loop (BlockEmpty, [ Br 0 ]);
      If (BlockVal I32, [ Builder.i32c 1 ], [ Unreachable; Builder.i32c 2 ]); Drop; Builder.i32c 9 ]
  in
  let f tail =
    single_func ~params:[ I32 ] ~results:[ I32 ]
      [ Block (BlockVal I32, [ Builder.i32c 5; LocalGet 0; BrIf 0; Drop; Builder.i32c 6; Br 0 ] @ tail) ]
  in
  let code m = Marshal.to_string (Fastinterp.compile_bytes (Encode.encode m)).Fastinterp.cm_bodies [] in
  Alcotest.(check bool) "dead tail emits no op" true (String.equal (code (f [])) (code (f dead)));
  check_result (f dead) "f" [ VI32 1l ] [ VI32 5l ];
  check_result (f dead) "f" [ VI32 0l ] [ VI32 6l ]

(* Reading and checking a leaf allocates nothing: the decoder passes
   each leaf with an int immediate as ints and constant constructors,
   and the checker's steps for them build nothing either. One body
   repeats a chunk of every such leaf [k] times inside one block, so
   ten times the chunks must cost no more words. Building each leaf as
   an [instr], and the checker's list walks, cost 2-7 words a leaf. *)
let test_leaf_events_allocate_nothing () =
  let ma align offset = { align; offset } in
  let chunk =
    [ LocalGet 0; Load (I32, None, ma 2 4); LocalSet 0;
      LocalGet 0; LocalGet 0; Store (I32, None, ma 2 8);
      LocalGet 0; Load (F64, None, ma 3 16); LocalTee 1; Drop;
      LocalGet 0; LocalGet 1; Store (F64, None, ma 3 24);
      LocalGet 0; LocalGet 0; Load (I32, Some (P8, SX), ma 0 1); Store (I32, Some P8, ma 0 2);
      GlobalGet 0; GlobalSet 0;
      Const (VI32 123_456l); GlobalSet 0;
      Const (VI32 (-1l)); BrIf 0;
      Call 0;
      Const (VI32 0l); CallIndirect 0 ]
  in
  let m =
    {
      empty_module with
      types = [ { params = []; results = [] } ];
      tables = [ { min = 1; max = None } ];
      memories = [ { min = 1; max = None } ];
      globals = [ { gtype = { content = I32; mut = Mutable }; ginit = [ Const (VI32 0l) ] } ];
    }
  in
  let env = Validate.header m [ 0 ] in
  let words k =
    let w = Watz_util.Bytesio.Writer.create () in
    Encode.expr w [ Block (BlockEmpty, List.concat (List.init k (fun _ -> chunk))) ];
    let r = Watz_util.Bytesio.Reader.of_string (Watz_util.Bytesio.Writer.contents w) in
    let ctx = Validate.checker env 0 [ I32; F64 ] in
    let before = Gc.minor_words () in
    ignore (Decode.body ~build:false Validate.sink ctx r);
    Gc.minor_words () -. before
  in
  let small = words 1_000 and large = words 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words at 1,000 chunks, %.0f at 10,000 (%d leaves a chunk)" small large
       (List.length chunk))
    true
    (large -. small < 1_000.)

(* Rejecting a module builds no AST: the first failed check ends the
   pass, and the decoding that follows, so that a later decoding error
   can still win, builds no function body. Function 0 is ill-typed;
   function 1 holds [k] chunks of [local.get 0; i32.const 1; i32.add;
   local.set 0], so ten times the chunks must cost no more words.
   Decoding them with [Decode.decode] costs about 23 words a chunk. *)
let test_reject_builds_no_ast () =
  let chunk = "\x20\x00\x41\x01\x6a\x21\x00" in
  let reject k =
    let body = "\x01\x01\x7f" ^ String.concat "" (List.init k (fun _ -> chunk)) ^ "\x0b" in
    let bytes =
      raw_module
        [ (1, vec [ type_void ]); (3, vec [ "\x00"; "\x00" ]);
          (10, vec [ code_entry ill_typed; uleb (String.length body) ^ body ]) ]
    in
    let before = Gc.minor_words () in
    let verdict = front_door_verdict (fun () -> ignore (Fastinterp.compile_bytes bytes)) in
    (verdict, Gc.minor_words () -. before)
  in
  let small, small_words = reject 10_000 in
  let large, large_words = reject 100_000 in
  Alcotest.(check string) "10,000 chunks" ill_typed_error small;
  Alcotest.(check string) "100,000 chunks" ill_typed_error large;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words at 10,000 chunks, %.0f at 100,000" small_words large_words)
    true
    (large_words -. small_words < 1_000.)

(* The one-pass loader's work stays linear in the module. At these
   sizes it takes milliseconds, and each shape's quadratic variant
   missed the bound by more than 10x (3.3-12.6 s): a function's type
   looked up with [List.nth], a type stack grown one slot at a time,
   forward edges appended to a list, and a walk over the code emitted
   so far at each block's end. *)
let check_onepass_linear what m =
  let bytes = Encode.encode m in
  let cm, seconds = timed (fun () -> Fastinterp.compile_bytes bytes) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: one pass in %.3f s (< 0.25 s)" what seconds)
    true (seconds < 0.25);
  cm

let test_onepass_many_functions_linear () =
  let n = 100_000 in
  let cm =
    check_onepass_linear "100,000 functions"
      {
        empty_module with
        types = [ { params = []; results = [] } ];
        funcs = List.init n (fun _ -> { ftype = 0; locals = []; body = [ Nop ] });
      }
  in
  Alcotest.(check int) "bodies" n (Array.length cm.Fastinterp.cm_bodies)

let test_onepass_deep_stack_linear () =
  let n = 40_000 in
  ignore
    (check_onepass_linear "40,000-deep operand stack"
       (single_func ~params:[] ~results:[]
          (List.init n (fun _ -> Const (VI32 0l)) @ List.init n (fun _ -> Drop))))

let test_onepass_br_table_linear () =
  let n = 40_000 in
  ignore
    (check_onepass_linear "40,000-target br_table"
       (single_func ~params:[] ~results:[]
          [ Block (BlockEmpty, [ Builder.i32c 0; BrTable (Array.make n 0, 0) ]) ]))

let test_onepass_sibling_blocks_linear () =
  let n = 100_000 in
  ignore
    (check_onepass_linear "100,000 sibling blocks, each a br 0"
       (single_func ~params:[] ~results:[] (List.init n (fun _ -> Block (BlockEmpty, [ Br 0 ])))))

(* ------------------------------------------------------------------ *)
(* Link parity: both tiers link through [Instance.instantiate], so a
   module that fails to link fails with one message on either, and the
   invoke API rejects a bad call with one trap. *)

let link_outcome f = match f () with _ -> "linked" | exception Instance.Link_error m -> m

let check_link_parity ?imports m expected =
  let ast, cm = Tiers.of_module m in
  let interp = link_outcome (fun () -> ignore (Interp.instantiate ?imports ast)) in
  let fast = link_outcome (fun () -> ignore (Fastinterp.instantiate ?imports cm)) in
  Alcotest.(check string) ("interp = fast: " ^ interp) interp fast;
  Alcotest.(check bool)
    (Printf.sprintf "%S in %S" expected interp)
    true
    (Astring.String.is_infix ~affix:expected interp)

let import_module ?(name = "x") idesc =
  {
    empty_module with
    types = [ { params = [ I32 ]; results = [ I32 ] } ];
    imports = [ { imp_module = "env"; imp_name = name; idesc } ];
  }

let nop_host = Instance.host ~module_:"env" ~name:"x" ~params:[] ~results:[] (fun _ -> [])

let test_link_unknown_import () =
  check_link_parity (import_module (ImportFunc 0)) "unknown import env.x";
  check_link_parity ~imports:[ nop_host ] (import_module ~name:"y" (ImportFunc 0)) "unknown import env.y"

let test_link_signature_mismatch () =
  check_link_parity ~imports:[ nop_host ] (import_module (ImportFunc 0))
    "import env.x: signature mismatch (want [i32] -> [i32], got [] -> [])"

let test_link_kind_mismatch () =
  check_link_parity ~imports:[ nop_host ]
    (import_module (ImportGlobal { content = I32; mut = Immutable }))
    "import env.x: kind mismatch"

let test_link_only_functions () =
  List.iter
    (fun idesc -> check_link_parity (import_module idesc) "unknown import env.x")
    [
      ImportGlobal { content = I32; mut = Immutable };
      ImportMemory { min = 1; max = None };
      ImportTable { min = 1; max = None };
    ]

let test_link_segments_out_of_bounds () =
  let b = Builder.create () in
  let f = Builder.func b ~params:[] ~results:[] ~locals:[] [] in
  ignore (Builder.table b ~min:2 ());
  Builder.elem b ~table:0 ~offset:1 [ f; f ];
  check_link_parity (Builder.build b) "element segment out of bounds";
  let b = Builder.create () in
  ignore (Builder.memory b ~min:1 ());
  Builder.data b ~memory:0 ~offset:(page_size - 2) "abc";
  check_link_parity (Builder.build b) "data segment out of bounds"

let test_invoke_arity_and_types () =
  let ast, cm = Tiers.of_module (single_func ~params:[ I32 ] ~results:[ I32 ] [ LocalGet 0 ]) in
  let trap f = match f () with _ -> "no trap" | exception Instance.Trap msg -> msg in
  let interp = Option.get (Instance.export_func (Interp.instantiate ast) "f") in
  let fast = Fastinterp.instantiate cm in
  List.iter
    (fun (args, expected) ->
      let a = trap (fun () -> Interp.invoke interp args) in
      let b = trap (fun () -> Fastinterp.invoke fast "f" args) in
      Alcotest.(check string) ("interp = fast: " ^ a) a b;
      Alcotest.(check string) "message" expected a)
    [
      ([], "invoke: wrong number of arguments");
      ([ VI32 1l; VI32 2l ], "invoke: wrong number of arguments");
      ([ VI64 1L ], "invoke: argument type mismatch");
    ]

(* ------------------------------------------------------------------ *)
(* Random differential testing: interp vs fast on generated programs *)

let random_program_gen =
  (* Straight-line i32 programs over two locals with arbitrary binops,
     guarded against traps by using only add/sub/mul/and/or/xor/shifts. *)
  let open QCheck.Gen in
  let safe_binop =
    oneofl [ Add; Sub; Mul; And; Or; Xor; Shl; ShrS; ShrU; Rotl; Rotr ]
  in
  let instr_gen =
    frequency
      [
        (3, map (fun n -> Const (VI32 (Int32.of_int n))) small_signed_int);
        (2, oneofl [ LocalGet 0; LocalGet 1 ]);
        (2, map (fun o -> IBinop (I32, o)) safe_binop);
        (1, map (fun o -> IRelop (I32, o)) (oneofl [ Eq; Ne; LtS; LtU; GtS; GeU ]));
      ]
  in
  list_size (int_range 0 30) instr_gen

let balance_program instrs =
  (* Make the program well-typed: simulate the stack, dropping ops that
     would underflow, then reduce the final stack to exactly one i32. *)
  let depth = ref 0 in
  let fixed =
    List.filter_map
      (fun i ->
        match i with
        | Const _ | LocalGet _ ->
          incr depth;
          Some i
        | IBinop _ | IRelop _ ->
          if !depth >= 2 then begin
            decr depth;
            Some i
          end
          else None
        | _ -> None)
      instrs
  in
  let tail =
    if !depth = 0 then [ Const (VI32 0l) ]
    else List.init (!depth - 1) (fun _ -> IBinop (I32, Xor))
  in
  fixed @ tail

let qcheck_differential =
  QCheck.Test.make ~name:"interp = fast on random straight-line programs" ~count:300
    (QCheck.make random_program_gen)
    (fun instrs ->
      let body = balance_program instrs in
      let ast, cm = Tiers.of_module (single_func ~params:[ I32; I32 ] ~results:[ I32 ] body) in
      let inst = Interp.instantiate ast in
      let args = [ VI32 123456l; VI32 (-789l) ] in
      let a = Interp.invoke (Option.get (Instance.export_func inst "f")) args in
      let fa = Fastinterp.invoke (Fastinterp.instantiate cm) "f" args in
      a = fa)

let qcheck_codec_roundtrip_random =
  QCheck.Test.make ~name:"encode/decode roundtrip on random programs" ~count:200
    (QCheck.make random_program_gen)
    (fun instrs ->
      let body = balance_program instrs in
      let m = single_func ~params:[ I32; I32 ] ~results:[ I32 ] body in
      let m' = Decode.decode (Encode.encode m) in
      Encode.encode m' = Encode.encode m)

(* ------------------------------------------------------------------ *)
(* Numerics edge cases: every case runs on both tiers (via
   [check_result]/[expect_trap]), so these double as differential
   pins on the trap/value boundaries the fuzzer probes randomly. *)

let test_i32_trunc_f64_boundaries () =
  let m = single_func ~params:[ F64 ] ~results:[ I32 ] [ LocalGet 0; Cvtop I32TruncF64S ] in
  (* largest doubles that still truncate into range, then the first
     ones past it *)
  check_result m "f" [ VF64 2147483647.999 ] [ VI32 2147483647l ];
  check_result m "f" [ VF64 (-2147483648.999) ] [ VI32 Int32.min_int ];
  expect_trap m "f" [ VF64 2147483648.0 ] "integer overflow";
  expect_trap m "f" [ VF64 (-2147483649.0) ] "integer overflow";
  expect_trap m "f" [ VF64 Float.infinity ] "integer overflow";
  expect_trap m "f" [ VF64 Float.nan ] "invalid conversion";
  let mu = single_func ~params:[ F64 ] ~results:[ I32 ] [ LocalGet 0; Cvtop I32TruncF64U ] in
  check_result mu "f" [ VF64 4294967295.999 ] [ VI32 (-1l) ];
  check_result mu "f" [ VF64 (-0.999) ] [ VI32 0l ];
  expect_trap mu "f" [ VF64 4294967296.0 ] "integer overflow";
  expect_trap mu "f" [ VF64 (-1.0) ] "integer overflow"

let test_i64_trunc_f64_boundaries () =
  let m = single_func ~params:[ F64 ] ~results:[ I64 ] [ LocalGet 0; Cvtop I64TruncF64S ] in
  (* largest double below 2^63 is in range; 2^63 itself traps; -2^63 is
     exactly representable and allowed *)
  check_result m "f" [ VF64 9223372036854774784.0 ] [ VI64 9223372036854774784L ];
  expect_trap m "f" [ VF64 9.2233720368547758e18 ] "integer overflow";
  check_result m "f" [ VF64 (-9.2233720368547758e18) ] [ VI64 Int64.min_int ];
  expect_trap m "f" [ VF64 (-9.3e18) ] "integer overflow";
  let mu = single_func ~params:[ F64 ] ~results:[ I64 ] [ LocalGet 0; Cvtop I64TruncF64U ] in
  check_result mu "f" [ VF64 18446744073709549568.0 ] [ VI64 (-2048L) ];
  expect_trap mu "f" [ VF64 1.8446744073709552e19 ] "integer overflow";
  expect_trap mu "f" [ VF64 (-1.0) ] "integer overflow"

let test_i32_trunc_f32_boundaries () =
  let m = single_func ~params:[ F32 ] ~results:[ I32 ] [ LocalGet 0; Cvtop I32TruncF32S ] in
  (* largest f32 below 2^31 is 2^31 - 128 *)
  check_result m "f" [ VF32 2147483520.0 ] [ VI32 2147483520l ];
  expect_trap m "f" [ VF32 2147483648.0 ] "integer overflow";
  expect_trap m "f" [ VF32 Float.nan ] "invalid conversion"

let test_i64_division_edges () =
  let op o =
    single_func ~params:[ I64; I64 ] ~results:[ I64 ] [ LocalGet 0; LocalGet 1; IBinop (I64, o) ]
  in
  expect_trap (op DivS) "f" [ VI64 Int64.min_int; VI64 (-1L) ] "integer overflow";
  check_result (op RemS) "f" [ VI64 Int64.min_int; VI64 (-1L) ] [ VI64 0L ];
  expect_trap (op DivS) "f" [ VI64 1L; VI64 0L ] "divide by zero";
  expect_trap (op DivU) "f" [ VI64 1L; VI64 0L ] "divide by zero";
  expect_trap (op RemS) "f" [ VI64 1L; VI64 0L ] "divide by zero";
  expect_trap (op RemU) "f" [ VI64 1L; VI64 0L ] "divide by zero";
  check_result (op DivU) "f" [ VI64 (-1L); VI64 2L ] [ VI64 Int64.max_int ];
  check_result (op RemU) "f" [ VI64 (-1L); VI64 10L ] [ VI64 5L ]

let test_shift_count_masking () =
  let op32 o =
    single_func ~params:[ I32; I32 ] ~results:[ I32 ] [ LocalGet 0; LocalGet 1; IBinop (I32, o) ]
  in
  check_result (op32 Shl) "f" [ VI32 1l; VI32 33l ] [ VI32 2l ];
  check_result (op32 ShrS) "f" [ VI32 Int32.min_int; VI32 63l ] [ VI32 (-1l) ];
  check_result (op32 ShrU) "f" [ VI32 Int32.min_int; VI32 32l ] [ VI32 Int32.min_int ];
  let op64 o =
    single_func ~params:[ I64; I64 ] ~results:[ I64 ] [ LocalGet 0; LocalGet 1; IBinop (I64, o) ]
  in
  check_result (op64 Shl) "f" [ VI64 1L; VI64 65L ] [ VI64 2L ];
  check_result (op64 ShrS) "f" [ VI64 Int64.min_int; VI64 127L ] [ VI64 (-1L) ]

let test_nan_bit_parity () =
  (* The tiers must agree on NaN *bit patterns*, not just NaN-ness:
     reinterpret the result so [run_both] compares exact bits. *)
  let m =
    single_func ~params:[] ~results:[ I64 ]
      [ Const (VF64 0.0); Const (VF64 0.0); FBinop (F64, Fdiv); Cvtop I64ReinterpretF64 ]
  in
  ignore (run_both m "f" []);
  let m2 =
    single_func ~params:[ F64; F64 ] ~results:[ I64 ]
      [ LocalGet 0; LocalGet 1; FBinop (F64, Fmin); Cvtop I64ReinterpretF64 ]
  in
  ignore (run_both m2 "f" [ VF64 Float.nan; VF64 1.0 ]);
  ignore (run_both m2 "f" [ VF64 1.0; VF64 Float.nan ]);
  ignore (run_both m2 "f" [ VF64 Float.infinity; VF64 Float.neg_infinity ]);
  let m3 =
    single_func ~params:[ F32; F32 ] ~results:[ I32 ]
      [ LocalGet 0; LocalGet 1; FBinop (F32, Fdiv); Cvtop I32ReinterpretF32 ]
  in
  ignore (run_both m3 "f" [ VF32 0.0; VF32 0.0 ]);
  ignore (run_both m3 "f" [ VF32 1.0; VF32 0.0 ])

let test_wrap_extend_demote () =
  let m = single_func ~params:[ I64 ] ~results:[ I32 ] [ LocalGet 0; Cvtop I32WrapI64 ] in
  check_result m "f" [ VI64 0x1FFFFFFFFL ] [ VI32 (-1l) ];
  check_result m "f" [ VI64 Int64.min_int ] [ VI32 0l ];
  let ms = single_func ~params:[ I32 ] ~results:[ I64 ] [ LocalGet 0; Cvtop I64ExtendI32S ] in
  check_result ms "f" [ VI32 (-1l) ] [ VI64 (-1L) ];
  let mu = single_func ~params:[ I32 ] ~results:[ I64 ] [ LocalGet 0; Cvtop I64ExtendI32U ] in
  check_result mu "f" [ VI32 (-1l) ] [ VI64 4294967295L ];
  let md = single_func ~params:[ F64 ] ~results:[ F32 ] [ LocalGet 0; Cvtop F32DemoteF64 ] in
  check_result md "f" [ VF64 1e39 ] [ VF32 Float.infinity ];
  check_result md "f" [ VF64 (-1e39) ] [ VF32 Float.neg_infinity ]

(* ------------------------------------------------------------------ *)
(* Fastinterp fusion regressions: the branch-compare peephole used to
   fold a producer into the branch even when local.set retargeting had
   made the producer's destination a *local*, silently deleting the
   store. Found by the fuzz harness (see test_fuzz.ml for the replay
   seeds); these pin the exact instruction shapes. *)

let test_brif_fusion_preserves_local_store () =
  (* relop; local.set z; local.get z; br_if — z must hold the relop
     result after the branch, taken or not *)
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      [ Block
          ( BlockEmpty,
            [ LocalGet 0; Builder.i32c 10; IRelop (I32, LtS); LocalSet 1; LocalGet 1; BrIf 0 ] );
        LocalGet 1 ]
  in
  check_result m "f" [ VI32 5l ] [ VI32 1l ];
  check_result m "f" [ VI32 50l ] [ VI32 0l ];
  (* plain local.set z; local.get z; br_if (move-only producer) *)
  let m2 =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      [ Block (BlockEmpty, [ LocalGet 0; LocalSet 1; LocalGet 1; BrIf 0 ]); LocalGet 1 ]
  in
  check_result m2 "f" [ VI32 7l ] [ VI32 7l ];
  check_result m2 "f" [ VI32 0l ] [ VI32 0l ];
  (* eqz on the reloaded local, then br_if *)
  let m3 =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      [ Block
          ( BlockEmpty,
            [ LocalGet 0; Builder.i32c 3; IRelop (I32, Eq); LocalSet 1; LocalGet 1;
              ITestop I32; BrIf 0 ] );
        LocalGet 1 ]
  in
  check_result m3 "f" [ VI32 3l ] [ VI32 1l ];
  check_result m3 "f" [ VI32 4l ] [ VI32 0l ]

let test_if_fusion_preserves_local_store () =
  (* the [If] else-edge is an OBrIfNot: same fusion path, same hazard *)
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      [ LocalGet 0; Builder.i32c 10; IRelop (I32, GtS); LocalSet 1; LocalGet 1;
        If (BlockVal I32, [ LocalGet 1 ], [ Builder.i32c 42 ]) ]
  in
  check_result m "f" [ VI32 20l ] [ VI32 1l ];
  check_result m "f" [ VI32 1l ] [ VI32 42l ]

(* ------------------------------------------------------------------ *)
(* Superinstruction families: loop back-edges, 2-D addressing, f64
   multiply-add and i32 copies. Each case must give equal results,
   trap messages and memory on both tiers; [fuses] pins that the shape
   under test really compiles to the fused op, so a case cannot pass
   by testing the unfused path. *)

let compiled_ops ?fuel m =
  let cm = Fastinterp.compile_bytes ?fuel (Encode.encode m) in
  Array.concat (List.map (fun b -> b.Fastinterp.cb_code) (Array.to_list cm.Fastinterp.cm_bodies))

let fuses what pred m = Alcotest.(check bool) (what ^ " fuses") true (Array.exists pred (compiled_ops m))

let back_edge = function Fastinterp.OBackCmpI32 _ | Fastinterp.OBackCmpR32 _ -> true | _ -> false

(* block { loop { header (br_if 1 exits); body; step; br 0 } } *)
let counted_loop ~header ~body ~step =
  [ Block (BlockEmpty, [ Loop (BlockEmpty, header @ body @ step @ [ Br 0 ]) ]) ]

let test_back_edge_down_count () =
  (* while (n > 0) { acc += n; n -= 1 }: the Sub step is a -1 immediate *)
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      (counted_loop
         ~header:[ LocalGet 0; Builder.i32c 0; IRelop (I32, LeS); BrIf 1 ]
         ~body:[ LocalGet 1; LocalGet 0; IBinop (I32, Add); LocalSet 1 ]
         ~step:[ LocalGet 0; Builder.i32c 1; IBinop (I32, Sub); LocalSet 0 ]
      @ [ LocalGet 1 ])
  in
  fuses "i -= 1 back-edge"
    (function Fastinterp.OBackCmpI32 (0, 0, -1, LeS, 0, 0, _, _) -> true | _ -> false)
    m;
  check_result m "f" [ VI32 10l ] [ VI32 55l ];
  check_result m "f" [ VI32 1l ] [ VI32 1l ];
  check_result m "f" [ VI32 0l ] [ VI32 0l ];
  check_result m "f" [ VI32 (-5l) ] [ VI32 0l ]

let test_back_edge_wraps () =
  (* i += 1 from 2^31 - 3 wraps past 2^31 - 1 to -2^31, where the header
     exits. The step writes local i (a retargeted producer), and i must
     survive the loop. *)
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      (counted_loop
         ~header:[ LocalGet 0; Const (VI32 Int32.min_int); IRelop (I32, Eq); BrIf 1 ]
         ~body:[ LocalGet 1; Builder.i32c 1; IBinop (I32, Add); LocalSet 1 ]
         ~step:[ LocalGet 0; Builder.i32c 1; IBinop (I32, Add); LocalSet 0 ]
      @ [ LocalGet 0; LocalGet 1; IBinop (I32, Add) ])
  in
  fuses "wrapping back-edge" back_edge m;
  check_result m "f" [ VI32 (Int32.sub Int32.max_int 2l) ] [ VI32 (Int32.add Int32.min_int 3l) ];
  check_result m "f" [ VI32 Int32.min_int ] [ VI32 Int32.min_int ]

let test_back_edge_continue () =
  (* for (i = 0; i < n; i++) { if (i & 1) continue; acc += i }: the
     continue leaves a block that ends at the step, so it lands on the
     fused op *)
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32; I32 ]
      (counted_loop
         ~header:[ LocalGet 1; LocalGet 0; IRelop (I32, GeS); BrIf 1 ]
         ~body:
           [ Block
               ( BlockEmpty,
                 [ LocalGet 1; Builder.i32c 1; IBinop (I32, And); BrIf 0; LocalGet 2; LocalGet 1;
                   IBinop (I32, Add); LocalSet 2 ] ) ]
         ~step:[ LocalGet 1; Builder.i32c 1; IBinop (I32, Add); LocalSet 1 ]
      @ [ LocalGet 2 ])
  in
  let ops = compiled_ops m in
  let fused_at = ref (-1) in
  Array.iteri (fun pc o -> if back_edge o then fused_at := pc) ops;
  Alcotest.(check bool) "continue lands on the fused op" true
    (!fused_at >= 0
    && Array.exists
         (function Fastinterp.OBrIf (_, e) -> e.Fastinterp.target = !fused_at | _ -> false)
         ops);
  check_result m "f" [ VI32 10l ] [ VI32 20l ];
  check_result m "f" [ VI32 1l ] [ VI32 0l ]

let test_back_edge_other_local () =
  (* the header tests j while the step bumps i: j += i; i += 1 until j >= n *)
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32; I32 ]
      (counted_loop
         ~header:[ LocalGet 2; LocalGet 0; IRelop (I32, GeS); BrIf 1 ]
         ~body:[ LocalGet 2; LocalGet 1; IBinop (I32, Add); LocalSet 2 ]
         ~step:[ LocalGet 1; Builder.i32c 1; IBinop (I32, Add); LocalSet 1 ]
      @ [ LocalGet 1; Builder.i32c 100; IBinop (I32, Mul); LocalGet 2; IBinop (I32, Add) ])
  in
  fuses "back-edge testing another local"
    (function Fastinterp.OBackCmpR32 (1, 1, 1, GeS, 2, 0, _, _) -> true | _ -> false)
    m;
  check_result m "f" [ VI32 10l ] [ VI32 510l ];
  check_result m "f" [ VI32 0l ] [ VI32 0l ]

let test_back_edge_exit_carries_value () =
  (* block (result i32) { loop { push 2i; br_if 1 when i >= n (carrying
     2i); drop; i += 1; br 0 } }: the carried value's producer heads the
     loop, so its header is no compare-branch and the back-edge stays an
     OJmp; the exit must still deliver the value *)
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      [ Block
          ( BlockVal I32,
            [ Loop
                ( BlockEmpty,
                  [ LocalGet 1; Builder.i32c 2; IBinop (I32, Mul); LocalGet 1; LocalGet 0;
                    IRelop (I32, GeS); BrIf 1; Drop; LocalGet 1; Builder.i32c 1;
                    IBinop (I32, Add); LocalSet 1; Br 0 ] );
              Unreachable ] ) ]
  in
  check_result m "f" [ VI32 7l ] [ VI32 14l ];
  check_result m "f" [ VI32 0l ] [ VI32 0l ]

let test_back_edge_branch_to_br () =
  (* block { skip the step when j is odd; i += 1 } br 0: the skip lands
     on the br itself, so fusing the step into it would send the skip
     past the loop; the back-edge stays an OJmp *)
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32; I32 ]
      (counted_loop
         ~header:[ LocalGet 1; LocalGet 0; IRelop (I32, GeS); BrIf 1 ]
         ~body:[ LocalGet 2; Builder.i32c 1; IBinop (I32, Add); LocalSet 2 ]
         ~step:
           [ Block
               ( BlockEmpty,
                 [ LocalGet 2; Builder.i32c 1; IBinop (I32, And); BrIf 0; LocalGet 1;
                   Builder.i32c 1; IBinop (I32, Add); LocalSet 1 ] ) ]
      @ [ LocalGet 1; Builder.i32c 100; IBinop (I32, Mul); LocalGet 2; IBinop (I32, Add) ])
  in
  Alcotest.(check bool) "stays an OJmp" false (Array.exists back_edge (compiled_ops m));
  check_result m "f" [ VI32 5l ] [ VI32 510l ]

let test_back_edge_needs_step () =
  (* i *= 3 is no add/sub step: the back-edge stays an OJmp *)
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      ([ Builder.i32c 1; LocalSet 1 ]
      @ counted_loop
          ~header:[ LocalGet 1; LocalGet 0; IRelop (I32, GeS); BrIf 1 ]
          ~body:[]
          ~step:[ LocalGet 1; Builder.i32c 3; IBinop (I32, Mul); LocalSet 1 ]
      @ [ LocalGet 1 ])
  in
  let ops = compiled_ops m in
  Alcotest.(check bool) "stays an OJmp" true
    (Array.exists (function Fastinterp.OJmp _ -> true | _ -> false) ops
    && not (Array.exists back_edge ops));
  check_result m "f" [ VI32 100l ] [ VI32 243l ]

let test_back_edge_fuel () =
  (* Under ~fuel the loop header is the OFuel each iteration charges, so
     the back-edge stays unfused and both tiers charge alike on a MiniC
     for loop. *)
  let open Watz_wasmc.Minic in
  let program =
    let open Dsl in
    Dsl.program
      [ fn "run" [] (Some I32)
          [ decl "s" I32 (i 0); for_ "k" (i 0) (i 50) [ set "s" (v "s" + v "k") ]; ret (v "s") ] ]
  in
  let m = Watz_wasmc.Minic.compile program in
  Alcotest.(check bool) "fused without fuel" true (Array.exists back_edge (compiled_ops m));
  Alcotest.(check bool) "unfused under fuel" false
    (Array.exists back_edge (compiled_ops ~fuel:true m));
  let metered f =
    Instance.Fuel.with_fuel 10_000 (fun () ->
        let r = f () in
        (r, !Instance.Fuel.cell))
  in
  let ast, cm = Tiers.of_module ~fuel:true m in
  let inst = Interp.instantiate ast in
  let r_interp, left_interp =
    metered (fun () -> Interp.invoke (Option.get (Instance.export_func inst "run")) [])
  in
  let r_fast, left_fast =
    metered (fun () -> Fastinterp.invoke (Fastinterp.instantiate cm) "run" [])
  in
  Alcotest.(check (list value_testable)) "result" [ VI32 1225l ] r_interp;
  Alcotest.(check (list value_testable)) "interp = fast" r_interp r_fast;
  Alcotest.(check int) "fuel charged: interp = fast" left_interp left_fast;
  Alcotest.(check bool) "fuel was charged" true (left_fast < 10_000)

(* ((x +- xc) * n + (y +- yc) +- zc) * 2^k + base, in MiniC's order:
   the row term first unless [swap]; no base add when [base] is 0. *)
let addr2 ?(xc = 0) ?(yc = 0) ?(zc = 0) ?(swap = false) ~n ~k ~base () =
  let plus c = if c = 0 then [] else [ Builder.i32c (abs c); IBinop (I32, if c > 0 then Add else Sub) ] in
  let row = (LocalGet 0 :: plus xc) @ [ Builder.i32c n; IBinop (I32, Mul) ] in
  let col = LocalGet 1 :: plus yc in
  (if swap then col @ row else row @ col)
  @ (IBinop (I32, Add) :: plus zc)
  @ [ Builder.i32c (1 lsl k); IBinop (I32, Mul) ]
  @ plus base

let test_2d_addressing () =
  let b = Builder.create () in
  patterned_memory b;
  let exports = ref [] in
  let load name addr ty =
    exports := name :: !exports;
    let f =
      Builder.func b ~params:[ I32; I32 ] ~results:[ ty ] ~locals:[]
        (addr @ [ Load (ty, None, { align = 2; offset = 0 }) ])
    in
    Builder.export_func b name f
  in
  load "xy" (addr2 ~n:12 ~k:2 ~base:16 ()) I32;
  load "yx" (addr2 ~swap:true ~n:12 ~k:2 ~base:16 ()) I32;
  load "x,y+1" (addr2 ~yc:1 ~n:12 ~k:2 ~base:16 ()) I32;
  load "x,y-1" (addr2 ~yc:(-1) ~n:12 ~k:2 ~base:16 ()) I32;
  load "x+1,y" (addr2 ~xc:1 ~n:12 ~k:2 ~base:16 ()) I32;
  load "x-1,y" (addr2 ~xc:(-1) ~n:12 ~k:2 ~base:16 ()) I32;
  load "x-1,y+1" (addr2 ~xc:(-1) ~yc:1 ~swap:true ~n:12 ~k:2 ~base:16 ()) I32;
  load "xy,+3" (addr2 ~zc:3 ~n:12 ~k:2 ~base:16 ()) I32;
  load "xy,-3" (addr2 ~zc:(-3) ~n:12 ~k:2 ~base:16 ()) I32;
  load "xy,no base" (addr2 ~n:12 ~k:2 ~base:0 ()) I32;
  load "x,y+1,no base" (addr2 ~yc:1 ~n:12 ~k:2 ~base:0 ()) I32;
  load "xy+17" (addr2 ~n:12 ~k:2 ~base:17 ()) I32;
  load "f64" (addr2 ~n:12 ~k:3 ~base:8 ()) F64;
  load "f64+9" (addr2 ~n:12 ~k:3 ~base:9 ()) F64;
  let store name addr =
    exports := name :: !exports;
    let f =
      Builder.func b ~params:[ I32; I32 ] ~results:[] ~locals:[]
        (addr @ [ Builder.i32c 0x5a5a5a5a; Store (I32, None, { align = 2; offset = 0 }) ])
    in
    Builder.export_func b name f
  in
  store "store" (addr2 ~n:12 ~k:2 ~base:16 ());
  store "store+17" (addr2 ~n:12 ~k:2 ~base:17 ());
  let m = Builder.build b in
  (* each load compiles to one fused load, each store to its address,
     its constant value and the store. An offset on y computed before
     the row, or no base, leaves part of the address unfused: no
     profiled module fuses those shapes, so only the runs below check
     them. *)
  let partly_fused = [ "x-1,y+1"; "xy,no base"; "x,y+1,no base" ] in
  let bodies = (Fastinterp.compile_bytes (Encode.encode m)).Fastinterp.cm_bodies in
  List.iteri
    (fun i name ->
      if not (List.mem name partly_fused) then
        Alcotest.(check bool) (name ^ ": one fused load, or address + store") true
          (match bodies.(i).Fastinterp.cb_code with
          | [| (Fastinterp.OLoadI32M _ | Fastinterp.OLoadF64M _); OHalt |]
          | [| Fastinterp.OMulAdd32 (_, 0, 12, 1, 2, _); OConstI _; OStoreI32 _; OHalt |] -> true
          | _ -> false))
    (List.rev !exports);
  let run name x y = ignore (on_both_tiers m name [ VI32 (Int32.of_int x); VI32 (Int32.of_int y) ]) in
  let trap name x y =
    match on_both_tiers m name [ VI32 (Int32.of_int x); VI32 (Int32.of_int y) ] with
    | Trapped _, _ -> ()
    | Returned _, _ -> Alcotest.failf "%s %d %d: expected an out-of-bounds trap" name x y
  in
  List.iter
    (fun name ->
      List.iter (fun (x, y) -> run name x y) [ (0, 0); (1, 1); (3, 5); (0, 2); (2, 0); (-1, 20) ])
    [ "xy"; "yx"; "x,y+1"; "x,y-1"; "x+1,y"; "x-1,y"; "x-1,y+1"; "xy,+3"; "xy,-3"; "xy,no base"; "x,y+1,no base" ];
  (* (x*12 + y) wraps i32: 2^30 * 12 = 3 * 2^32, and (2^30 + 5) * 4 wraps
     to 20 *)
  run "xy" 0x40000000 3;
  run "xy" 89478485 9;
  run "x+1,y" (-1) 7;
  (* last in-bounds access (bytes up to 65535) and one byte past it *)
  run "xy" 1364 11;
  trap "xy" 1364 12;
  trap "xy+17" 1364 11;
  run "f64" 682 6;
  trap "f64" 682 7;
  trap "f64+9" 682 6;
  run "store" 1364 11;
  trap "store" 1364 12;
  trap "store+17" 1364 11;
  (* the store really wrote its last in-bounds word *)
  let _, mem = on_both_tiers m "store" [ VI32 1364l; VI32 11l ] in
  Alcotest.(check int32) "last word stored" 0x5a5a5a5al (Bytes.get_int32_le mem 65532)

let test_2d_retargeted_index () =
  (* idx = x*12 + y; return mem[idx*4 + 16] + idx: local.set points the
     OMulAdd32 at local idx, whose value must survive *)
  let b = Builder.create () in
  patterned_memory b;
  let f =
    Builder.func b ~params:[ I32; I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      [ LocalGet 0; Builder.i32c 12; IBinop (I32, Mul); LocalGet 1; IBinop (I32, Add); LocalSet 2;
        LocalGet 2; Builder.i32c 4; IBinop (I32, Mul); Builder.i32c 16; IBinop (I32, Add);
        Load (I32, None, { align = 2; offset = 0 }); LocalGet 2; IBinop (I32, Add) ]
  in
  Builder.export_func b "f" f;
  let m = Builder.build b in
  fuses "x*n+y into a local" (function Fastinterp.OMulAdd32 (2, 0, 12, 1, 0, 0) -> true | _ -> false) m;
  (match on_both_tiers m "f" [ VI32 3l; VI32 5l ] with
  | Returned [ VI32 v ], mem ->
    Alcotest.(check int32) "load + idx" (Int32.add (Bytes.get_int32_le mem ((41 * 4) + 16)) 41l) v
  | _ -> Alcotest.fail "expected one i32");
  (* p = x*12; y + p + p: the product went to local p (adjacent to y),
     so the add must not absorb it *)
  let m2 =
    single_func ~params:[ I32; I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      [ LocalGet 0; Builder.i32c 12; IBinop (I32, Mul); LocalSet 2; LocalGet 1; LocalGet 2;
        IBinop (I32, Add); LocalGet 2; IBinop (I32, Add) ]
  in
  check_result m2 "f" [ VI32 3l; VI32 5l ] [ VI32 77l ]

let test_f64_multiply_add () =
  (* acc + a*b, returned as raw bits: two roundings, never an FMA, and
     the unfused operand order for NaN payloads *)
  let m =
    single_func ~params:[ F64; F64; F64 ] ~results:[ I64 ]
      [ LocalGet 0; LocalGet 1; LocalGet 2; FBinop (F64, Fmul); FBinop (F64, Fadd);
        Cvtop I64ReinterpretF64 ]
  in
  fuses "acc + a*b" (function Fastinterp.OFMulAdd64 (_, _, 1, 2) -> true | _ -> false) m;
  let bits acc a b =
    match on_both_tiers m "f" [ VF64 acc; VF64 a; VF64 b ] with
    | Returned [ VI64 r ], _ -> r
    | _ -> Alcotest.fail "expected one i64"
  in
  let nan1 = Int64.float_of_bits 0x7ff8000000000001L
  and nan2 = Int64.float_of_bits 0x7ff8000000000002L in
  Alcotest.(check int64) "unfused NaN order" (Int64.bits_of_float (nan1 +. (nan2 *. 1.0)))
    (bits nan1 nan2 1.0);
  Alcotest.(check int64) "NaN product" (Int64.bits_of_float (1.0 +. (nan2 *. 2.0))) (bits 1.0 nan2 2.0);
  Alcotest.(check int64) "-0 + -0 = -0" (Int64.bits_of_float (-0.0)) (bits (-0.0) 0.0 (-1.0));
  Alcotest.(check int64) "-0 + +0 = +0" 0L (bits (-0.0) 0.0 1.0);
  (* a*b rounds to 1 + 2^-29 before the add; an FMA would keep 2^-60 *)
  let a = 1.0 +. ldexp 1.0 (-30) and acc = -.(1.0 +. ldexp 1.0 (-29)) in
  Alcotest.(check bool) "the triple tells FMA apart" true (Float.fma a a acc <> 0.0);
  Alcotest.(check int64) "two roundings" 0L (bits acc a a)

let test_f64_multiply_add_retargeted () =
  (* p = a*b (local.set); acc + p + p: the product's store to p must
     survive; and acc = acc + a*b retargets the fused op to local acc *)
  let m =
    single_func ~params:[ F64; F64; F64 ] ~results:[ F64 ] ~locals:[ F64 ]
      [ LocalGet 1; LocalGet 2; FBinop (F64, Fmul); LocalSet 3; LocalGet 0; LocalGet 3;
        FBinop (F64, Fadd); LocalGet 3; FBinop (F64, Fadd); LocalGet 0; LocalGet 1; LocalGet 2;
        FBinop (F64, Fmul); FBinop (F64, Fadd); LocalSet 0; LocalGet 0; FBinop (F64, Fadd) ]
  in
  fuses "acc = acc + a*b" (function Fastinterp.OFMulAdd64 (0, _, 1, 2) -> true | _ -> false) m;
  check_result m "f" [ VF64 1.0; VF64 2.0; VF64 3.0 ] [ VF64 20.0 ]

let test_i32_copy () =
  (* mem[dst] = mem[src], with the source index scaled from a constant
     base (X) and from a base local (RX) *)
  let b = Builder.create () in
  patterned_memory b;
  let scaled_const idx = [ LocalGet idx; Builder.i32c 4; IBinop (I32, Mul); Builder.i32c 16; IBinop (I32, Add) ] in
  let scaled_local idx = [ LocalGet idx; Builder.i32c 4; IBinop (I32, Mul); LocalGet 2; IBinop (I32, Add) ] in
  let copy name src =
    let f =
      Builder.func b ~params:[ I32; I32; I32 ] ~results:[] ~locals:[]
        (scaled_const 0 @ src @ [ Load (I32, None, { align = 2; offset = 0 });
                                  Store (I32, None, { align = 2; offset = 0 }) ])
    in
    Builder.export_func b name f
  in
  copy "copy" (scaled_const 1);
  copy "copy_r" (scaled_local 1);
  let m = Builder.build b in
  fuses "i32 copy (X)" (function Fastinterp.OCopyI32X _ -> true | _ -> false) m;
  fuses "i32 copy (RX)" (function Fastinterp.OCopyI32RX _ -> true | _ -> false) m;
  let word i = String.get_int32_le pattern i in
  List.iter
    (fun name ->
      let call dst src = on_both_tiers m name [ VI32 (Int32.of_int dst); VI32 (Int32.of_int src); VI32 16l ] in
      let _, mem = call 3 7 in
      Alcotest.(check int32) (name ^ ": copied") (word ((7 * 4) + 16)) (Bytes.get_int32_le mem ((3 * 4) + 16));
      let _, mem = call 5 5 in
      Alcotest.(check int32) (name ^ ": src = dst") (word ((5 * 4) + 16)) (Bytes.get_int32_le mem ((5 * 4) + 16));
      (match call 3 16380 with
      | Trapped _, mem ->
        Alcotest.(check int32) (name ^ ": out-of-bounds source leaves dst") (word ((3 * 4) + 16))
          (Bytes.get_int32_le mem ((3 * 4) + 16))
      | Returned _, _ -> Alcotest.fail "out-of-bounds source must trap");
      match call 16380 3 with
      | Trapped _, _ -> ()
      | Returned _, _ -> Alcotest.fail "out-of-bounds destination must trap")
    [ "copy"; "copy_r" ]

let test_i32_copy_retargeted () =
  (* v = mem[src]; mem[dst] = v; return v: the load writes local v,
     which the store must not swallow *)
  let b = Builder.create () in
  patterned_memory b;
  let f =
    Builder.func b ~params:[ I32; I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      [ LocalGet 0; Builder.i32c 4; IBinop (I32, Mul); Builder.i32c 16; IBinop (I32, Add);
        LocalGet 1; Builder.i32c 4; IBinop (I32, Mul); Builder.i32c 16; IBinop (I32, Add);
        Load (I32, None, { align = 2; offset = 0 }); LocalSet 2; LocalGet 2;
        Store (I32, None, { align = 2; offset = 0 }); LocalGet 2 ]
  in
  Builder.export_func b "f" f;
  let m = Builder.build b in
  Alcotest.(check bool) "no copy through a local" false
    (Array.exists (function Fastinterp.OCopyI32X _ -> true | _ -> false) (compiled_ops m));
  match on_both_tiers m "f" [ VI32 3l; VI32 7l ] with
  | Returned [ VI32 v ], mem -> Alcotest.(check int32) "v = copied word" (Bytes.get_int32_le mem 28) v
  | _ -> Alcotest.fail "expected one i32"

(* Shapes that no profiled module fuses: the peephole has no rule for
   them, so each producer stays in front of its consumer as a plain op
   (the address push stays an OMovI before the OStoreI32, a local.set
   stays an OMovI after its producer), and both tiers agree on results,
   traps and memory. One function per family; adding a rule for one of
   them is a deliberate change to this case. *)
let test_unfused_shapes () =
  let b = Builder.create () in
  patterned_memory b;
  let shapes = ref [] in
  let shape name ~params ~results ?(locals = []) body keeps calls =
    let f = Builder.func b ~params ~results ~locals body in
    Builder.export_func b name f;
    shapes := (name, f, keeps, calls) :: !shapes
  in
  let memarg align offset = { align; offset } in
  let scaled k rest = [ Builder.i32c (1 lsl k); IBinop (I32, Mul) ] @ rest in
  let add_16 = [ Builder.i32c 16; IBinop (I32, Add) ] in
  shape "conversion of a local" ~params:[ I32; I64; F64 ] ~results:[ I64 ]
    [ LocalGet 0; Cvtop I64ExtendI32S; LocalGet 1; Cvtop I32WrapI64; Cvtop I64ExtendI32U;
      IBinop (I64, Add); LocalGet 2; Cvtop I64TruncF64S; IBinop (I64, Add) ]
    [ ("OMovI, OCvt", function Fastinterp.(OMovI (t, _), OCvt (_, _, a)) -> t = a | _ -> false);
      ("OMovL, OCvt", function Fastinterp.(OMovL (t, _), OCvt (_, _, a)) -> t = a | _ -> false);
      ("OMovF, OCvt", function Fastinterp.(OMovF (t, _), OCvt (_, _, a)) -> t = a | _ -> false) ]
    [ [ VI32 (-5l); VI64 0x1_0000_0007L; VF64 3.7 ]; [ VI32 1l; VI64 0L; VF64 Float.nan ] ];
  shape "address from a local" ~params:[ I32; I32; F64 ] ~results:[ F64 ]
    [ LocalGet 0; LocalGet 1; Store (I32, None, memarg 2 0); LocalGet 0; LocalGet 2;
      Store (F64, None, memarg 3 8); LocalGet 0; Load (I32, None, memarg 2 0);
      Cvtop F64ConvertI32S; LocalGet 0; Load (F64, None, memarg 3 8); FBinop (F64, Fadd) ]
    [ ("OMovI, OStoreI32", function Fastinterp.(OMovI (t, _), OStoreI32 (_, a, _)) -> t = a | _ -> false);
      ("OMovI, OStoreF64", function Fastinterp.(OMovI (t, _), OStoreF64 (_, a, _)) -> t = a | _ -> false);
      ("OMovI, OLoadI32", function Fastinterp.(OMovI (t, _), OLoadI32 (_, _, a)) -> t = a | _ -> false);
      ("OMovI, OLoadF64", function Fastinterp.(OMovI (t, _), OLoadF64 (_, _, a)) -> t = a | _ -> false) ]
    [ [ VI32 100l; VI32 (-7l); VF64 2.5 ]; [ VI32 65530l; VI32 1l; VF64 1.0 ] ];
  shape "scaled store, no base" ~params:[ I32; I32; F64 ] ~results:[]
    ((LocalGet 0 :: scaled 2 [ LocalGet 1; Store (I32, None, memarg 2 0) ])
    @ (LocalGet 0 :: scaled 3 [ LocalGet 2; Store (F64, None, memarg 3 0) ]))
    [ ("OBin3I32 Mul, OStoreI32",
       function Fastinterp.(OBin3I32 (Mul, t, _, _), OStoreI32 (_, a, _)) -> t = a | _ -> false);
      ("OBin3I32 Mul, OStoreF64",
       function Fastinterp.(OBin3I32 (Mul, t, _, _), OStoreF64 (_, a, _)) -> t = a | _ -> false) ]
    [ [ VI32 3l; VI32 0x12345678l; VF64 1.5 ]; [ VI32 16383l; VI32 9l; VF64 2.0 ];
      [ VI32 (-1l); VI32 9l; VF64 2.0 ] ];
  shape "x + (y + c), x a local" ~params:[ I32; I32 ] ~results:[ I32 ]
    [ LocalGet 0; LocalGet 1; Builder.i32c 5; IBinop (I32, Add); IBinop (I32, Add) ]
    [ ("OMovI, OMulAdd32", function Fastinterp.(OMovI (t, _), OMulAdd32 (_, x, _, _, _, _)) -> t = x | _ -> false) ]
    [ [ VI32 7l; VI32 9l ]; [ VI32 Int32.max_int; VI32 1l ] ];
  shape "eqz before if" ~params:[ I32 ] ~results:[ I32 ]
    [ LocalGet 0; ITestop I32; If (BlockVal I32, [ Builder.i32c 1 ], [ Builder.i32c 2 ]) ]
    [ ("OTestI, OBrIfNot", function Fastinterp.(OTestI t, OBrIfNot (c, _)) -> t = c | _ -> false) ]
    [ [ VI32 0l ]; [ VI32 5l ] ];
  shape "branch on a local copy" ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32 ]
    [ Block (BlockEmpty, [ LocalGet 0; BrIf 0; Builder.i32c 100; LocalSet 1 ]); LocalGet 0;
      If (BlockVal I32, [ LocalGet 1; Builder.i32c 1; IBinop (I32, Add) ], [ LocalGet 1 ]) ]
    [ ("OMovI, OBrIf", function Fastinterp.(OMovI (t, _), OBrIf (c, _)) -> t = c | _ -> false);
      ("OMovI, OBrIfNot", function Fastinterp.(OMovI (t, _), OBrIfNot (c, _)) -> t = c | _ -> false) ]
    [ [ VI32 0l ]; [ VI32 3l ] ];
  shape "local.set of i32 producers" ~params:[ I32; I32; I32 ] ~results:[ I32 ]
    ~locals:[ I32; I32; I32; I32; I32; I32; I32; I32 ]
    ([ LocalGet 0; LocalGet 1; IBinop (I32, Mul); LocalSet 3; LocalGet 0; LocalGet 1;
       IBinop (I32, And); LocalSet 4; LocalGet 0; LocalGet 1; IRelop (I32, LtS); LocalSet 5;
       LocalGet 0; Builder.i32c 5; IRelop (I32, GtU); LocalSet 6; LocalGet 2;
       Load (I32, None, memarg 2 4); LocalSet 7 ]
    @ (LocalGet 0 :: scaled 2 add_16) @ [ LocalSet 8 ]
    @ (LocalGet 1 :: scaled 2 add_16) @ [ Load (I32, None, memarg 2 0); LocalSet 9 ]
    @ (LocalGet 1 :: scaled 2 [ LocalGet 2; IBinop (I32, Add) ])
    @ [ Load (I32, None, memarg 2 0); LocalSet 10 ]
    @ (LocalGet 3 :: List.concat_map (fun l -> [ LocalGet l; IBinop (I32, Add) ]) [ 4; 5; 6; 7; 8; 9; 10 ]))
    [ ("OMul32, OMovI", function Fastinterp.(OMul32 (t, _, _), OMovI (_, s)) -> t = s | _ -> false);
      ("OAnd32, OMovI", function Fastinterp.(OAnd32 (t, _, _), OMovI (_, s)) -> t = s | _ -> false);
      ("OIRel32, OMovI", function Fastinterp.(OIRel32 (_, t, _, _), OMovI (_, s)) -> t = s | _ -> false);
      ("OIRelI32, OMovI", function Fastinterp.(OIRelI32 (_, t, _, _), OMovI (_, s)) -> t = s | _ -> false);
      ("OLoadI32, OMovI", function Fastinterp.(OLoadI32 (_, t, _), OMovI (_, s)) -> t = s | _ -> false);
      ("OScaled, OMovI", function Fastinterp.(OScaled (t, _, _, _), OMovI (_, s)) -> t = s | _ -> false);
      ("OLoadI32X, OMovI", function Fastinterp.(OLoadI32X (_, _, t, _, _), OMovI (_, s)) -> t = s | _ -> false);
      ("OLoadI32RX, OMovI", function Fastinterp.(OLoadI32RX (_, t, _, _, _), OMovI (_, s)) -> t = s | _ -> false) ]
    [ [ VI32 3l; VI32 5l; VI32 100l ]; [ VI32 (-1l); VI32 16380l; VI32 0l ] ];
  shape "local.set of a conversion" ~params:[ I32; I64 ] ~results:[ F64 ] ~locals:[ F64; F64; I64 ]
    [ LocalGet 0; Cvtop F64ConvertI32S; LocalSet 2; LocalGet 1; Cvtop F64ConvertI64S; LocalSet 3;
      LocalGet 0; Cvtop I64ExtendI32S; LocalSet 4; LocalGet 2; LocalGet 3; FBinop (F64, Fadd);
      LocalGet 4; Cvtop F64ConvertI64S; FBinop (F64, Fadd) ]
    [ ("OCvtIF, OMovF", function Fastinterp.(OCvtIF (t, _), OMovF (_, s)) -> t = s | _ -> false);
      ("OCvt, OMovF", function Fastinterp.(OCvt (_, t, _), OMovF (_, s)) -> t = s | _ -> false);
      ("OCvt, OMovL", function Fastinterp.(OCvt (_, t, _), OMovL (_, s)) -> t = s | _ -> false) ]
    [ [ VI32 (-3l); VI64 1_000_000_000_000L ] ];
  shape "i64 local.set of a constant or a move" ~params:[ I64 ] ~results:[ I64 ] ~locals:[ I64; I64 ]
    [ Const (VI64 0x1234_5678_9abcL); LocalSet 1; LocalGet 0; LocalSet 2; LocalGet 1; LocalGet 2;
      IBinop (I64, Sub) ]
    [ ("OConstL, OMovL", function Fastinterp.(OConstL (t, _), OMovL (_, s)) -> t = s | _ -> false);
      ("OMovL, OMovL", function Fastinterp.(OMovL (t, _), OMovL (_, s)) -> t = s | _ -> false) ]
    [ [ VI64 5L ] ];
  let m = Builder.build b in
  let bodies = (Fastinterp.compile_bytes (Encode.encode m)).Fastinterp.cm_bodies in
  List.iter
    (fun (name, f, keeps, calls) ->
      let code = bodies.(f).Fastinterp.cb_code in
      let rec adjacent p i = i + 1 < Array.length code && (p (code.(i), code.(i + 1)) || adjacent p (i + 1)) in
      List.iter (fun (pair, p) -> Alcotest.(check bool) (name ^ ": " ^ pair ^ " stays") true (adjacent p 0)) keeps;
      List.iter (fun args -> ignore (on_both_tiers m name args)) calls)
    (List.rev !shapes)

(* i32 or, xor, shl, shr_s and shr_u: operands from locals and from
   constants on either side, and the result retargeted by local.set
   into a fresh local or into an operand. Shift counts of 32 and more
   and negative ones are taken mod 32. *)
let test_i32_bit_ops () =
  let count b = Int32.to_int b land 31 in
  let ops =
    [
      ("or", Or, Int32.logor);
      ("xor", Xor, Int32.logxor);
      ("shl", Shl, fun a b -> Int32.shift_left a (count b));
      ("shr_s", ShrS, fun a b -> Int32.shift_right a (count b));
      ("shr_u", ShrU, fun a b -> Int32.shift_right_logical a (count b));
    ]
  in
  let shapes op a b =
    let c x = Builder.i32c (Int32.to_int x) and bin = IBinop (I32, op) in
    [
      ("a op b", [ LocalGet 0; LocalGet 1; bin ]);
      ("a op const", [ LocalGet 0; c b; bin ]);
      ("const op b", [ c a; LocalGet 1; bin ]);
      ("t = a op b; t", [ LocalGet 0; LocalGet 1; bin; LocalSet 2; LocalGet 2 ]);
      ("t = a op const; t", [ LocalGet 0; c b; bin; LocalSet 2; LocalGet 2 ]);
      ("a = a op b; a", [ LocalGet 0; LocalGet 1; bin; LocalSet 0; LocalGet 0 ]);
    ]
  in
  let pairs =
    [ (0x80000001l, 1l); (-1l, 31l); (0x12345678l, 33l); (-8l, -1l); (5l, 0l);
      (Int32.min_int, 63l) ]
  in
  List.iter
    (fun (name, op, reference) ->
      List.iter
        (fun (a, b) ->
          let bld = Builder.create () in
          let exports =
            List.map
              (fun (shape, body) ->
                let export = Printf.sprintf "%s, a = %ld, b = %ld: %s" name a b shape in
                Builder.export_func bld export
                  (Builder.func bld ~params:[ I32; I32 ] ~results:[ I32 ] ~locals:[ I32 ] body);
                export)
              (shapes op a b)
          in
          let m = Builder.build bld in
          List.iter
            (fun export -> check_result m export [ VI32 a; VI32 b ] [ VI32 (reference a b) ])
            exports)
        pairs)
    ops

(* The counting copy: a loop of N iterations executes exactly 3 + 2N
   ops — the header once, then the body and the fused back-edge per
   iteration, then the result move and the halt. *)
let test_counting_loop () =
  let m =
    single_func ~params:[ I32 ] ~results:[ I32 ] ~locals:[ I32 ]
      (counted_loop
         ~header:[ LocalGet 0; Builder.i32c 0; IRelop (I32, LeS); BrIf 1 ]
         ~body:[ LocalGet 1; LocalGet 0; IBinop (I32, Add); LocalSet 1 ]
         ~step:[ LocalGet 0; Builder.i32c 1; IBinop (I32, Sub); LocalSet 0 ]
      @ [ LocalGet 1 ])
  in
  let cm = Fastinterp.compile_bytes (Encode.encode m) in
  let before = Marshal.to_string cm.Fastinterp.cm_bodies [] in
  List.iter
    (fun n ->
      let counted, ops = Fastinterp.counting cm in
      let r = Fastinterp.invoke (Fastinterp.instantiate counted) "f" [ VI32 (Int32.of_int n) ] in
      Alcotest.(check (list value_testable)) "counted result" [ VI32 (Int32.of_int (n * (n + 1) / 2)) ] r;
      Alcotest.(check int) (Printf.sprintf "ops at N = %d" n) (3 + (2 * n)) (ops ()))
    [ 10; 1000 ];
  Alcotest.(check bool) "source module untouched" true
    (String.equal before (Marshal.to_string cm.Fastinterp.cm_bodies []))

(* ------------------------------------------------------------------ *)
(* Fuel builds of real modules: every module the repo runs loads
   through the one pass with and without fuel, and each kernel's fuel
   build computes its plain build's checksum, bit for bit. *)

let minic = Watz_wasmc.Minic.compile_to_bytes

let test_fuel_builds () =
  let module PB = Watz_workloads.Polybench in
  let module ST = Watz_workloads.Speedtest in
  let kernels =
    List.map (fun (k : PB.kernel) -> (k.PB.name, minic k.PB.program)) PB.all
    @ List.map (fun (e : ST.experiment) -> (Printf.sprintf "st-%d" e.ST.id, minic e.ST.program)) ST.all
  in
  let others =
    [ ("1 MB Bigapp", Watz_workloads.Bigapp.generate ~mb:1); ("Genann", Watz_workloads.Genann_wasm.bytes ()) ]
  in
  Alcotest.(check int) "45 modules" 45 (List.length (kernels @ others));
  List.iter
    (fun (_, bytes) -> List.iter (fun fuel -> ignore (Fastinterp.compile_bytes ~fuel bytes)) [ false; true ])
    others;
  (* [max_int] switches metering off, so one below it meters but
     cannot run out. *)
  let budget = max_int - 1 in
  List.iter
    (fun (name, bytes) ->
      let checksum cm =
        match Fastinterp.invoke (Fastinterp.instantiate cm) "run" [] with
        | [ VF64 x ] -> Int64.bits_of_float x
        | _ -> Alcotest.failf "%s: run returns one f64" name
      in
      let plain = checksum (Fastinterp.compile_bytes bytes) in
      let fuel_cm = Fastinterp.compile_bytes ~fuel:true bytes in
      let fueled, left =
        Instance.Fuel.with_fuel budget (fun () ->
            let r = checksum fuel_cm in
            (r, !Instance.Fuel.cell))
      in
      Alcotest.(check int64) (name ^ ": fuel build = plain build") plain fueled;
      Alcotest.(check bool) (name ^ ": fuel charged") true (left < budget))
    kernels

let case name f = Alcotest.test_case name `Quick f
let q = Seed_util.qcheck

let suite =
  [
    ( "wasm.arith",
      [
        case "i32 arithmetic" test_i32_arith;
        case "i32 division semantics" test_i32_division_semantics;
        case "division traps" test_div_by_zero_traps;
        case "i64 ops" test_i64_ops;
        case "i64 mul exact" test_i64_mul_exact;
        case "bit ops" test_bit_ops;
        case "f64 ops" test_f64_ops;
        case "conversions" test_conversions;
        case "reinterpret" test_reinterpret;
      ] );
    ( "wasm.control",
      [
        case "if/else" test_if_else;
        case "loop sum" test_loop_sum;
        case "block result + br" test_block_result_and_br;
        case "br_table" test_br_table;
        case "early return" test_early_return;
        case "unreachable traps" test_unreachable_traps;
        case "nested loops" test_nested_loops;
      ] );
    ( "wasm.calls",
      [
        case "recursive factorial" test_factorial_recursive;
        case "mutual recursion" test_mutual_recursion;
        case "call_indirect" test_call_indirect;
        case "host function" test_host_function_call;
        case "unbounded recursion traps on both tiers" test_unbounded_recursion_traps;
      ] );
    ( "wasm.memory",
      [
        case "load/store" test_memory_load_store;
        case "sized access sx/zx" test_memory_sized_access;
        case "oob traps" test_memory_oob_traps;
        case "offset overflow traps" test_memory_offset_overflow_traps;
        case "grow and size" test_memory_grow_and_size;
        case "data segment" test_data_segment;
        case "i64 words: plain, scaled and register-base addresses" test_memory_i64_words;
      ] );
    ("wasm.globals", [ case "mutable global" test_globals ]);
    ( "wasm.codec",
      [
        case "roundtrip" test_encode_decode_roundtrip;
        case "rejects garbage" test_decode_rejects_garbage;
        q test_leb_roundtrip;
        case "32-bit LEB128 decode table" test_leb32_decode_table;
        case "32-bit LEB128 bounds" test_leb32_bounds;
        q test_leb32_roundtrip;
        q qcheck_codec_roundtrip_random;
        case "custom sections: linear, in order" test_custom_sections_linear;
        q qcheck_codec_roundtrip_nested;
      ] );
    ( "wasm.validate",
      [
        case "rejects type errors" test_validator_rejects_type_errors;
        case "rejects bad memory use" test_validator_rejects_bad_memory_use;
        case "accepts unreachable code" test_validator_accepts_unreachable_code;
        case "rejects immutable global set" test_validator_rejects_immutable_global_set;
        case "deep operand stack: linear" test_validator_deep_stack_linear;
        case "many types: linear" test_validator_many_types_linear;
        case "front doors: a decode error wins" test_parity_decode_error_beats_type_error;
        case "front doors: check order" test_parity_check_order;
        case "front doors: empty else is no else" test_parity_empty_else;
        case "front doors: return in a then-arm" test_parity_return_in_then_arm;
      ] );
    ( "wasm.linear",
      [
        case "interp call_indirect: 40,000 types" test_interp_call_indirect_linear;
        case "interp br_table: 40,000 targets" test_interp_br_table_linear;
        case "one pass: 100,000 functions" test_onepass_many_functions_linear;
        case "one pass: 40,000-deep operand stack" test_onepass_deep_stack_linear;
        case "one pass: 40,000-target br_table" test_onepass_br_table_linear;
        case "one pass: 100,000 sibling blocks" test_onepass_sibling_blocks_linear;
      ] );
    ( "wasm.onepass",
      [
        case "fuel builds of 45 real modules" test_fuel_builds;
        case "dead code flattens to nothing" test_dead_code_flattens_to_nothing;
        case "reading and checking a leaf allocates nothing" test_leaf_events_allocate_nothing;
        case "rejecting a module builds no AST" test_reject_builds_no_ast;
      ] );
    ( "wasm.link",
      [
        case "unknown import" test_link_unknown_import;
        case "signature mismatch names both types" test_link_signature_mismatch;
        case "kind mismatch" test_link_kind_mismatch;
        case "only functions import" test_link_only_functions;
        case "segments out of bounds" test_link_segments_out_of_bounds;
        case "invoke arity and argument types" test_invoke_arity_and_types;
      ] );
    ( "wasm.numerics",
      [
        case "i32<-f64 trunc boundaries" test_i32_trunc_f64_boundaries;
        case "i64<-f64 trunc boundaries" test_i64_trunc_f64_boundaries;
        case "i32<-f32 trunc boundaries" test_i32_trunc_f32_boundaries;
        case "i64 division edges" test_i64_division_edges;
        case "shift count masking" test_shift_count_masking;
        case "NaN bit parity" test_nan_bit_parity;
        case "wrap/extend/demote" test_wrap_extend_demote;
      ] );
    ( "wasm.fusion",
      [
        case "br_if keeps local store" test_brif_fusion_preserves_local_store;
        case "if keeps local store" test_if_fusion_preserves_local_store;
        case "back-edge: i -= 1" test_back_edge_down_count;
        case "back-edge: step wraps at 2^31-1" test_back_edge_wraps;
        case "back-edge: continue lands on it" test_back_edge_continue;
        case "back-edge: header tests another local" test_back_edge_other_local;
        case "back-edge: exit carries a value" test_back_edge_exit_carries_value;
        case "back-edge: a branch to the br stays OJmp" test_back_edge_branch_to_br;
        case "back-edge: no step stays OJmp" test_back_edge_needs_step;
        case "back-edge: unfused under fuel" test_back_edge_fuel;
        case "2-D addressing: shapes and bounds" test_2d_addressing;
        case "2-D addressing: index into a local" test_2d_retargeted_index;
        case "f64 multiply-add: NaN, -0, no FMA" test_f64_multiply_add;
        case "f64 multiply-add: locals survive" test_f64_multiply_add_retargeted;
        case "i32 copy: aliasing and bounds" test_i32_copy;
        case "i32 copy: local survives" test_i32_copy_retargeted;
        case "unprofiled shapes stay unfused" test_unfused_shapes;
        case "i32 bit ops: locals, constants, retargets" test_i32_bit_ops;
        case "counting: a loop costs 3 + 2N" test_counting_loop;
      ] );
    ("wasm.differential", [ q qcheck_differential ]);
  ]
