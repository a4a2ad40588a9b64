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
  Validate.validate m;
  let inst = Instance.instantiate m in
  let interp_result =
    match Instance.export_func inst name with
    | Some f -> Interp.invoke f args
    | None -> Alcotest.failf "no export %s" name
  in
  let finst = Fastinterp.instantiate (Fastinterp.compile m) in
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
  Validate.validate m;
  let inst = Instance.instantiate m in
  let f = Option.get (Instance.export_func inst name) in
  (match Interp.invoke f args with
  | _ -> Alcotest.failf "interp: expected trap %s" msg_fragment
  | exception Instance.Trap msg ->
    Alcotest.(check bool) ("interp trap: " ^ msg) true
      (Astring.String.is_infix ~affix:msg_fragment msg
       || String.length msg_fragment = 0));
  match Fastinterp.invoke (Fastinterp.instantiate (Fastinterp.compile m)) name args with
  | _ -> Alcotest.failf "fast: expected trap %s" msg_fragment
  | exception Instance.Trap msg ->
    Alcotest.(check bool) ("fast trap: " ^ msg) true
      (Astring.String.is_infix ~affix:msg_fragment msg
       || String.length msg_fragment = 0)

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
                    Block (BlockEmpty, [ LocalGet 0; BrTable ([ 0; 1 ], 2) ]);
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
  let m = Builder.build b in
  Validate.validate m;
  let impl args =
    match args.(0) with
    | VI32 v -> [ VI32 (Int32.mul v 3l) ]
    | _ -> assert false
  in
  (* interp *)
  let imports =
    Instance.import_map_of_list
      [ ("env", "mul3", Instance.Extern_func (Instance.host_func ~name:"mul3" ~params:[ I32 ] ~results:[ I32 ] (fun args -> impl args))) ]
  in
  let inst = Instance.instantiate ~imports m in
  let got = Interp.invoke (Option.get (Instance.export_func inst "f")) [ VI32 5l ] in
  Alcotest.(check (list value_testable)) "interp host" [ VI32 16l ] got;
  (* fast *)
  let finst =
    Fastinterp.instantiate
      ~imports:[ Fastinterp.host ~module_:"env" ~name:"mul3" ~params:[ I32 ] ~results:[ I32 ] impl ]
      (Fastinterp.compile m)
  in
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
      Watz_util.Bytesio.Writer.uleb w (Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL);
      let r = Watz_util.Bytesio.Reader.of_string (Watz_util.Bytesio.Writer.contents w) in
      let s = Watz_util.Bytesio.Reader.sleb_int r ~max_bits:32 in
      let u = Watz_util.Bytesio.Reader.uleb r ~max_bits:32 in
      s = Int32.to_int v && u = Int32.to_int v land 0xFFFFFFFF && Watz_util.Bytesio.Reader.eof r)

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
  expect_invalid (Builder.build b) "alignment"

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
      let m = single_func ~params:[ I32; I32 ] ~results:[ I32 ] body in
      Validate.validate m;
      let inst = Instance.instantiate m in
      let args = [ VI32 123456l; VI32 (-789l) ] in
      let a = Interp.invoke (Option.get (Instance.export_func inst "f")) args in
      let fa = Fastinterp.invoke (Fastinterp.instantiate (Fastinterp.compile m)) "f" args in
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
      ] );
    ( "wasm.memory",
      [
        case "load/store" test_memory_load_store;
        case "sized access sx/zx" test_memory_sized_access;
        case "oob traps" test_memory_oob_traps;
        case "offset overflow traps" test_memory_offset_overflow_traps;
        case "grow and size" test_memory_grow_and_size;
        case "data segment" test_data_segment;
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
      ] );
    ( "wasm.validate",
      [
        case "rejects type errors" test_validator_rejects_type_errors;
        case "rejects bad memory use" test_validator_rejects_bad_memory_use;
        case "accepts unreachable code" test_validator_accepts_unreachable_code;
        case "rejects immutable global set" test_validator_rejects_immutable_global_set;
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
      ] );
    ("wasm.differential", [ q qcheck_differential ]);
  ]
