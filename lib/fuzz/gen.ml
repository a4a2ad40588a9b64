(** Valid-by-construction Wasm module generation.

    A typed expression/function generator over {!Watz_wasm.Builder}:
    every emitted module must pass {!Watz_wasm.Validate.validate} (a
    validation failure is a finding against this generator, not noise),
    and every emitted function terminates — loops count down a hidden
    induction local that the statement generator cannot clobber, and
    calls only ever target lower-indexed functions, with
    [call_indirect] restricted to a table of call-free leaf functions.
    Traps are welcome (the differential executor checks trap parity);
    divergence is not.

    Dynamic behaviour is additionally metered through a mutable [fuel]
    global decremented on every loop back-edge and function entry, and
    exposed through the exported [__fuel] getter: after running the
    same exports on two tiers, equal fuel readings certify the tiers
    agreed on the whole dynamic path, not just the final values. *)

open Watz_wasm.Types
open Watz_wasm.Ast
module B = Watz_wasm.Builder
module Prng = Watz_util.Prng

let max_body = 8 (* statement budget per function body *)
let max_depth = 4 (* expression recursion depth *)
let max_params = 3

let valtypes = [| I32; I64; F32; F64 |]
let pick rng arr = arr.(Prng.int rng (Array.length arr))
let valtype rng = pick rng valtypes

(* Interesting constants first: boundary values find div/rem overflow,
   conversion saturation and NaN-propagation divergences far faster
   than uniform draws. *)
let i32_pool =
  [| 0l; 1l; -1l; 2l; Int32.min_int; Int32.max_int; 0x7fl; 0x80l; 0xffl; 31l; 32l; 33l |]

let i64_pool =
  [| 0L; 1L; -1L; 2L; Int64.min_int; Int64.max_int; 0xffL; 63L; 64L; 65L;
     0x80000000L; 0xffffffffL |]

let f64_pool =
  [| 0.0; -0.0; 1.0; -1.0; 0.5; Float.nan; Float.infinity; Float.neg_infinity;
     2147483647.0; 2147483648.0; -2147483648.0; -2147483649.0;
     9.223372036854775e18; 1e-308; Float.max_float; Float.min_float |]

let gen_i32 rng =
  if Prng.bool rng then pick rng i32_pool else Int64.to_int32 (Prng.next64 rng)

let gen_i64 rng = if Prng.bool rng then pick rng i64_pool else Prng.next64 rng

let gen_f64 rng =
  if Prng.bool rng then pick rng f64_pool else Prng.float rng 1000.0 -. 500.0

let gen_f32 rng = Int32.float_of_bits (Int32.bits_of_float (gen_f64 rng))

let gen_const rng ty =
  Const
    (match ty with
    | I32 -> VI32 (gen_i32 rng)
    | I64 -> VI64 (gen_i64 rng)
    | F32 -> VF32 (gen_f32 rng)
    | F64 -> VF64 (gen_f64 rng))

let ibinops = [| Add; Sub; Mul; DivS; DivU; RemS; RemU; And; Or; Xor; Shl; ShrS; ShrU; Rotl; Rotr |]
let iunops = [| Clz; Ctz; Popcnt |]
let irelops = [| Eq; Ne; LtS; LtU; GtS; GtU; LeS; LeU; GeS; GeU |]
let funops = [| Abs; Neg; Ceil; Floor; Trunc; Nearest; Sqrt |]
let fbinops = [| Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax; Copysign |]
let frelops = [| Feq; Fne; Flt; Fgt; Fle; Fge |]

(* Conversions producing [dst], with the source type they consume. *)
let cvts_to = function
  | I32 ->
    [| (I32WrapI64, I64); (I32TruncF32S, F32); (I32TruncF32U, F32); (I32TruncF64S, F64);
       (I32TruncF64U, F64); (I32ReinterpretF32, F32) |]
  | I64 ->
    [| (I64ExtendI32S, I32); (I64ExtendI32U, I32); (I64TruncF32S, F32); (I64TruncF32U, F32);
       (I64TruncF64S, F64); (I64TruncF64U, F64); (I64ReinterpretF64, F64) |]
  | F32 ->
    [| (F32ConvertI32S, I32); (F32ConvertI32U, I32); (F32ConvertI64S, I64);
       (F32ConvertI64U, I64); (F32DemoteF64, F64); (F32ReinterpretI32, I32) |]
  | F64 ->
    [| (F64ConvertI32S, I32); (F64ConvertI32U, I32); (F64ConvertI64S, I64);
       (F64ConvertI64U, I64); (F64PromoteF32, F32); (F64ReinterpretI64, I64) |]

(* A function the generator may call or store in the table. *)
type callee = { c_idx : int; c_params : valtype list; c_result : valtype option }

type genv = {
  rng : Prng.t;
  locals : valtype array; (* params @ visible scratch locals *)
  counters : int array; (* hidden loop-induction locals, one per nesting level *)
  mutable loop_nest : int;
  fuel_global : int;
  fresult : valtype option;
  callees : callee list; (* lower-indexed functions, callable directly *)
  table_size : int; (* 0 in a leaf; call_indirect allowed when > 0 *)
  table_types : (int * functype) array; (* type index pool for call_indirect *)
  mutable budget : int; (* instruction-ish budget, hard stop for size *)
}

let spend env n = env.budget <- env.budget - n

let locals_of_type env ty =
  let out = ref [] in
  Array.iteri (fun i t -> if valtype_equal t ty then out := i :: !out) env.locals;
  Array.of_list (List.rev !out)

(* [gen_expr env depth ty] emits instructions that push exactly one
   [ty] onto the stack. *)
let rec gen_expr env depth ty : instr list =
  spend env 1;
  let rng = env.rng in
  let leaf () =
    let ls = locals_of_type env ty in
    if Array.length ls > 0 && Prng.int rng 3 > 0 then [ LocalGet (pick rng ls) ]
    else [ gen_const rng ty ]
  in
  if depth <= 0 || env.budget <= 0 then leaf ()
  else
    match Prng.int rng 12 with
    | 0 | 1 -> leaf ()
    | 2 -> (
      (* unary *)
      match ty with
      | I32 | I64 -> gen_expr env (depth - 1) ty @ [ IUnop (ty, pick rng iunops) ]
      | F32 | F64 -> gen_expr env (depth - 1) ty @ [ FUnop (ty, pick rng funops) ])
    | 3 | 4 -> (
      (* binary *)
      match ty with
      | I32 | I64 ->
        gen_expr env (depth - 1) ty @ gen_expr env (depth - 1) ty
        @ [ IBinop (ty, pick rng ibinops) ]
      | F32 | F64 ->
        gen_expr env (depth - 1) ty @ gen_expr env (depth - 1) ty
        @ [ FBinop (ty, pick rng fbinops) ])
    | 5 when ty = I32 -> (
      (* comparisons and tests produce i32 *)
      let src = valtype rng in
      match src with
      | I32 | I64 ->
        if Prng.bool rng then
          gen_expr env (depth - 1) src @ gen_expr env (depth - 1) src
          @ [ IRelop (src, pick rng irelops) ]
        else gen_expr env (depth - 1) src @ [ ITestop src ]
      | F32 | F64 ->
        gen_expr env (depth - 1) src @ gen_expr env (depth - 1) src
        @ [ FRelop (src, pick rng frelops) ])
    | 6 ->
      (* conversion; trunc of NaN/out-of-range traps — differential fodder *)
      let cvt, src = pick rng (cvts_to ty) in
      gen_expr env (depth - 1) src @ [ Cvtop cvt ]
    | 7 ->
      let pack =
        match ty with
        | I32 -> pick rng [| None; Some (P8, SX); Some (P8, ZX); Some (P16, SX); Some (P16, ZX) |]
        | I64 ->
          pick rng
            [| None; Some (P8, SX); Some (P8, ZX); Some (P16, SX); Some (P16, ZX);
               Some (P32, SX); Some (P32, ZX) |]
        | F32 | F64 -> None
      in
      let addr =
        (* mostly in-bounds addresses, sometimes wild *)
        if Prng.int rng 4 = 0 then gen_expr env (depth - 1) I32
        else [ Const (VI32 (Int32.of_int (Prng.int rng 65400))) ]
      in
      addr @ [ Load (ty, pack, { align = 0; offset = Prng.int rng 64 }) ]
    | 8 ->
      (* select *)
      gen_expr env (depth - 1) ty @ gen_expr env (depth - 1) ty
      @ gen_expr env (depth - 1) I32 @ [ Select ]
    | 9 ->
      (* if-expression *)
      gen_expr env (depth - 1) I32
      @ [ If (BlockVal ty, gen_expr env (depth - 1) ty, gen_expr env (depth - 1) ty) ]
    | 10 -> (
      (* direct call to a lower-indexed function returning [ty] *)
      match List.filter (fun c -> c.c_result = Some ty) env.callees with
      | [] -> leaf ()
      | cs ->
        let c = List.nth cs (Prng.int rng (List.length cs)) in
        List.concat_map (fun p -> gen_expr env (depth - 1) p) c.c_params @ [ Call c.c_idx ])
    | _ when ty = I32 && env.table_size > 0 && Array.length env.table_types > 0 -> (
      (* call_indirect through the leaf table; may trap on an undefined
         element, an out-of-range index or a signature mismatch *)
      match
        Array.to_list env.table_types |> List.filter (fun (_, ft) -> ft.results = [ I32 ])
      with
      | [] -> leaf ()
      | tts ->
        let tidx, ft = List.nth tts (Prng.int rng (List.length tts)) in
        List.concat_map (fun p -> gen_expr env (depth - 1) p) ft.params
        @ [ Const (VI32 (Int32.of_int (Prng.int rng (env.table_size + 2)))); CallIndirect tidx ])
    | _ -> leaf ()

(* Side-effecting statements (net stack effect zero). *)
let rec gen_stmt env depth : instr list =
  spend env 1;
  let rng = env.rng in
  if env.budget <= 0 then [ Nop ]
  else
    match Prng.int rng 14 with
    | 0 | 1 ->
      (* local.set / local.tee on a *visible* local (never a counter) *)
      let ty = env.locals.(Prng.int rng (Array.length env.locals)) in
      let ls = locals_of_type env ty in
      if Prng.bool rng then gen_expr env depth ty @ [ LocalSet (pick rng ls) ]
      else gen_expr env depth ty @ [ LocalTee (pick rng ls); Drop ]
    | 2 ->
      (* store *)
      let ty = valtype rng in
      let pack =
        match ty with
        | I32 -> pick rng [| None; Some P8; Some P16 |]
        | I64 -> pick rng [| None; Some P8; Some P16; Some P32 |]
        | F32 | F64 -> None
      in
      let addr =
        if Prng.int rng 4 = 0 then gen_expr env (depth - 1) I32
        else [ Const (VI32 (Int32.of_int (Prng.int rng 65400))) ]
      in
      addr @ gen_expr env depth ty @ [ Store (ty, pack, { align = 0; offset = Prng.int rng 64 }) ]
    | 3 when depth > 0 ->
      gen_expr env (depth - 1) I32
      @ [ If (BlockEmpty, gen_stmts env (depth - 1) 2, gen_stmts env (depth - 1) 2) ]
    | 4 when depth > 0 -> gen_loop env depth
    | 5 ->
      let ty = valtype rng in
      gen_expr env depth ty @ [ Drop ]
    | 6 ->
      (* memory.grow, result dropped; capped by the memory's max *)
      [ Const (VI32 (Int32.of_int (Prng.int rng 2))); MemoryGrow; Drop ]
    | 7 when depth > 0 ->
      (* block with a conditional early exit: br_if targeting the block *)
      [ Block
          ( BlockEmpty,
            gen_stmts env (depth - 1) 1
            @ gen_expr env (depth - 1) I32
            @ [ BrIf 0 ]
            @ gen_stmts env (depth - 1) 1 ) ]
    | 8 when depth > 0 ->
      (* br_table dispatch over two nesting levels; the two paths are
         distinguished by whether the trailing statement runs *)
      [ Block
          ( BlockEmpty,
            [ Block
                ( BlockEmpty,
                  gen_expr env (depth - 1) I32 @ [ BrTable ([| 0; 1 |], 0) ] )
            ]
            @ gen_stmts env (depth - 1) 1 ) ]
    | 9 when depth > 0 -> (
      (* rare conditional early return *)
      match env.fresult with
      | None -> gen_expr env (depth - 1) I32 @ [ If (BlockEmpty, [ Return ], []) ]
      | Some ty ->
        gen_expr env (depth - 1) I32
        @ [ If (BlockEmpty, gen_expr env (depth - 1) ty @ [ Return ], []) ])
    | 10 when depth > 1 ->
      (* rare conditional unreachable: trap-parity fodder *)
      gen_expr env (depth - 1) I32
      @ [ ITestop I32; If (BlockEmpty, [], [ Unreachable ]) ]
    | _ -> [ Nop ]

and gen_stmts env depth n = List.concat (List.init n (fun _ -> gen_stmt env depth))

(* A bounded loop: a *hidden* induction local (never visible to the
   statement generator, so nothing in the body can clobber it) counts
   down from a small constant; the back-edge fires only while it is
   positive, and every iteration burns one unit of the fuel global.
   Termination by construction, fuel accounting by construction. *)
and gen_loop env depth =
  let rng = env.rng in
  if env.loop_nest >= Array.length env.counters then [ Nop ]
  else begin
    let c = env.counters.(env.loop_nest) in
    env.loop_nest <- env.loop_nest + 1;
    let iters = 1 + Prng.int rng 8 in
    let body = gen_stmts env (depth - 1) (1 + Prng.int rng 2) in
    env.loop_nest <- env.loop_nest - 1;
    [ Const (VI32 (Int32.of_int iters)); LocalSet c;
      Loop
        ( BlockEmpty,
          body
          @ [ (* fuel-- *)
              GlobalGet env.fuel_global; Const (VI32 1l); IBinop (I32, Sub);
              GlobalSet env.fuel_global;
              (* if (--c > 0) continue *)
              LocalGet c; Const (VI32 1l); IBinop (I32, Sub); LocalTee c;
              Const (VI32 0l); IRelop (I32, GtS); BrIf 0 ] ) ]
  end

let gen_functype rng =
  let n = Prng.int rng (max_params + 1) in
  let params = List.init n (fun _ -> valtype rng) in
  let results = if Prng.int rng 8 = 0 then [] else [ valtype rng ] in
  { params; results }

(** A generated case: the module plus the calls the differential
    executor should make (export name and argument values drawn from
    the same seed). *)
type case = {
  module_ : module_;
  calls : (string * value list) list;
  fuel_export : string; (* nullary i32 export reading the fuel global *)
}

let gen_value rng = function
  | I32 -> VI32 (gen_i32 rng)
  | I64 -> VI64 (gen_i64 rng)
  | F32 -> VF32 (gen_f32 rng)
  | F64 -> VF64 (gen_f64 rng)

let max_loop_nest = 3

let generate ?(max_funcs = 6) rng : case =
  let b = B.create () in
  ignore (B.memory b ~min:1 ~max:4 ());
  (* Global 0 is the mutable fuel counter. *)
  let fuel_global = B.global b ~mut:true ~init:(VI32 100_000l) in
  let n_funcs = 1 + Prng.int rng max_funcs in
  (* Leaf functions eligible for the table (no calls at all), then
     call-capable functions that may call anything before them. *)
  let n_leaves = 1 + Prng.int rng (max 1 (n_funcs / 2)) in
  let callees = ref [] in
  let table_types = ref [] in
  let make_fun ~leaf ~table_size () =
    let ft = gen_functype rng in
    let n_extra = 1 + Prng.int rng 4 in
    let scratch = List.init n_extra (fun _ -> valtype rng) in
    (* hidden loop counters live after the visible scratch locals *)
    let counter_slots = List.init max_loop_nest (fun _ -> I32) in
    let n_params = List.length ft.params in
    let counters =
      Array.init max_loop_nest (fun k -> n_params + n_extra + k)
    in
    let env =
      {
        rng;
        locals = Array.of_list (ft.params @ scratch);
        counters;
        loop_nest = 0;
        fuel_global;
        fresult = (match ft.results with [] -> None | t :: _ -> Some t);
        callees = (if leaf then [] else !callees);
        table_size = (if leaf then 0 else table_size);
        table_types = Array.of_list !table_types;
        budget = 40 + Prng.int rng 60;
      }
    in
    let stmts = gen_stmts env max_depth (1 + Prng.int rng max_body) in
    (* function entry burns fuel too *)
    let prologue =
      [ GlobalGet fuel_global; Const (VI32 1l); IBinop (I32, Sub); GlobalSet fuel_global ]
    in
    let epilogue =
      match ft.results with [] -> [] | [ ty ] -> gen_expr env 2 ty | _ -> assert false
    in
    let fidx =
      B.func b ~params:ft.params ~results:ft.results ~locals:(scratch @ counter_slots)
        (prologue @ stmts @ epilogue)
    in
    callees :=
      !callees
      @ [ { c_idx = fidx;
            c_params = ft.params;
            c_result = (match ft.results with [] -> None | [ t ] -> Some t | _ -> None) } ];
    (fidx, ft)
  in
  let leaves = List.init n_leaves (fun _ -> make_fun ~leaf:true ~table_size:0 ()) in
  (* table of leaves, plus the type pool call_indirect draws from *)
  let table_size = List.length leaves in
  let tbl = B.table b ~min:table_size ~max:table_size () in
  B.elem b ~table:tbl ~offset:0 (List.map fst leaves);
  table_types := List.map (fun (_, ft) -> (B.typeidx b ft, ft)) leaves;
  let rest = List.init (n_funcs - n_leaves) (fun _ -> make_fun ~leaf:false ~table_size ()) in
  let funs = leaves @ rest in
  List.iteri (fun i (fidx, _) -> B.export_func b (Printf.sprintf "f%d" i) fidx) funs;
  (* __fuel: nullary getter over the fuel global, the cross-tier
     dynamic-path checksum. *)
  let fuel_f = B.func b ~params:[] ~results:[ I32 ] ~locals:[] [ GlobalGet fuel_global ] in
  B.export_func b "__fuel" fuel_f;
  B.export_memory b "memory" 0;
  B.data b ~memory:0 ~offset:(Prng.int rng 256) (Prng.bytes rng (1 + Prng.int rng 64));
  let m = B.build b in
  let calls =
    List.mapi (fun i (_, ft) -> (Printf.sprintf "f%d" i, List.map (gen_value rng) ft.params)) funs
  in
  { module_ = m; calls; fuel_export = "__fuel" }
