(** WebAssembly binary-format encoder (spec §5, binary version 1).

    WaTZ measures and loads AOT/Wasm binaries as byte strings; this
    encoder turns {!Ast.module_} values (hand-built or produced by the
    MiniC compiler) into spec-conformant [.wasm] bytes. *)

open Types
open Ast
module W = Watz_util.Bytesio.Writer

let byte_of_valtype = function I32 -> 0x7f | I64 -> 0x7e | F32 -> 0x7d | F64 -> 0x7c

let valtype w t = W.u8 w (byte_of_valtype t)

let blocktype w = function
  | BlockEmpty -> W.u8 w 0x40
  | BlockVal t -> valtype w t

let vec w f items =
  W.uleb w (List.length items);
  List.iter (f w) items

let name w s = W.len_bytes w s

let limits w (l : limits) =
  match l.max with
  | None ->
    W.u8 w 0x00;
    W.uleb w l.min
  | Some m ->
    W.u8 w 0x01;
    W.uleb w l.min;
    W.uleb w m

let functype w ft =
  W.u8 w 0x60;
  vec w valtype ft.params;
  vec w valtype ft.results

let globaltype w (g : globaltype) =
  valtype w g.content;
  W.u8 w (match g.mut with Immutable -> 0x00 | Mutable -> 0x01)

let memarg w (m : memarg) =
  W.uleb w m.align;
  W.uleb w m.offset

let f32_const w x = W.u32 w (Int32.bits_of_float x)
let f64_const w x = W.u64 w (Int64.bits_of_float x)

let load_opcode ty pack =
  match (ty, pack) with
  | I32, None -> 0x28
  | I64, None -> 0x29
  | F32, None -> 0x2a
  | F64, None -> 0x2b
  | I32, Some (P8, SX) -> 0x2c
  | I32, Some (P8, ZX) -> 0x2d
  | I32, Some (P16, SX) -> 0x2e
  | I32, Some (P16, ZX) -> 0x2f
  | I64, Some (P8, SX) -> 0x30
  | I64, Some (P8, ZX) -> 0x31
  | I64, Some (P16, SX) -> 0x32
  | I64, Some (P16, ZX) -> 0x33
  | I64, Some (P32, SX) -> 0x34
  | I64, Some (P32, ZX) -> 0x35
  | (I32 | F32 | F64), Some (P32, _) | (F32 | F64), Some ((P8 | P16), _) ->
    invalid_arg "Encode: invalid load"

let store_opcode ty pack =
  match (ty, pack) with
  | I32, None -> 0x36
  | I64, None -> 0x37
  | F32, None -> 0x38
  | F64, None -> 0x39
  | I32, Some P8 -> 0x3a
  | I32, Some P16 -> 0x3b
  | I64, Some P8 -> 0x3c
  | I64, Some P16 -> 0x3d
  | I64, Some P32 -> 0x3e
  | (I32 | F32 | F64), Some P32 | (F32 | F64), Some (P8 | P16) ->
    invalid_arg "Encode: invalid store"

let itestop_opcode = function I32 -> 0x45 | I64 -> 0x50 | F32 | F64 -> invalid_arg "Encode: eqz"

let irelop_opcode ty (op : irelop) =
  let base = match ty with I32 -> 0x46 | I64 -> 0x51 | F32 | F64 -> invalid_arg "Encode: irelop" in
  let off =
    match op with
    | Eq -> 0 | Ne -> 1 | LtS -> 2 | LtU -> 3 | GtS -> 4
    | GtU -> 5 | LeS -> 6 | LeU -> 7 | GeS -> 8 | GeU -> 9
  in
  base + off

let frelop_opcode ty (op : frelop) =
  let base = match ty with F32 -> 0x5b | F64 -> 0x61 | I32 | I64 -> invalid_arg "Encode: frelop" in
  let off = match op with Feq -> 0 | Fne -> 1 | Flt -> 2 | Fgt -> 3 | Fle -> 4 | Fge -> 5 in
  base + off

let iunop_opcode ty (op : iunop) =
  let base = match ty with I32 -> 0x67 | I64 -> 0x79 | F32 | F64 -> invalid_arg "Encode: iunop" in
  let off = match op with Clz -> 0 | Ctz -> 1 | Popcnt -> 2 in
  base + off

let ibinop_opcode ty (op : ibinop) =
  let base = match ty with I32 -> 0x6a | I64 -> 0x7c | F32 | F64 -> invalid_arg "Encode: ibinop" in
  let off =
    match op with
    | Add -> 0 | Sub -> 1 | Mul -> 2 | DivS -> 3 | DivU -> 4 | RemS -> 5 | RemU -> 6
    | And -> 7 | Or -> 8 | Xor -> 9 | Shl -> 10 | ShrS -> 11 | ShrU -> 12
    | Rotl -> 13 | Rotr -> 14
  in
  base + off

let funop_opcode ty (op : funop) =
  let base = match ty with F32 -> 0x8b | F64 -> 0x99 | I32 | I64 -> invalid_arg "Encode: funop" in
  let off =
    match op with
    | Abs -> 0 | Neg -> 1 | Ceil -> 2 | Floor -> 3 | Trunc -> 4 | Nearest -> 5 | Sqrt -> 6
  in
  base + off

let fbinop_opcode ty (op : fbinop) =
  let base = match ty with F32 -> 0x92 | F64 -> 0xa0 | I32 | I64 -> invalid_arg "Encode: fbinop" in
  let off =
    match op with
    | Fadd -> 0 | Fsub -> 1 | Fmul -> 2 | Fdiv -> 3 | Fmin -> 4 | Fmax -> 5 | Copysign -> 6
  in
  base + off

let cvtop_opcode = function
  | I32WrapI64 -> 0xa7
  | I32TruncF32S -> 0xa8
  | I32TruncF32U -> 0xa9
  | I32TruncF64S -> 0xaa
  | I32TruncF64U -> 0xab
  | I64ExtendI32S -> 0xac
  | I64ExtendI32U -> 0xad
  | I64TruncF32S -> 0xae
  | I64TruncF32U -> 0xaf
  | I64TruncF64S -> 0xb0
  | I64TruncF64U -> 0xb1
  | F32ConvertI32S -> 0xb2
  | F32ConvertI32U -> 0xb3
  | F32ConvertI64S -> 0xb4
  | F32ConvertI64U -> 0xb5
  | F32DemoteF64 -> 0xb6
  | F64ConvertI32S -> 0xb7
  | F64ConvertI32U -> 0xb8
  | F64ConvertI64S -> 0xb9
  | F64ConvertI64U -> 0xba
  | F64PromoteF32 -> 0xbb
  | I32ReinterpretF32 -> 0xbc
  | I64ReinterpretF64 -> 0xbd
  | F32ReinterpretI32 -> 0xbe
  | F64ReinterpretI64 -> 0xbf

let rec instr w = function
  | Unreachable -> W.u8 w 0x00
  | Nop -> W.u8 w 0x01
  | Block (bt, body) ->
    W.u8 w 0x02;
    blocktype w bt;
    expr w body
  | Loop (bt, body) ->
    W.u8 w 0x03;
    blocktype w bt;
    expr w body
  | If (bt, then_, else_) ->
    W.u8 w 0x04;
    blocktype w bt;
    List.iter (instr w) then_;
    if else_ <> [] then begin
      W.u8 w 0x05;
      List.iter (instr w) else_
    end;
    W.u8 w 0x0b
  | Br l ->
    W.u8 w 0x0c;
    W.uleb w l
  | BrIf l ->
    W.u8 w 0x0d;
    W.uleb w l
  | BrTable (ls, default) ->
    W.u8 w 0x0e;
    W.uleb w (Array.length ls);
    Array.iter (W.uleb w) ls;
    W.uleb w default
  | Return -> W.u8 w 0x0f
  | Call f ->
    W.u8 w 0x10;
    W.uleb w f
  | CallIndirect t ->
    W.u8 w 0x11;
    W.uleb w t;
    W.u8 w 0x00 (* table index *)
  | Drop -> W.u8 w 0x1a
  | Select -> W.u8 w 0x1b
  | LocalGet i ->
    W.u8 w 0x20;
    W.uleb w i
  | LocalSet i ->
    W.u8 w 0x21;
    W.uleb w i
  | LocalTee i ->
    W.u8 w 0x22;
    W.uleb w i
  | GlobalGet i ->
    W.u8 w 0x23;
    W.uleb w i
  | GlobalSet i ->
    W.u8 w 0x24;
    W.uleb w i
  | Load (ty, pack, m) ->
    W.u8 w (load_opcode ty pack);
    memarg w m
  | Store (ty, pack, m) ->
    W.u8 w (store_opcode ty pack);
    memarg w m
  | MemorySize ->
    W.u8 w 0x3f;
    W.u8 w 0x00
  | MemoryGrow ->
    W.u8 w 0x40;
    W.u8 w 0x00
  | Const (VI32 v) ->
    W.u8 w 0x41;
    W.sleb w (Int64.of_int32 v)
  | Const (VI64 v) ->
    W.u8 w 0x42;
    W.sleb w v
  | Const (VF32 v) ->
    W.u8 w 0x43;
    f32_const w v
  | Const (VF64 v) ->
    W.u8 w 0x44;
    f64_const w v
  | ITestop ty -> W.u8 w (itestop_opcode ty)
  | IUnop (ty, op) -> W.u8 w (iunop_opcode ty op)
  | IBinop (ty, op) -> W.u8 w (ibinop_opcode ty op)
  | IRelop (ty, op) -> W.u8 w (irelop_opcode ty op)
  | FUnop (ty, op) -> W.u8 w (funop_opcode ty op)
  | FBinop (ty, op) -> W.u8 w (fbinop_opcode ty op)
  | FRelop (ty, op) -> W.u8 w (frelop_opcode ty op)
  | Cvtop op -> W.u8 w (cvtop_opcode op)

and expr w body =
  List.iter (instr w) body;
  W.u8 w 0x0b

let section w id payload =
  if String.length payload > 0 then begin
    W.u8 w id;
    W.len_bytes w payload
  end

let in_section f =
  let w = W.create () in
  f w;
  W.contents w

let importdesc w = function
  | ImportFunc t ->
    W.u8 w 0x00;
    W.uleb w t
  | ImportTable l ->
    W.u8 w 0x01;
    W.u8 w 0x70;
    limits w l
  | ImportMemory l ->
    W.u8 w 0x02;
    limits w l
  | ImportGlobal g ->
    W.u8 w 0x03;
    globaltype w g

let exportdesc w = function
  | ExportFunc i ->
    W.u8 w 0x00;
    W.uleb w i
  | ExportTable i ->
    W.u8 w 0x01;
    W.uleb w i
  | ExportMemory i ->
    W.u8 w 0x02;
    W.uleb w i
  | ExportGlobal i ->
    W.u8 w 0x03;
    W.uleb w i

let code_entry f =
  in_section (fun w ->
      (* Group consecutive equal local types into (count, type) runs. *)
      let groups =
        List.fold_left
          (fun acc t ->
            match acc with
            | (count, t') :: rest when Types.valtype_equal t t' -> (count + 1, t') :: rest
            | _ -> (1, t) :: acc)
          [] f.locals
        |> List.rev
      in
      vec w
        (fun w (count, t) ->
          W.uleb w count;
          valtype w t)
        groups;
      expr w f.body)

let encode (m : module_) =
  let w = W.create ~capacity:4096 () in
  W.bytes w "\x00asm";
  W.u32 w 1l;
  section w 1 (in_section (fun w -> vec w functype m.types));
  section w 2
    (in_section (fun w ->
         vec w
           (fun w i ->
             name w i.imp_module;
             name w i.imp_name;
             importdesc w i.idesc)
           m.imports));
  section w 3 (in_section (fun w -> vec w (fun w f -> W.uleb w f.ftype) m.funcs));
  section w 4
    (in_section (fun w ->
         vec w
           (fun w l ->
             W.u8 w 0x70;
             limits w l)
           m.tables));
  section w 5 (in_section (fun w -> vec w limits m.memories));
  section w 6
    (in_section (fun w ->
         vec w
           (fun w g ->
             globaltype w g.gtype;
             expr w g.ginit)
           m.globals));
  section w 7
    (in_section (fun w ->
         vec w
           (fun w e ->
             name w e.exp_name;
             exportdesc w e.edesc)
           m.exports));
  (match m.start with
  | None -> ()
  | Some f -> section w 8 (in_section (fun w -> W.uleb w f)));
  section w 9
    (in_section (fun w ->
         vec w
           (fun w e ->
             W.uleb w e.etable;
             expr w e.eoffset;
             vec w W.uleb e.einit)
           m.elems));
  section w 10
    (in_section (fun w -> vec w (fun w f -> W.len_bytes w (code_entry f)) m.funcs));
  section w 11
    (in_section (fun w ->
         vec w
           (fun w d ->
             W.uleb w d.dmem;
             expr w d.doffset;
             W.len_bytes w d.dinit)
           m.datas));
  List.iter
    (fun (cname, payload) ->
      section w 0
        (in_section (fun w ->
             name w cname;
             W.bytes w payload)))
    m.customs;
  W.contents w
