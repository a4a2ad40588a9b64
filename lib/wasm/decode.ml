(** WebAssembly binary-format decoder (spec §5).

    This is the parsing half of the loading phase measured in Fig. 4 of
    the paper: WaTZ copies the bytecode into secure memory, hashes it,
    then decodes it here. *)

open Types
open Ast
module R = Watz_util.Bytesio.Reader

exception Malformed of string

let fail fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

let valtype r =
  match R.u8 r with
  | 0x7f -> I32
  | 0x7e -> I64
  | 0x7d -> F32
  | 0x7c -> F64
  | b -> fail "invalid value type 0x%02x" b

let u32_as_int r = R.uleb r ~max_bits:32

let vec r f =
  let n = u32_as_int r in
  if n > 1_000_000 then fail "vector too long (%d)" n;
  List.init n (fun _ -> f r)

let name r =
  let n = u32_as_int r in
  R.bytes r n

let limits r =
  match R.u8 r with
  | 0x00 -> { min = u32_as_int r; max = None }
  | 0x01 ->
    let min = u32_as_int r in
    let max = u32_as_int r in
    { min; max = Some max }
  | b -> fail "invalid limits flag 0x%02x" b

let functype r =
  match R.u8 r with
  | 0x60 ->
    let params = vec r valtype in
    let results = vec r valtype in
    { params; results }
  | b -> fail "invalid functype tag 0x%02x" b

let globaltype r =
  let content = valtype r in
  let mut =
    match R.u8 r with
    | 0x00 -> Immutable
    | 0x01 -> Mutable
    | b -> fail "invalid mutability 0x%02x" b
  in
  { content; mut }

let memarg r =
  let align = u32_as_int r in
  let offset = u32_as_int r in
  { align; offset }

let blocktype r =
  (* Peek: 0x40 is empty, a valtype byte is a single result. *)
  match R.u8 r with
  | 0x40 -> BlockEmpty
  | 0x7f -> BlockVal I32
  | 0x7e -> BlockVal I64
  | 0x7d -> BlockVal F32
  | 0x7c -> BlockVal F64
  | b -> fail "unsupported block type 0x%02x" b

(* Structured instructions nest recursively; bound the depth so a
   mutated module full of 0x02 bytes exhausts neither this decoder's
   stack nor the validator's/compilers' (they all recurse over the same
   tree). 256 is far beyond anything a real toolchain emits. *)
let max_nesting = 256

(* Decoding a structured instruction sequence. Returns the list and the
   terminator (0x0b end, or 0x05 else). *)
let rec instr_seq depth r =
  if depth > max_nesting then fail "block nesting deeper than %d" max_nesting;
  let rec go acc =
    let op = R.u8 r in
    match op with
    | 0x0b -> (List.rev acc, `End)
    | 0x05 -> (List.rev acc, `Else)
    | _ -> go (instr depth r op :: acc)
  in
  go []

and instr depth r op =
  match op with
  | 0x00 -> Unreachable
  | 0x01 -> Nop
  | 0x02 ->
    let bt = blocktype r in
    let body, term = instr_seq (depth + 1) r in
    if term <> `End then fail "block: unexpected else";
    Block (bt, body)
  | 0x03 ->
    let bt = blocktype r in
    let body, term = instr_seq (depth + 1) r in
    if term <> `End then fail "loop: unexpected else";
    Loop (bt, body)
  | 0x04 ->
    let bt = blocktype r in
    let then_, term = instr_seq (depth + 1) r in
    let else_ =
      match term with
      | `End -> []
      | `Else ->
        let e, term2 = instr_seq (depth + 1) r in
        if term2 <> `End then fail "if: nested else";
        e
    in
    If (bt, then_, else_)
  | 0x0c -> Br (u32_as_int r)
  | 0x0d -> BrIf (u32_as_int r)
  | 0x0e ->
    let targets = vec r u32_as_int in
    let default = u32_as_int r in
    BrTable (targets, default)
  | 0x0f -> Return
  | 0x10 -> Call (u32_as_int r)
  | 0x11 ->
    let ty = u32_as_int r in
    (match R.u8 r with
    | 0x00 -> CallIndirect ty
    | b -> fail "call_indirect: bad table byte 0x%02x" b)
  | 0x1a -> Drop
  | 0x1b -> Select
  | 0x20 -> LocalGet (u32_as_int r)
  | 0x21 -> LocalSet (u32_as_int r)
  | 0x22 -> LocalTee (u32_as_int r)
  | 0x23 -> GlobalGet (u32_as_int r)
  | 0x24 -> GlobalSet (u32_as_int r)
  | 0x28 -> Load (I32, None, memarg r)
  | 0x29 -> Load (I64, None, memarg r)
  | 0x2a -> Load (F32, None, memarg r)
  | 0x2b -> Load (F64, None, memarg r)
  | 0x2c -> Load (I32, Some (P8, SX), memarg r)
  | 0x2d -> Load (I32, Some (P8, ZX), memarg r)
  | 0x2e -> Load (I32, Some (P16, SX), memarg r)
  | 0x2f -> Load (I32, Some (P16, ZX), memarg r)
  | 0x30 -> Load (I64, Some (P8, SX), memarg r)
  | 0x31 -> Load (I64, Some (P8, ZX), memarg r)
  | 0x32 -> Load (I64, Some (P16, SX), memarg r)
  | 0x33 -> Load (I64, Some (P16, ZX), memarg r)
  | 0x34 -> Load (I64, Some (P32, SX), memarg r)
  | 0x35 -> Load (I64, Some (P32, ZX), memarg r)
  | 0x36 -> Store (I32, None, memarg r)
  | 0x37 -> Store (I64, None, memarg r)
  | 0x38 -> Store (F32, None, memarg r)
  | 0x39 -> Store (F64, None, memarg r)
  | 0x3a -> Store (I32, Some P8, memarg r)
  | 0x3b -> Store (I32, Some P16, memarg r)
  | 0x3c -> Store (I64, Some P8, memarg r)
  | 0x3d -> Store (I64, Some P16, memarg r)
  | 0x3e -> Store (I64, Some P32, memarg r)
  | 0x3f ->
    (match R.u8 r with 0x00 -> MemorySize | b -> fail "memory.size: bad byte 0x%02x" b)
  | 0x40 ->
    (match R.u8 r with 0x00 -> MemoryGrow | b -> fail "memory.grow: bad byte 0x%02x" b)
  | 0x41 -> Const (VI32 (Int32.of_int (R.sleb_int r ~max_bits:32)))
  | 0x42 -> Const (VI64 (R.sleb r ~max_bits:64))
  | 0x43 -> Const (VF32 (Int32.float_of_bits (R.u32 r)))
  | 0x44 -> Const (VF64 (Int64.float_of_bits (R.u64 r)))
  | 0x45 -> ITestop I32
  | 0x50 -> ITestop I64
  | op when op >= 0x46 && op <= 0x4f -> IRelop (I32, irelop (op - 0x46))
  | op when op >= 0x51 && op <= 0x5a -> IRelop (I64, irelop (op - 0x51))
  | op when op >= 0x5b && op <= 0x60 -> FRelop (F32, frelop (op - 0x5b))
  | op when op >= 0x61 && op <= 0x66 -> FRelop (F64, frelop (op - 0x61))
  | op when op >= 0x67 && op <= 0x69 -> IUnop (I32, iunop (op - 0x67))
  | op when op >= 0x6a && op <= 0x78 -> IBinop (I32, ibinop (op - 0x6a))
  | op when op >= 0x79 && op <= 0x7b -> IUnop (I64, iunop (op - 0x79))
  | op when op >= 0x7c && op <= 0x8a -> IBinop (I64, ibinop (op - 0x7c))
  | op when op >= 0x8b && op <= 0x91 -> FUnop (F32, funop (op - 0x8b))
  | op when op >= 0x92 && op <= 0x98 -> FBinop (F32, fbinop (op - 0x92))
  | op when op >= 0x99 && op <= 0x9f -> FUnop (F64, funop (op - 0x99))
  | op when op >= 0xa0 && op <= 0xa6 -> FBinop (F64, fbinop (op - 0xa0))
  | op when op >= 0xa7 && op <= 0xbf -> Cvtop (cvtop op)
  | op -> fail "unknown opcode 0x%02x" op

and irelop = function
  | 0 -> Eq | 1 -> Ne | 2 -> LtS | 3 -> LtU | 4 -> GtS
  | 5 -> GtU | 6 -> LeS | 7 -> LeU | 8 -> GeS | 9 -> GeU
  | _ -> assert false

and frelop = function
  | 0 -> Feq | 1 -> Fne | 2 -> Flt | 3 -> Fgt | 4 -> Fle | 5 -> Fge | _ -> assert false

and iunop = function 0 -> Clz | 1 -> Ctz | 2 -> Popcnt | _ -> assert false

and ibinop = function
  | 0 -> Add | 1 -> Sub | 2 -> Mul | 3 -> DivS | 4 -> DivU | 5 -> RemS | 6 -> RemU
  | 7 -> And | 8 -> Or | 9 -> Xor | 10 -> Shl | 11 -> ShrS | 12 -> ShrU
  | 13 -> Rotl | 14 -> Rotr
  | _ -> assert false

and funop = function
  | 0 -> Abs | 1 -> Neg | 2 -> Ceil | 3 -> Floor | 4 -> Trunc | 5 -> Nearest | 6 -> Sqrt
  | _ -> assert false

and fbinop = function
  | 0 -> Fadd | 1 -> Fsub | 2 -> Fmul | 3 -> Fdiv | 4 -> Fmin | 5 -> Fmax | 6 -> Copysign
  | _ -> assert false

and cvtop op =
  match op with
  | 0xa7 -> I32WrapI64
  | 0xa8 -> I32TruncF32S
  | 0xa9 -> I32TruncF32U
  | 0xaa -> I32TruncF64S
  | 0xab -> I32TruncF64U
  | 0xac -> I64ExtendI32S
  | 0xad -> I64ExtendI32U
  | 0xae -> I64TruncF32S
  | 0xaf -> I64TruncF32U
  | 0xb0 -> I64TruncF64S
  | 0xb1 -> I64TruncF64U
  | 0xb2 -> F32ConvertI32S
  | 0xb3 -> F32ConvertI32U
  | 0xb4 -> F32ConvertI64S
  | 0xb5 -> F32ConvertI64U
  | 0xb6 -> F32DemoteF64
  | 0xb7 -> F64ConvertI32S
  | 0xb8 -> F64ConvertI32U
  | 0xb9 -> F64ConvertI64S
  | 0xba -> F64ConvertI64U
  | 0xbb -> F64PromoteF32
  | 0xbc -> I32ReinterpretF32
  | 0xbd -> I64ReinterpretF64
  | 0xbe -> F32ReinterpretI32
  | 0xbf -> F64ReinterpretI64
  | _ -> assert false

let expr r =
  let body, term = instr_seq 0 r in
  if term <> `End then fail "expression: unexpected else";
  body

let importdesc r =
  match R.u8 r with
  | 0x00 -> ImportFunc (u32_as_int r)
  | 0x01 ->
    (match R.u8 r with
    | 0x70 -> ImportTable (limits r)
    | b -> fail "import table: bad elemtype 0x%02x" b)
  | 0x02 -> ImportMemory (limits r)
  | 0x03 -> ImportGlobal (globaltype r)
  | b -> fail "invalid import kind 0x%02x" b

let exportdesc r =
  match R.u8 r with
  | 0x00 -> ExportFunc (u32_as_int r)
  | 0x01 -> ExportTable (u32_as_int r)
  | 0x02 -> ExportMemory (u32_as_int r)
  | 0x03 -> ExportGlobal (u32_as_int r)
  | b -> fail "invalid export kind 0x%02x" b

let code_entry r =
  let body_reader = R.sub r (u32_as_int r) in
  let groups =
    vec body_reader (fun r ->
        let count = u32_as_int r in
        let t = valtype r in
        (count, t))
  in
  let total = List.fold_left (fun acc (c, _) -> acc + c) 0 groups in
  if total > 100_000 then fail "too many locals (%d)" total;
  let locals = List.concat_map (fun (count, t) -> List.init count (fun _ -> t)) groups in
  let body = expr body_reader in
  if not (R.eof body_reader) then fail "code entry: trailing bytes";
  (locals, body)

let decode_inner bytes =
  let r = R.of_string bytes in
  let magic = try R.bytes r 4 with R.Truncated -> fail "truncated magic" in
  if not (String.equal magic "\x00asm") then fail "bad magic";
  let version = try R.u32 r with R.Truncated -> fail "truncated version" in
  if not (Int32.equal version 1l) then fail "unsupported version %ld" version;
  let m = ref empty_module in
  let func_type_indices = ref [] in
  let code_entries = ref [] in
  let last_section = ref 0 in
  (try
     while not (R.eof r) do
       let id = R.u8 r in
       let payload = R.sub r (u32_as_int r) in
       if id <> 0 then begin
         if id <= !last_section then fail "section 0x%02x out of order" id;
         last_section := id
       end;
       (match id with
       | 0 ->
         let cname = name payload in
         let rest = R.bytes payload (R.remaining payload) in
         m := { !m with customs = !m.customs @ [ (cname, rest) ] }
       | 1 -> m := { !m with types = vec payload functype }
       | 2 ->
         m :=
           { !m with
             imports =
               vec payload (fun r ->
                   let imp_module = name r in
                   let imp_name = name r in
                   let idesc = importdesc r in
                   { imp_module; imp_name; idesc })
           }
       | 3 -> func_type_indices := vec payload u32_as_int
       | 4 ->
         m :=
           { !m with
             tables =
               vec payload (fun r ->
                   match R.u8 r with
                   | 0x70 -> limits r
                   | b -> fail "table: bad elemtype 0x%02x" b)
           }
       | 5 -> m := { !m with memories = vec payload limits }
       | 6 ->
         m :=
           { !m with
             globals =
               vec payload (fun r ->
                   let gtype = globaltype r in
                   let ginit = expr r in
                   { gtype; ginit })
           }
       | 7 ->
         m :=
           { !m with
             exports =
               vec payload (fun r ->
                   let exp_name = name r in
                   let edesc = exportdesc r in
                   { exp_name; edesc })
           }
       | 8 -> m := { !m with start = Some (u32_as_int payload) }
       | 9 ->
         m :=
           { !m with
             elems =
               vec payload (fun r ->
                   let etable = u32_as_int r in
                   let eoffset = expr r in
                   let einit = vec r u32_as_int in
                   { etable; eoffset; einit })
           }
       | 10 -> code_entries := vec payload code_entry
       | 11 ->
         m :=
           { !m with
             datas =
               vec payload (fun r ->
                   let dmem = u32_as_int r in
                   let doffset = expr r in
                   let n = u32_as_int r in
                   let dinit = R.bytes r n in
                   { dmem; doffset; dinit })
           }
       | id -> fail "unknown section id 0x%02x" id);
       if id <> 0 && not (R.eof payload) then fail "section 0x%02x: trailing bytes" id
     done
   with R.Truncated -> fail "unexpected end of input");
  if List.length !func_type_indices <> List.length !code_entries then
    fail "function and code section lengths disagree (%d vs %d)"
      (List.length !func_type_indices)
      (List.length !code_entries);
  let funcs =
    List.map2 (fun ftype (locals, body) -> { ftype; locals; body }) !func_type_indices
      !code_entries
  in
  { !m with funcs }

(* The decoder's error contract: any byte string maps to a module or a
   [Malformed] — never [Invalid_argument], [Truncated] or a stack
   overflow. The fuzz harness's byte mutator asserts exactly this. *)
let decode bytes =
  try decode_inner bytes with
  | R.Truncated -> fail "unexpected end of input"
  | R.Overflow -> fail "malformed LEB128 integer"
