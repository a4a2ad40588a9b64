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

let vec_length r =
  let n = u32_as_int r in
  if n > 1_000_000 then fail "vector too long (%d)" n;
  n

let vec r f = List.init (vec_length r) (fun _ -> f r)

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

let blocktype r =
  (* Peek: 0x40 is empty, a valtype byte is a single result. *)
  match R.u8 r with
  | 0x40 -> BlockEmpty
  | 0x7f -> BlockVal I32
  | 0x7e -> BlockVal I64
  | 0x7d -> BlockVal F32
  | 0x7c -> BlockVal F64
  | b -> fail "unsupported block type 0x%02x" b

let irelop = function
  | 0 -> Eq | 1 -> Ne | 2 -> LtS | 3 -> LtU | 4 -> GtS
  | 5 -> GtU | 6 -> LeS | 7 -> LeU | 8 -> GeS | 9 -> GeU
  | _ -> assert false

let frelop = function
  | 0 -> Feq | 1 -> Fne | 2 -> Flt | 3 -> Fgt | 4 -> Fle | 5 -> Fge | _ -> assert false

let iunop = function 0 -> Clz | 1 -> Ctz | 2 -> Popcnt | _ -> assert false

let ibinop = function
  | 0 -> Add | 1 -> Sub | 2 -> Mul | 3 -> DivS | 4 -> DivU | 5 -> RemS | 6 -> RemU
  | 7 -> And | 8 -> Or | 9 -> Xor | 10 -> Shl | 11 -> ShrS | 12 -> ShrU
  | 13 -> Rotl | 14 -> Rotr
  | _ -> assert false

let funop = function
  | 0 -> Abs | 1 -> Neg | 2 -> Ceil | 3 -> Floor | 4 -> Trunc | 5 -> Nearest | 6 -> Sqrt
  | _ -> assert false

let fbinop = function
  | 0 -> Fadd | 1 -> Fsub | 2 -> Fmul | 3 -> Fdiv | 4 -> Fmin | 5 -> Fmax | 6 -> Copysign
  | _ -> assert false

let cvtop op =
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

(* The numeric opcodes 0x45..0xbf carry no immediates. Each maps to one
   value built here once, so decoding them allocates nothing. *)
let first_numeric = 0x45
let last_numeric = 0xbf

let numeric = function
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
  | op -> Cvtop (cvtop op)

let numerics = Array.init (last_numeric - first_numeric + 1) (fun k -> numeric (first_numeric + k))

(* Structured instructions nest recursively; bound the depth so a
   mutated module full of 0x02 bytes exhausts neither this reader's
   stack nor the AST walkers' (the interpreter and the replayer recurse
   over the tree). 256 is far beyond anything a real toolchain emits. *)
let max_nesting = 256

(* The instruction reader, shared by [decode] and the fast tier's
   one-pass loader. It reads a sequence up to the [end] or [else] that
   closes it and sends each instruction to [sink] as soon as it is read
   (the events of {!Ast.sink}). With [build] set it also returns the
   sequence, built in order with one cons per instruction; without, it
   returns [] and conses nothing. The nesting bound and the placement of
   [else] are checked here and only here. The sequence's terminator is
   left in [ended_by_else]: [false] for 0x0b end, [true] for 0x05 else.
   One flag serves every nesting level, because a caller reads it as
   soon as the sequence it asked for returns. *)
type 'a reader = {
  r : R.t;
  build : bool;
  sink : 'a sink;
  st : 'a;
  mutable ended_by_else : bool;
}

(* The leaves. Each opcode's immediates are read here, in one place,
   and sent to the sink's event for that leaf; a leaf with an int
   immediate is built as an [instr] only with [build] set (else [Nop]
   stands for it), so that reading and sending it allocates nothing. *)
let plain rd i =
  rd.sink.leaf rd.st i;
  i

let index rd op mk =
  let n = u32_as_int rd.r in
  rd.sink.index rd.st op n;
  if rd.build then mk n else Nop

let load rd ty pack =
  let align = u32_as_int rd.r in
  let offset = u32_as_int rd.r in
  rd.sink.load rd.st ty pack align offset;
  if rd.build then Load (ty, pack, { align; offset }) else Nop

let store rd ty pack =
  let align = u32_as_int rd.r in
  let offset = u32_as_int rd.r in
  rd.sink.store rd.st ty pack align offset;
  if rd.build then Store (ty, pack, { align; offset }) else Nop

let leaf rd op =
  let r = rd.r in
  match op with
  | 0x00 -> plain rd Unreachable
  | 0x01 -> plain rd Nop
  | 0x0c -> index rd Br_label (fun l -> Br l)
  | 0x0d -> index rd Br_if_label (fun l -> BrIf l)
  | 0x0e ->
    let targets = Array.of_list (vec r u32_as_int) in
    let default = u32_as_int r in
    plain rd (BrTable (targets, default))
  | 0x0f -> plain rd Return
  | 0x10 -> index rd Call_func (fun f -> Call f)
  | 0x11 ->
    let ty = u32_as_int r in
    (match R.u8 r with
    | 0x00 -> ()
    | b -> fail "call_indirect: bad table byte 0x%02x" b);
    rd.sink.index rd.st Call_indirect_type ty;
    if rd.build then CallIndirect ty else Nop
  | 0x1a -> plain rd Drop
  | 0x1b -> plain rd Select
  | 0x20 -> index rd Local_get (fun x -> LocalGet x)
  | 0x21 -> index rd Local_set (fun x -> LocalSet x)
  | 0x22 -> index rd Local_tee (fun x -> LocalTee x)
  | 0x23 -> index rd Global_get (fun x -> GlobalGet x)
  | 0x24 -> index rd Global_set (fun x -> GlobalSet x)
  | 0x28 -> load rd I32 None
  | 0x29 -> load rd I64 None
  | 0x2a -> load rd F32 None
  | 0x2b -> load rd F64 None
  | 0x2c -> load rd I32 (Some (P8, SX))
  | 0x2d -> load rd I32 (Some (P8, ZX))
  | 0x2e -> load rd I32 (Some (P16, SX))
  | 0x2f -> load rd I32 (Some (P16, ZX))
  | 0x30 -> load rd I64 (Some (P8, SX))
  | 0x31 -> load rd I64 (Some (P8, ZX))
  | 0x32 -> load rd I64 (Some (P16, SX))
  | 0x33 -> load rd I64 (Some (P16, ZX))
  | 0x34 -> load rd I64 (Some (P32, SX))
  | 0x35 -> load rd I64 (Some (P32, ZX))
  | 0x36 -> store rd I32 None
  | 0x37 -> store rd I64 None
  | 0x38 -> store rd F32 None
  | 0x39 -> store rd F64 None
  | 0x3a -> store rd I32 (Some P8)
  | 0x3b -> store rd I32 (Some P16)
  | 0x3c -> store rd I64 (Some P8)
  | 0x3d -> store rd I64 (Some P16)
  | 0x3e -> store rd I64 (Some P32)
  | 0x3f ->
    (match R.u8 r with 0x00 -> plain rd MemorySize | b -> fail "memory.size: bad byte 0x%02x" b)
  | 0x40 ->
    (match R.u8 r with 0x00 -> plain rd MemoryGrow | b -> fail "memory.grow: bad byte 0x%02x" b)
  | 0x41 ->
    let c = R.sleb_int r ~max_bits:32 in
    rd.sink.i32_const rd.st c;
    if rd.build then Const (VI32 (Int32.of_int c)) else Nop
  | 0x42 -> plain rd (Const (VI64 (R.sleb r ~max_bits:64)))
  | 0x43 -> plain rd (Const (VF32 (Int32.float_of_bits (R.u32 r))))
  | 0x44 -> plain rd (Const (VF64 (Int64.float_of_bits (R.u64 r))))
  | op when op >= first_numeric && op <= last_numeric -> plain rd numerics.(op - first_numeric)
  | op -> fail "unknown opcode 0x%02x" op

(* [op] is the sequence's first byte, already read. *)
let[@tail_mod_cons] rec seq rd depth op =
  match op with
  | 0x0b ->
    rd.ended_by_else <- false;
    []
  | 0x05 ->
    rd.ended_by_else <- true;
    []
  | op ->
    let i = instr rd depth op in
    if rd.build then i :: seq rd depth (R.u8 rd.r) else seq rd depth (R.u8 rd.r)

and nested rd depth =
  let depth = depth + 1 in
  if depth > max_nesting then fail "block nesting deeper than %d" max_nesting;
  seq rd depth (R.u8 rd.r)

and instr rd depth op =
  match op with
  | 0x02 ->
    let bt = blocktype rd.r in
    rd.sink.block rd.st bt;
    let body = nested rd depth in
    if rd.ended_by_else then fail "block: unexpected else";
    rd.sink.end_ rd.st;
    if rd.build then Block (bt, body) else Nop
  | 0x03 ->
    let bt = blocktype rd.r in
    rd.sink.loop rd.st bt;
    let body = nested rd depth in
    if rd.ended_by_else then fail "loop: unexpected else";
    rd.sink.end_ rd.st;
    if rd.build then Loop (bt, body) else Nop
  | 0x04 ->
    let bt = blocktype rd.r in
    rd.sink.if_ rd.st bt;
    let then_ = nested rd depth in
    let else_ =
      if not rd.ended_by_else then []
      else
        (* An empty else arm is sent, and built, as no else arm. *)
        match R.u8 rd.r with
        | 0x0b -> []
        | op ->
          rd.sink.else_ rd.st;
          let e = seq rd (depth + 1) op in
          if rd.ended_by_else then fail "if: nested else";
          e
    in
    rd.sink.end_ rd.st;
    if rd.build then If (bt, then_, else_) else Nop
  | op -> leaf rd op

(** Read an expression (a function body, or a constant initialiser)
    up to its closing [end], sending its events, that [end] included,
    to [sink]. Returns the body when [build] is set, else []. *)
let body ~build sink st r =
  let rd = { r; build; sink; st; ended_by_else = false } in
  let b = seq rd 0 (R.u8 r) in
  if rd.ended_by_else then fail "expression: unexpected else";
  sink.end_ st;
  b

let expr r = body ~build:true no_events () r

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

(* One code-section entry: [read_body x locals r] reads the body from
   [r], given the entry's declared locals. *)
let code_entry r read_body x =
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
  let b = read_body x locals body_reader in
  if not (R.eof body_reader) then fail "code entry: trailing bytes";
  b

let sections_inner ~code bytes =
  let r = R.of_string bytes in
  let magic = try R.bytes r 4 with R.Truncated -> fail "truncated magic" in
  if not (String.equal magic "\x00asm") then fail "bad magic";
  let version = try R.u32 r with R.Truncated -> fail "truncated version" in
  if not (Int32.equal version 1l) then fail "unsupported version %ld" version;
  let m = ref empty_module in
  let customs = ref [] (* newest first *) in
  let func_type_indices = ref [] in
  let n_code = ref 0 in
  let funcs = ref [] in
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
         customs := (cname, rest) :: !customs
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
       | 10 ->
         n_code := vec_length payload;
         funcs := code !m !func_type_indices !n_code payload
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
  let n_funcs = List.length !func_type_indices in
  if n_funcs <> !n_code then
    fail "function and code section lengths disagree (%d vs %d)" n_funcs !n_code;
  { !m with funcs = !funcs; customs = List.rev !customs }

(** The section loop, shared by [decode] and the fast tier's one-pass
    loader. [code m ftypes n r] reads the code section's [n] entries
    from [r] and returns the module's functions; [m] holds every
    earlier section and [ftypes] the function section's type indices.
    Raises [Malformed] on any decoding error, including a function and
    a code section that disagree in length, which is checked only once
    every section has been read. The decoder's error contract: any
    byte string maps to a module or a [Malformed] — never
    [Invalid_argument], [Truncated] or a stack overflow. The fuzz
    harness's byte mutator asserts exactly this. *)
let sections ~code bytes =
  try sections_inner ~code bytes with
  | R.Truncated -> fail "unexpected end of input"
  | R.Overflow -> fail "malformed LEB128 integer"

let func_of_entry ftype locals r = { ftype; locals; body = expr r }

(* Pair each body with its type index. Bodies beyond the function
   section's count are read and dropped, building nothing: the length
   check fails once every section has been read. With [ftypes] empty,
   every body is. *)
let[@tail_mod_cons] rec funcs r n k ftypes =
  if k = n then []
  else
    match ftypes with
    | ftype :: rest ->
      let f = code_entry r func_of_entry ftype in
      f :: funcs r n (k + 1) rest
    | [] ->
      code_entry r (fun () _ r -> ignore (body ~build:false no_events () r)) ();
      funcs r n (k + 1) []

let decode bytes = sections bytes ~code:(fun _ ftypes n r -> funcs r n 0 ftypes)

(** [decode], building no function body: raises exactly what [decode]
    raises on [bytes], and otherwise returns. *)
let check bytes = ignore (sections bytes ~code:(fun _ _ n r -> funcs r n 0 []))
