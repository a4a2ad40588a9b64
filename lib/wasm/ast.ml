(** Abstract syntax of WebAssembly modules and instructions (MVP). *)

open Types

type value = VI32 of int32 | VI64 of int64 | VF32 of float | VF64 of float

let type_of_value = function
  | VI32 _ -> I32
  | VI64 _ -> I64
  | VF32 _ -> F32
  | VF64 _ -> F64

let default_value = function
  | I32 -> VI32 0l
  | I64 -> VI64 0L
  | F32 -> VF32 0.0
  | F64 -> VF64 0.0

(** Integer operations, shared by the 32- and 64-bit instruction
    families. *)
type iunop = Clz | Ctz | Popcnt

type ibinop =
  | Add | Sub | Mul | DivS | DivU | RemS | RemU
  | And | Or | Xor | Shl | ShrS | ShrU | Rotl | Rotr

type irelop = Eq | Ne | LtS | LtU | GtS | GtU | LeS | LeU | GeS | GeU

type funop = Abs | Neg | Ceil | Floor | Trunc | Nearest | Sqrt
type fbinop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax | Copysign
type frelop = Feq | Fne | Flt | Fgt | Fle | Fge

(** Conversions, named [<dst>_<op>_<src>] as in the text format. *)
type cvtop =
  | I32WrapI64
  | I32TruncF32S | I32TruncF32U | I32TruncF64S | I32TruncF64U
  | I64ExtendI32S | I64ExtendI32U
  | I64TruncF32S | I64TruncF32U | I64TruncF64S | I64TruncF64U
  | F32ConvertI32S | F32ConvertI32U | F32ConvertI64S | F32ConvertI64U
  | F32DemoteF64
  | F64ConvertI32S | F64ConvertI32U | F64ConvertI64S | F64ConvertI64U
  | F64PromoteF32
  | I32ReinterpretF32 | I64ReinterpretF64 | F32ReinterpretI32 | F64ReinterpretI64

type memarg = { align : int; offset : int }

(** Memory access widths for the sized integer loads/stores. *)
type pack = P8 | P16 | P32

type extension = SX | ZX

type blocktype = BlockEmpty | BlockVal of valtype

type instr =
  | Unreachable
  | Nop
  | Block of blocktype * instr list
  | Loop of blocktype * instr list
  | If of blocktype * instr list * instr list
  | Br of int
  | BrIf of int
  | BrTable of int array * int
  | Return
  | Call of int
  | CallIndirect of int (* type index *)
  | Drop
  | Select
  | LocalGet of int
  | LocalSet of int
  | LocalTee of int
  | GlobalGet of int
  | GlobalSet of int
  | Load of valtype * (pack * extension) option * memarg
  | Store of valtype * pack option * memarg
  | MemorySize
  | MemoryGrow
  | Const of value
  | ITestop of valtype (* eqz; valtype is I32 or I64 *)
  | IUnop of valtype * iunop
  | IBinop of valtype * ibinop
  | IRelop of valtype * irelop
  | FUnop of valtype * funop
  | FBinop of valtype * fbinop
  | FRelop of valtype * frelop
  | Cvtop of cvtop

(** The leaves whose one immediate is an index: of a local, a global,
    a label, a function or a type. *)
type index_op =
  | Local_get | Local_set | Local_tee
  | Global_get | Global_set
  | Br_label | Br_if_label
  | Call_func | Call_indirect_type

(** A function body as the events one pass over it meets, in reading
    order: each leaf instruction (never [Block], [Loop] or [If]), the
    start of each structured instruction with its block type, an [if]'s
    [else] and each [end], the body's own closing [end] last. An [else]
    arm with no instructions sends no [else], as the AST cannot tell it
    from an absent one. The state ['a] is passed to every step, so a
    sink is one static record.

    A leaf with an int immediate has an event of its own, whose
    arguments are ints and constant constructors, so that reading and
    passing it on allocates nothing: [index] for the nine index leaves,
    [i32_const] with the constant as an int in [-2^31, 2^31), and [load]
    and [store] with the memarg's align and offset, in that order. Every
    other leaf goes to [leaf]: none of those carries an immediate except
    [br_table] and the i64, f32 and f64 constants. *)
type 'a sink = {
  leaf : 'a -> instr -> unit;
  index : 'a -> index_op -> int -> unit;
  i32_const : 'a -> int -> unit;
  load : 'a -> valtype -> (pack * extension) option -> int -> int -> unit;
  store : 'a -> valtype -> pack option -> int -> int -> unit;
  block : 'a -> blocktype -> unit;
  loop : 'a -> blocktype -> unit;
  if_ : 'a -> blocktype -> unit;
  else_ : 'a -> unit;
  end_ : 'a -> unit;
}

(** Replay a body's AST as the events the decoder would send for its
    encoding, closing [end] included. *)
let rec replay sink st = function
  | [] -> ()
  | i :: rest ->
    replay_instr sink st i;
    replay sink st rest

and replay_instr sink st = function
  | Block (bt, body) ->
    sink.block st bt;
    replay sink st body;
    sink.end_ st
  | Loop (bt, body) ->
    sink.loop st bt;
    replay sink st body;
    sink.end_ st
  | If (bt, then_, else_) ->
    sink.if_ st bt;
    replay sink st then_;
    (match else_ with
    | [] -> ()
    | _ ->
      sink.else_ st;
      replay sink st else_);
    sink.end_ st
  | LocalGet x -> sink.index st Local_get x
  | LocalSet x -> sink.index st Local_set x
  | LocalTee x -> sink.index st Local_tee x
  | GlobalGet x -> sink.index st Global_get x
  | GlobalSet x -> sink.index st Global_set x
  | Br l -> sink.index st Br_label l
  | BrIf l -> sink.index st Br_if_label l
  | Call f -> sink.index st Call_func f
  | CallIndirect t -> sink.index st Call_indirect_type t
  | Const (VI32 c) -> sink.i32_const st (Int32.to_int c)
  | Load (ty, pack, m) -> sink.load st ty pack m.align m.offset
  | Store (ty, pack, m) -> sink.store st ty pack m.align m.offset
  | i -> sink.leaf st i

let replay_body sink st body =
  replay sink st body;
  sink.end_ st

(** The sink that ignores every event. *)
let no_events =
  {
    leaf = (fun _ _ -> ());
    index = (fun _ _ _ -> ());
    i32_const = (fun _ _ -> ());
    load = (fun _ _ _ _ _ -> ());
    store = (fun _ _ _ _ _ -> ());
    block = (fun _ _ -> ());
    loop = (fun _ _ -> ());
    if_ = (fun _ _ -> ());
    else_ = ignore;
    end_ = ignore;
  }

type func = { ftype : int; locals : valtype list; body : instr list }

type importdesc =
  | ImportFunc of int
  | ImportTable of limits
  | ImportMemory of limits
  | ImportGlobal of globaltype

type import = { imp_module : string; imp_name : string; idesc : importdesc }

type exportdesc = ExportFunc of int | ExportTable of int | ExportMemory of int | ExportGlobal of int

type export = { exp_name : string; edesc : exportdesc }

type global = { gtype : globaltype; ginit : instr list }

type elem = { etable : int; eoffset : instr list; einit : int list }

type data = { dmem : int; doffset : instr list; dinit : string }

type module_ = {
  types : functype list;
  imports : import list;
  funcs : func list;
  tables : limits list;
  memories : limits list;
  globals : global list;
  exports : export list;
  start : int option;
  elems : elem list;
  datas : data list;
  customs : (string * string) list;
}

let empty_module =
  {
    types = [];
    imports = [];
    funcs = [];
    tables = [];
    memories = [];
    globals = [];
    exports = [];
    start = None;
    elems = [];
    datas = [];
    customs = [];
  }

(* Index-space views: imported entities come first in each space. *)

let imported_funcs m =
  List.filter_map (fun i -> match i.idesc with ImportFunc t -> Some t | _ -> None) m.imports

let imported_tables m =
  List.filter_map (fun i -> match i.idesc with ImportTable l -> Some l | _ -> None) m.imports

let imported_memories m =
  List.filter_map (fun i -> match i.idesc with ImportMemory l -> Some l | _ -> None) m.imports

let imported_globals m =
  List.filter_map (fun i -> match i.idesc with ImportGlobal g -> Some g | _ -> None) m.imports

