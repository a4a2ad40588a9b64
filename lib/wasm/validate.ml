(** WebAssembly module validation (spec §3), implementing the standard
    operand-stack / control-stack type-checking algorithm from the spec
    appendix.

    WaTZ refuses to instantiate unvalidated bytecode: the sandbox
    guarantees of the paper's §III rest on every loaded module being
    well-typed. *)

open Types
open Ast

exception Invalid of string

let fail fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

(* Operand types: a concrete valtype, or Unknown below an unconditional
   branch (polymorphic stack). *)
type opd = Known of valtype | Unknown

type ctrl = {
  label_types : valtype list; (* types expected by branches to this label *)
  end_types : valtype list; (* types left on exit *)
  height : int;
  mutable unreachable : bool;
  is_then : bool; (* an if's then-arm: reaching its end means no else arm *)
}

(* Every [Known] pushed is one of these four values, so a push
   allocates nothing. *)
let known = function
  | I32 -> Known I32
  | I64 -> Known I64
  | F32 -> Known F32
  | F64 -> Known F64

(* What every body check reads of the module, built by [header]. *)
type env = {
  types : functype array; (* the type section, by type index *)
  func_types : functype array; (* by function index, imports first *)
  global_types : globaltype array;
  imported_globals : globaltype array;
  table_count : int;
  memory_count : int;
  n_imported : int; (* imported functions *)
}

(* One function's checker state. The operand stack is an array whose
   live part is [0, height), so pushes, pops and height checks take
   constant time at any depth. *)
type context = {
  env : env;
  findex : int; (* in the function index space *)
  locals : valtype array; (* parameters first *)
  return_types : valtype list;
  mutable opds : opd array;
  mutable height : int;
  mutable ctrls : ctrl list;
}

let push_opd ctx t =
  if ctx.height = Array.length ctx.opds then begin
    let bigger = Array.make (2 * ctx.height) Unknown in
    Array.blit ctx.opds 0 bigger 0 ctx.height;
    ctx.opds <- bigger
  end;
  ctx.opds.(ctx.height) <- t;
  ctx.height <- ctx.height + 1

let pop_opd ctx =
  match ctx.ctrls with
  | [] -> fail "control stack underflow"
  | frame :: _ ->
    if ctx.height = frame.height then
      if frame.unreachable then Unknown else fail "operand stack underflow"
    else begin
      ctx.height <- ctx.height - 1;
      ctx.opds.(ctx.height)
    end

let pop_expect ctx expect =
  match pop_opd ctx with
  | Unknown -> ()
  | Known t -> if not (valtype_equal t expect) then
      fail "type mismatch: expected %s, got %s" (string_of_valtype expect) (string_of_valtype t)

(* Pop [types], last first. These helpers and [label_arity] are
   top-level recursions, so that checking a leaf allocates nothing. *)
let rec pop_expects ctx = function
  | [] -> ()
  | t :: rest ->
    pop_expects ctx rest;
    pop_expect ctx t

let rec push_knowns ctx = function
  | [] -> ()
  | t :: rest ->
    push_opd ctx (known t);
    push_knowns ctx rest

let push_ctrl ?(is_then = false) ctx label_types end_types =
  ctx.ctrls <-
    { label_types; end_types; height = ctx.height; unreachable = false; is_then }
    :: ctx.ctrls

let pop_ctrl ctx =
  match ctx.ctrls with
  | [] -> fail "control stack underflow"
  | frame :: rest ->
    pop_expects ctx frame.end_types;
    if ctx.height <> frame.height then fail "values remain on stack at end of block";
    ctx.ctrls <- rest;
    frame

let set_unreachable ctx =
  match ctx.ctrls with
  | [] -> fail "control stack underflow"
  | frame :: _ ->
    (* Discard operands pushed inside this frame. *)
    ctx.height <- frame.height;
    frame.unreachable <- true

let rec label_types ctrls k n =
  match ctrls with
  | [] -> fail "branch depth %d out of range" n
  | frame :: rest -> if k = 0 then frame.label_types else label_types rest (k - 1) n

let label_arity ctx n = label_types ctx.ctrls n n

let blocktype_types = function BlockEmpty -> [] | BlockVal t -> [ t ]

(* The decoder reads both memarg fields as u32s; only a built AST can
   carry one outside [0, 2^32). Rejecting it keeps every address a u32
   plus a u32 offset, which is what lets the fast tier's accessors
   check only an address's upper end. *)
let check_memarg ctx ~align ~offset ~width =
  if ctx.env.memory_count = 0 then fail "memory instruction with no memory";
  if offset < 0 || offset > 0xffff_ffff then fail "memory offset %d out of range" offset;
  if align < 0 then fail "alignment %d out of range" align;
  let natural = match width with 1 -> 0 | 2 -> 1 | 4 -> 2 | 8 -> 3 | _ -> assert false in
  if align > natural then fail "alignment %d larger than natural %d" align natural

let width_of_valtype = function I32 | F32 -> 4 | I64 | F64 -> 8
let width_of_pack = function P8 -> 1 | P16 -> 2 | P32 -> 4

(* The per-event steps, one per {!Ast.sink} field. [leaf] takes every
   leaf without an event of its own. *)
let rec leaf ctx (i : instr) =
  match i with
  | Unreachable -> set_unreachable ctx
  | Nop -> ()
  | BrTable (targets, default) ->
    pop_expect ctx I32;
    let ts = label_arity ctx default in
    Array.iter
      (fun n ->
        let ts' = label_arity ctx n in
        if List.length ts <> List.length ts' || not (List.for_all2 valtype_equal ts ts') then
          fail "br_table targets have inconsistent types")
      targets;
    pop_expects ctx ts;
    set_unreachable ctx
  | Return ->
    pop_expects ctx ctx.return_types;
    set_unreachable ctx
  | Drop -> ignore (pop_opd ctx)
  | Select ->
    pop_expect ctx I32;
    let t1 = pop_opd ctx in
    let t2 = pop_opd ctx in
    (match (t1, t2) with
    | Known a, Known b when not (valtype_equal a b) -> fail "select operands differ"
    | Known _, _ -> push_opd ctx t1
    | Unknown, other -> push_opd ctx other)
  | MemorySize ->
    if ctx.env.memory_count = 0 then fail "memory.size with no memory";
    push_opd ctx (known I32)
  | MemoryGrow ->
    if ctx.env.memory_count = 0 then fail "memory.grow with no memory";
    pop_expect ctx I32;
    push_opd ctx (known I32)
  | Const ((VI64 _ | VF32 _ | VF64 _) as v) -> push_opd ctx (known (type_of_value v))
  | ITestop ty ->
    pop_expect ctx ty;
    push_opd ctx (known I32)
  | IUnop (ty, _) | FUnop (ty, _) ->
    pop_expect ctx ty;
    push_opd ctx (known ty)
  | IBinop (ty, _) | FBinop (ty, _) ->
    pop_expect ctx ty;
    pop_expect ctx ty;
    push_opd ctx (known ty)
  | IRelop (ty, _) | FRelop (ty, _) ->
    pop_expect ctx ty;
    pop_expect ctx ty;
    push_opd ctx (known I32)
  | Cvtop op ->
    let src, dst = cvt_types op in
    pop_expect ctx src;
    push_opd ctx (known dst)
  | Block _ | Loop _ | If _ | Br _ | BrIf _ | Call _ | CallIndirect _ | LocalGet _ | LocalSet _
  | LocalTee _ | GlobalGet _ | GlobalSet _ | Load _ | Store _ | Const (VI32 _) ->
    invalid_arg "Validate.leaf: structured, or a leaf with its own event"

and cvt_types = function
  | I32WrapI64 -> (I64, I32)
  | I32TruncF32S | I32TruncF32U -> (F32, I32)
  | I32TruncF64S | I32TruncF64U -> (F64, I32)
  | I64ExtendI32S | I64ExtendI32U -> (I32, I64)
  | I64TruncF32S | I64TruncF32U -> (F32, I64)
  | I64TruncF64S | I64TruncF64U -> (F64, I64)
  | F32ConvertI32S | F32ConvertI32U -> (I32, F32)
  | F32ConvertI64S | F32ConvertI64U -> (I64, F32)
  | F32DemoteF64 -> (F64, F32)
  | F64ConvertI32S | F64ConvertI32U -> (I32, F64)
  | F64ConvertI64S | F64ConvertI64U -> (I64, F64)
  | F64PromoteF32 -> (F32, F64)
  | I32ReinterpretF32 -> (F32, I32)
  | I64ReinterpretF64 -> (F64, I64)
  | F32ReinterpretI32 -> (I32, F32)
  | F64ReinterpretI64 -> (I64, F64)

let local ctx x =
  if x >= Array.length ctx.locals then fail "local %d out of range" x;
  ctx.locals.(x)

let global ctx x =
  if x >= Array.length ctx.env.global_types then fail "global %d out of range" x;
  ctx.env.global_types.(x)

let index ctx (op : index_op) x =
  match op with
  | Local_get -> push_opd ctx (known (local ctx x))
  | Local_set -> pop_expect ctx (local ctx x)
  | Local_tee ->
    let t = local ctx x in
    pop_expect ctx t;
    push_opd ctx (known t)
  | Global_get -> push_opd ctx (known (global ctx x).content)
  | Global_set ->
    let g = global ctx x in
    if g.mut = Immutable then fail "global %d is immutable" x;
    pop_expect ctx g.content
  | Br_label ->
    pop_expects ctx (label_arity ctx x);
    set_unreachable ctx
  | Br_if_label ->
    pop_expect ctx I32;
    let ts = label_arity ctx x in
    pop_expects ctx ts;
    push_knowns ctx ts
  | Call_func ->
    if x >= Array.length ctx.env.func_types then fail "call: function %d out of range" x;
    let ft = ctx.env.func_types.(x) in
    pop_expects ctx ft.params;
    push_knowns ctx ft.results
  | Call_indirect_type ->
    if ctx.env.table_count = 0 then fail "call_indirect with no table";
    if x < 0 || x >= Array.length ctx.env.types then fail "call_indirect: type %d out of range" x;
    let ft = ctx.env.types.(x) in
    pop_expect ctx I32;
    pop_expects ctx ft.params;
    push_knowns ctx ft.results

let i32_const ctx (_ : int) = push_opd ctx (known I32)

let load ctx ty (pack : (pack * extension) option) align offset =
  let width = match pack with None -> width_of_valtype ty | Some (p, _) -> width_of_pack p in
  check_memarg ctx ~align ~offset ~width;
  pop_expect ctx I32;
  push_opd ctx (known ty)

let store ctx ty (pack : pack option) align offset =
  let width = match pack with None -> width_of_valtype ty | Some p -> width_of_pack p in
  check_memarg ctx ~align ~offset ~width;
  pop_expect ctx ty;
  pop_expect ctx I32

let block ctx bt =
  let ts = blocktype_types bt in
  push_ctrl ctx ts ts

(* Branches to a loop target its beginning: label types are the (empty,
   in the MVP) parameter types. *)
let loop ctx bt = push_ctrl ctx [] (blocktype_types bt)

let if_ ctx bt =
  pop_expect ctx I32;
  let ts = blocktype_types bt in
  push_ctrl ~is_then:true ctx ts ts

(* The then-arm never pops below its entry height, where its frame
   leaves the stack, so the else-arm starts from the if's own stack. *)
let else_ ctx =
  let frame = pop_ctrl ctx in
  push_ctrl ctx frame.label_types frame.end_types

let end_ ctx =
  let frame = pop_ctrl ctx in
  if frame.is_then && frame.end_types <> [] then fail "if with result type requires else";
  push_knowns ctx frame.end_types

let sink = { leaf; index; i32_const; load; store; block; loop; if_; else_; end_ }

let check_functype ft =
  if List.length ft.results > 1 then fail "multi-value results not supported in the MVP"

(* Constant expressions initialise globals and segment offsets. *)
let check_const_expr (imported : globaltype array) expected body =
  let t =
    match body with
    | [ Const v ] -> type_of_value v
    | [ GlobalGet i ] ->
      if i >= Array.length imported then fail "const expr: global %d not an import" i;
      if imported.(i).mut = Mutable then fail "const expr: global %d is mutable" i;
      imported.(i).content
    | _ -> fail "unsupported constant expression"
  in
  if not (valtype_equal t expected) then
    fail "constant expression has type %s, expected %s" (string_of_valtype t)
      (string_of_valtype expected)

let check_limits (l : limits) ~bound ~what =
  if l.min > bound then fail "%s minimum %d exceeds bound %d" what l.min bound;
  match l.max with
  | None -> ()
  | Some m ->
    if m < l.min then fail "%s maximum %d below minimum %d" what m l.min;
    if m > bound then fail "%s maximum %d exceeds bound %d" what m bound

(** The checks that need only the sections before the code section:
    types, the function types ([ftypes], the function section's type
    indices), table and memory counts, limits and global initialisers.
    Run before any body is checked. *)
let header (m : module_) (ftypes : int list) =
  List.iter check_functype m.types;
  let types = Array.of_list m.types in
  let type_of idx =
    if idx < 0 || idx >= Array.length types then fail "type index %d out of range" idx;
    types.(idx)
  in
  let func_types = Array.of_list (List.map type_of (imported_funcs m @ ftypes)) in
  let imported_globals = Array.of_list (imported_globals m) in
  let global_types =
    Array.append imported_globals (Array.of_list (List.map (fun g -> g.gtype) m.globals))
  in
  let table_count = List.length (imported_tables m) + List.length m.tables in
  let memory_count = List.length (imported_memories m) + List.length m.memories in
  if table_count > 1 then fail "at most one table in the MVP";
  if memory_count > 1 then fail "at most one memory in the MVP";
  List.iter (fun l -> check_limits l ~bound:max_pages ~what:"memory") m.memories;
  List.iter (fun l -> check_limits l ~bound:0xffff_ffff ~what:"table") m.tables;
  (* Globals: initialisers may only refer to imported globals. *)
  List.iter (fun g -> check_const_expr imported_globals g.gtype.content g.ginit) m.globals;
  {
    types;
    func_types;
    global_types;
    imported_globals;
    table_count;
    memory_count;
    n_imported = List.length (imported_funcs m);
  }

(** The checker for own function [i], whose declared locals are
    [locals]. Feed it the body's events through {!sink}. *)
let checker env i (locals : valtype list) =
  let findex = env.n_imported + i in
  let ft = env.func_types.(findex) in
  let ctx =
    {
      env;
      findex;
      locals = Array.of_list (ft.params @ locals);
      return_types = ft.results;
      opds = Array.make 16 Unknown;
      height = 0;
      ctrls = [];
    }
  in
  push_ctrl ctx ft.results ft.results;
  ctx

(** The error a failed step of [ctx]'s function raises. *)
let in_function ctx msg = Invalid (Printf.sprintf "function %d: %s" ctx.findex msg)

(** The checks that read sections the bodies do not need: the start
    function, exports, element and data segments. Run after every body
    has been checked. *)
let trailer env (m : module_) =
  let func_types = env.func_types in
  (* Start function must be [] -> []. *)
  (match m.start with
  | None -> ()
  | Some f ->
    if f >= Array.length func_types then fail "start function %d out of range" f;
    let ft = func_types.(f) in
    if ft.params <> [] || ft.results <> [] then fail "start function must have type [] -> []");
  (* Exports: indices in range, names unique. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if Hashtbl.mem seen e.exp_name then fail "duplicate export %S" e.exp_name;
      Hashtbl.add seen e.exp_name ();
      match e.edesc with
      | ExportFunc i -> if i >= Array.length func_types then fail "export func %d out of range" i
      | ExportGlobal i ->
        if i >= Array.length env.global_types then fail "export global %d out of range" i
      | ExportTable i -> if i >= env.table_count then fail "export table %d out of range" i
      | ExportMemory i -> if i >= env.memory_count then fail "export memory %d out of range" i)
    m.exports;
  (* Element and data segments. *)
  List.iter
    (fun e ->
      if e.etable >= env.table_count then fail "element segment: table %d out of range" e.etable;
      check_const_expr env.imported_globals I32 e.eoffset;
      List.iter
        (fun f -> if f >= Array.length func_types then fail "element: func %d out of range" f)
        e.einit)
    m.elems;
  List.iter
    (fun d ->
      if d.dmem >= env.memory_count then fail "data segment: memory %d out of range" d.dmem;
      check_const_expr env.imported_globals I32 d.doffset)
    m.datas

let validate (m : module_) =
  let env = header m (List.map (fun f -> f.ftype) m.funcs) in
  List.iteri
    (fun i (f : func) ->
      let ctx = checker env i f.locals in
      try replay_body sink ctx f.body with Invalid msg -> raise (in_function ctx msg))
    m.funcs;
  trailer env m
