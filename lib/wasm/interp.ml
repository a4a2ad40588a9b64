(** A direct tree-walking interpreter over the structured AST.

    This is WaTZ's "interpreted" execution mode: no preprocessing of the
    bytecode, list-based operand stack, branch resolution by unwinding —
    simple and slow, exactly the trade-off described in §III
    ("Interpreted is the simplest yet slowest"). The fast tier
    ({!Fastinterp}, which stands in for the paper's AOT) runs the same
    modules roughly an order of magnitude faster; this interpreter is
    the reference oracle the differential fuzzer checks it against.
    Both tiers link through {!Instance.instantiate}; this one supplies
    its function values ({!funcinst}). *)

open Types
open Ast
open Instance

exception Branch of int * value list
(** Carries the full operand stack at the branch point; the target
    frame keeps only as many values as its arity. *)

exception Return_exn of value list

let take n stack =
  (* The top [n] values of [stack], still in stack order (top first). *)
  let rec go n acc = function
    | _ when n = 0 -> List.rev acc
    | [] -> raise (Trap "value stack underflow")
    | v :: rest -> go (n - 1) (v :: acc) rest
  in
  go n [] stack

type funcinst =
  | Wasm_func of { ftype : functype; func : func; inst : funcinst Instance.t }
  | Host_func of host

type frame = { locals : value array; inst : funcinst Instance.t }

let type_of_funcinst = function Wasm_func { ftype; _ } -> ftype | Host_func h -> h.h_type

let i32 = function VI32 v -> v | VI64 _ | VF32 _ | VF64 _ -> raise (Trap "type error: i32")
let i64 = function VI64 v -> v | VI32 _ | VF32 _ | VF64 _ -> raise (Trap "type error: i64")
let f32 = function VF32 v -> v | VI32 _ | VI64 _ | VF64 _ -> raise (Trap "type error: f32")
let f64 = function VF64 v -> v | VI32 _ | VI64 _ | VF32 _ -> raise (Trap "type error: f64")

let bool_to_i32 b = if b then 1l else 0l

let eval_iunop ty op v =
  match ty with
  | I32 ->
    let x = i32 v in
    VI32 (match op with Clz -> Numerics.I32_ops.clz x | Ctz -> Numerics.I32_ops.ctz x | Popcnt -> Numerics.I32_ops.popcnt x)
  | I64 ->
    let x = i64 v in
    VI64 (match op with Clz -> Numerics.I64_ops.clz x | Ctz -> Numerics.I64_ops.ctz x | Popcnt -> Numerics.I64_ops.popcnt x)
  | F32 | F64 -> raise (Trap "iunop on float")

let eval_ibinop ty op a b =
  match ty with
  | I32 ->
    let x = i32 a and y = i32 b in
    let open Numerics.I32_ops in
    VI32
      (match op with
      | Add -> Int32.add x y
      | Sub -> Int32.sub x y
      | Mul -> Int32.mul x y
      | DivS -> div_s x y
      | DivU -> div_u x y
      | RemS -> rem_s x y
      | RemU -> rem_u x y
      | And -> Int32.logand x y
      | Or -> Int32.logor x y
      | Xor -> Int32.logxor x y
      | Shl -> shl x y
      | ShrS -> shr_s x y
      | ShrU -> shr_u x y
      | Rotl -> rotl x y
      | Rotr -> rotr x y)
  | I64 ->
    let x = i64 a and y = i64 b in
    let open Numerics.I64_ops in
    VI64
      (match op with
      | Add -> Int64.add x y
      | Sub -> Int64.sub x y
      | Mul -> Int64.mul x y
      | DivS -> div_s x y
      | DivU -> div_u x y
      | RemS -> rem_s x y
      | RemU -> rem_u x y
      | And -> Int64.logand x y
      | Or -> Int64.logor x y
      | Xor -> Int64.logxor x y
      | Shl -> shl x y
      | ShrS -> shr_s x y
      | ShrU -> shr_u x y
      | Rotl -> rotl x y
      | Rotr -> rotr x y)
  | F32 | F64 -> raise (Trap "ibinop on float")

let eval_irelop ty op a b =
  let open Numerics in
  match ty with
  | I32 ->
    let x = i32 a and y = i32 b in
    bool_to_i32
      (match op with
      | Eq -> Int32.equal x y
      | Ne -> not (Int32.equal x y)
      | LtS -> Int32.compare x y < 0
      | LtU -> I32_ops.lt_u x y
      | GtS -> Int32.compare x y > 0
      | GtU -> I32_ops.gt_u x y
      | LeS -> Int32.compare x y <= 0
      | LeU -> I32_ops.le_u x y
      | GeS -> Int32.compare x y >= 0
      | GeU -> I32_ops.ge_u x y)
  | I64 ->
    let x = i64 a and y = i64 b in
    bool_to_i32
      (match op with
      | Eq -> Int64.equal x y
      | Ne -> not (Int64.equal x y)
      | LtS -> Int64.compare x y < 0
      | LtU -> I64_ops.lt_u x y
      | GtS -> Int64.compare x y > 0
      | GtU -> I64_ops.gt_u x y
      | LeS -> Int64.compare x y <= 0
      | LeU -> I64_ops.le_u x y
      | GeS -> Int64.compare x y >= 0
      | GeU -> I64_ops.ge_u x y)
  | F32 | F64 -> raise (Trap "irelop on float")

let eval_funop ty op v =
  let x = match ty with F32 -> f32 v | F64 -> f64 v | I32 | I64 -> raise (Trap "funop on int") in
  let r =
    match op with
    | Abs -> Float.abs x
    | Neg -> -.x
    | Ceil -> Float.ceil x
    | Floor -> Float.floor x
    | Trunc -> Float.trunc x
    | Nearest -> Numerics.f_nearest x
    | Sqrt -> Float.sqrt x
  in
  match ty with
  | F32 -> VF32 (Numerics.to_f32 r)
  | F64 -> VF64 r
  | I32 | I64 -> assert false

let eval_fbinop ty op a b =
  let x, y =
    match ty with
    | F32 -> (f32 a, f32 b)
    | F64 -> (f64 a, f64 b)
    | I32 | I64 -> raise (Trap "fbinop on int")
  in
  let r =
    match op with
    | Fadd -> x +. y
    | Fsub -> x -. y
    | Fmul -> x *. y
    | Fdiv -> x /. y
    | Fmin -> Numerics.f_min x y
    | Fmax -> Numerics.f_max x y
    | Copysign -> Float.copy_sign x y
  in
  match ty with
  | F32 -> VF32 (Numerics.to_f32 r)
  | F64 -> VF64 r
  | I32 | I64 -> assert false

let eval_frelop ty op a b =
  let x, y =
    match ty with
    | F32 -> (f32 a, f32 b)
    | F64 -> (f64 a, f64 b)
    | I32 | I64 -> raise (Trap "frelop on int")
  in
  bool_to_i32
    (match op with
    | Feq -> x = y
    | Fne -> x <> y
    | Flt -> x < y
    | Fgt -> x > y
    | Fle -> x <= y
    | Fge -> x >= y)

let eval_cvtop op v =
  let open Numerics in
  match op with
  | I32WrapI64 -> VI32 (Int64.to_int32 (i64 v))
  | I32TruncF32S -> VI32 (trunc_to_i32_s (f32 v))
  | I32TruncF32U -> VI32 (trunc_to_i32_u (f32 v))
  | I32TruncF64S -> VI32 (trunc_to_i32_s (f64 v))
  | I32TruncF64U -> VI32 (trunc_to_i32_u (f64 v))
  | I64ExtendI32S -> VI64 (Int64.of_int32 (i32 v))
  | I64ExtendI32U -> VI64 (Int64.logand (Int64.of_int32 (i32 v)) 0xffffffffL)
  | I64TruncF32S -> VI64 (trunc_to_i64_s (f32 v))
  | I64TruncF32U -> VI64 (trunc_to_i64_u (f32 v))
  | I64TruncF64S -> VI64 (trunc_to_i64_s (f64 v))
  | I64TruncF64U -> VI64 (trunc_to_i64_u (f64 v))
  | F32ConvertI32S -> VF32 (to_f32 (Int32.to_float (i32 v)))
  | F32ConvertI32U -> VF32 (to_f32 (u32_to_float (i32 v)))
  | F32ConvertI64S -> VF32 (to_f32 (Int64.to_float (i64 v)))
  | F32ConvertI64U -> VF32 (to_f32 (u64_to_float (i64 v)))
  | F32DemoteF64 -> VF32 (to_f32 (f64 v))
  | F64ConvertI32S -> VF64 (Int32.to_float (i32 v))
  | F64ConvertI32U -> VF64 (u32_to_float (i32 v))
  | F64ConvertI64S -> VF64 (Int64.to_float (i64 v))
  | F64ConvertI64U -> VF64 (u64_to_float (i64 v))
  | F64PromoteF32 -> VF64 (f32 v)
  | I32ReinterpretF32 -> VI32 (Int32.bits_of_float (f32 v))
  | I64ReinterpretF64 -> VI64 (Int64.bits_of_float (f64 v))
  | F32ReinterpretI32 -> VF32 (Int32.float_of_bits (i32 v))
  | F64ReinterpretI64 -> VF64 (Int64.float_of_bits (i64 v))

let arity_of_blocktype = function BlockEmpty -> 0 | BlockVal _ -> 1

let rec eval_seq frame stack body =
  List.fold_left (eval_instr frame) stack body

and eval_block frame stack ~label_arity body =
  try eval_seq frame stack body with
  | Branch (0, branch_stack) -> take label_arity branch_stack @ stack_below frame stack
  | Branch (n, branch_stack) -> raise (Branch (n - 1, branch_stack))

and stack_below _frame stack = stack
(* Values below the block are untouched: the block evaluated over
   [stack] and branch restoration keeps them implicitly because
   [eval_block] is always entered with the surrounding stack. *)

and eval_instr frame stack (instr : instr) =
  match instr with
  | Unreachable -> raise (Trap "unreachable executed")
  | Nop -> stack
  | Block (bt, body) -> eval_block frame stack ~label_arity:(arity_of_blocktype bt) body
  | Loop (_, body) ->
    let rec iterate stack =
      Fuel.consume ();
      match eval_seq frame stack body with
      | result -> result
      | exception Branch (0, _) -> iterate stack
      | exception Branch (n, s) -> raise (Branch (n - 1, s))
    in
    iterate stack
  | If (bt, then_, else_) ->
    (match stack with
    | cond :: rest ->
      let body = if Int32.equal (i32 cond) 0l then else_ else then_ in
      eval_block frame rest ~label_arity:(arity_of_blocktype bt) body
    | [] -> raise (Trap "stack underflow"))
  | Br n -> raise (Branch (n, stack))
  | BrIf n ->
    (match stack with
    | cond :: rest -> if Int32.equal (i32 cond) 0l then rest else raise (Branch (n, rest))
    | [] -> raise (Trap "stack underflow"))
  | BrTable (targets, default) ->
    (match stack with
    | cond :: rest ->
      let idx = Int32.to_int (i32 cond) in
      let target = if idx >= 0 && idx < Array.length targets then targets.(idx) else default in
      raise (Branch (target, rest))
    | [] -> raise (Trap "stack underflow"))
  | Return -> raise (Return_exn stack)
  | Call f -> call_funcinst frame.inst.funcs.(f) stack
  | CallIndirect tidx ->
    (match stack with
    | idx :: rest ->
      let table = frame.inst.tables.(0) in
      let i = Int32.to_int (i32 idx) land 0xffffffff in
      if i >= Array.length table then raise (Trap "undefined element")
      else begin
        match table.(i) with
        | None -> raise (Trap "uninitialized element")
        | Some fi ->
          if not (functype_equal frame.inst.types.(tidx) (type_of_funcinst fi)) then
            raise (Trap "indirect call type mismatch");
          call_funcinst fi rest
      end
    | [] -> raise (Trap "stack underflow"))
  | Drop -> (match stack with _ :: rest -> rest | [] -> raise (Trap "stack underflow"))
  | Select ->
    (match stack with
    | cond :: v2 :: v1 :: rest ->
      (if Int32.equal (i32 cond) 0l then v2 else v1) :: rest
    | _ -> raise (Trap "stack underflow"))
  | LocalGet i -> frame.locals.(i) :: stack
  | LocalSet i ->
    (match stack with
    | v :: rest ->
      frame.locals.(i) <- v;
      rest
    | [] -> raise (Trap "stack underflow"))
  | LocalTee i ->
    (match stack with
    | v :: _ ->
      frame.locals.(i) <- v;
      stack
    | [] -> raise (Trap "stack underflow"))
  | GlobalGet i -> frame.inst.globals.(i).gvalue :: stack
  | GlobalSet i ->
    (match stack with
    | v :: rest ->
      frame.inst.globals.(i).gvalue <- v;
      rest
    | [] -> raise (Trap "stack underflow"))
  | Load (ty, pack, m) ->
    (match stack with
    | addr :: rest ->
      let mem = memory0 frame.inst in
      let ea = Memory.effective_address (i32 addr) m.offset in
      let v =
        match (ty, pack) with
        | I32, None -> VI32 (Memory.load32 mem ea)
        | I64, None -> VI64 (Memory.load64 mem ea)
        | F32, None -> VF32 (Int32.float_of_bits (Memory.load32 mem ea))
        | F64, None -> VF64 (Int64.float_of_bits (Memory.load64 mem ea))
        | I32, Some (P8, SX) -> VI32 (Int32.of_int (Memory.load8_s mem ea))
        | I32, Some (P8, ZX) -> VI32 (Int32.of_int (Memory.load8_u mem ea))
        | I32, Some (P16, SX) -> VI32 (Int32.of_int (Memory.load16_s mem ea))
        | I32, Some (P16, ZX) -> VI32 (Int32.of_int (Memory.load16_u mem ea))
        | I64, Some (P8, SX) -> VI64 (Int64.of_int (Memory.load8_s mem ea))
        | I64, Some (P8, ZX) -> VI64 (Int64.of_int (Memory.load8_u mem ea))
        | I64, Some (P16, SX) -> VI64 (Int64.of_int (Memory.load16_s mem ea))
        | I64, Some (P16, ZX) -> VI64 (Int64.of_int (Memory.load16_u mem ea))
        | I64, Some (P32, SX) -> VI64 (Int64.of_int32 (Memory.load32 mem ea))
        | I64, Some (P32, ZX) ->
          VI64 (Int64.logand (Int64.of_int32 (Memory.load32 mem ea)) 0xffffffffL)
        | (I32 | F32 | F64), Some (P32, _) | (F32 | F64), Some ((P8 | P16), _) ->
          raise (Trap "invalid load")
      in
      v :: rest
    | [] -> raise (Trap "stack underflow"))
  | Store (ty, pack, m) ->
    (match stack with
    | v :: addr :: rest ->
      let mem = memory0 frame.inst in
      let ea = Memory.effective_address (i32 addr) m.offset in
      (match (ty, pack) with
      | I32, None -> Memory.store32 mem ea (i32 v)
      | I64, None -> Memory.store64 mem ea (i64 v)
      | F32, None -> Memory.store32 mem ea (Int32.bits_of_float (f32 v))
      | F64, None -> Memory.store64 mem ea (Int64.bits_of_float (f64 v))
      | I32, Some P8 -> Memory.store8 mem ea (Int32.to_int (i32 v))
      | I32, Some P16 -> Memory.store16 mem ea (Int32.to_int (i32 v))
      | I64, Some P8 -> Memory.store8 mem ea (Int64.to_int (i64 v) land 0xff)
      | I64, Some P16 -> Memory.store16 mem ea (Int64.to_int (i64 v) land 0xffff)
      | I64, Some P32 -> Memory.store32 mem ea (Int64.to_int32 (i64 v))
      | (I32 | F32 | F64), Some P32 | (F32 | F64), Some (P8 | P16) ->
        raise (Trap "invalid store"));
      rest
    | _ -> raise (Trap "stack underflow"))
  | MemorySize -> VI32 (Int32.of_int (Memory.size_pages (memory0 frame.inst))) :: stack
  | MemoryGrow ->
    (match stack with
    | delta :: rest ->
      let mem = memory0 frame.inst in
      VI32 (Int32.of_int (Memory.grow mem (Int32.to_int (i32 delta)))) :: rest
    | [] -> raise (Trap "stack underflow"))
  | Const v -> v :: stack
  | ITestop ty ->
    (match stack with
    | v :: rest ->
      let zero =
        match ty with
        | I32 -> Int32.equal (i32 v) 0l
        | I64 -> Int64.equal (i64 v) 0L
        | F32 | F64 -> raise (Trap "eqz on float")
      in
      VI32 (bool_to_i32 zero) :: rest
    | [] -> raise (Trap "stack underflow"))
  | IUnop (ty, op) ->
    (match stack with
    | v :: rest -> eval_iunop ty op v :: rest
    | [] -> raise (Trap "stack underflow"))
  | IBinop (ty, op) ->
    (match stack with
    | b :: a :: rest -> eval_ibinop ty op a b :: rest
    | _ -> raise (Trap "stack underflow"))
  | IRelop (ty, op) ->
    (match stack with
    | b :: a :: rest -> VI32 (eval_irelop ty op a b) :: rest
    | _ -> raise (Trap "stack underflow"))
  | FUnop (ty, op) ->
    (match stack with
    | v :: rest -> eval_funop ty op v :: rest
    | [] -> raise (Trap "stack underflow"))
  | FBinop (ty, op) ->
    (match stack with
    | b :: a :: rest -> eval_fbinop ty op a b :: rest
    | _ -> raise (Trap "stack underflow"))
  | FRelop (ty, op) ->
    (match stack with
    | b :: a :: rest -> VI32 (eval_frelop ty op a b) :: rest
    | _ -> raise (Trap "stack underflow"))
  | Cvtop op ->
    (match stack with
    | v :: rest -> eval_cvtop op v :: rest
    | [] -> raise (Trap "stack underflow"))

and call_funcinst fi stack =
  match fi with
  | Host_func h ->
    let n_params = List.length h.h_type.params in
    let args = Array.of_list (List.rev (take n_params stack)) in
    let rest = drop n_params stack in
    let results = h.h_impl args in
    List.rev_append results rest
  | Wasm_func { ftype; func; inst } ->
    check_depth inst;
    Fuel.consume ();
    let n_params = List.length ftype.params in
    let args = List.rev (take n_params stack) in
    let rest = drop n_params stack in
    let locals =
      Array.of_list (args @ List.map default_value func.locals)
    in
    let frame = { locals; inst } in
    let arity = List.length ftype.results in
    inst.depth <- inst.depth + 1;
    let results =
      match
        try take arity (try eval_seq frame [] func.body with Branch (0, s) -> s)
        with Return_exn s -> take arity s
      with
      | results ->
        inst.depth <- inst.depth - 1;
        results
      | exception e ->
        inst.depth <- inst.depth - 1;
        raise e
    in
    results @ rest

and drop n stack =
  if n = 0 then stack
  else match stack with [] -> raise (Trap "stack underflow") | _ :: rest -> drop (n - 1) rest

(** Invoke an exported or internal function with boxed arguments. *)
let invoke (fi : funcinst) (args : value list) : value list =
  let ftype = type_of_funcinst fi in
  check_args ftype args;
  let stack = call_funcinst fi (List.rev args) in
  List.rev (take (List.length ftype.results) stack)

(** Link a validated module for this tier ({!Instance.instantiate}). *)
let instantiate ?imports (m : module_) : funcinst Instance.t =
  let own = Array.of_list m.funcs in
  Instance.instantiate
    ~of_host:(fun h -> Host_func h)
    ~n_own:(Array.length own)
    ~own:(fun inst i ->
      let func = own.(i) in
      Wasm_func { ftype = inst.types.(func.ftype); func; inst })
    ?imports m

(** Run a module's start function if present. *)
let run_start (inst : funcinst Instance.t) =
  match inst.module_.start with
  | None -> ()
  | Some f -> ignore (invoke inst.funcs.(f) [])
