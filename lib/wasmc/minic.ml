(** MiniC: a small imperative language compiled to WebAssembly.

    This is the toolchain substitute for WASI-SDK/Clang in the paper's
    pipeline: benchmark kernels (PolyBench, the Speedtest experiments,
    the Genann network) are written once in MiniC and compiled to the
    same Wasm opcodes a C compiler would emit — structured loops,
    manual address arithmetic over linear memory, i32 induction
    variables and f64 data.

    Programs are built with OCaml combinators (see {!Dsl}); there is no
    surface syntax. [compile] type-checks and emits an {!Ast.module_}
    ready for {!Watz_wasm.Validate} / {!Watz_wasm.Encode}. *)

module W = Watz_wasm.Ast
module T = Watz_wasm.Types
module B = Watz_wasm.Builder

type ty = I32 | I64 | F64

let valtype_of_ty = function
  | I32 -> T.I32
  | I64 -> T.I64
  | F64 -> T.F64

type binop = Add | Sub | Mul | Div | Rem | BAnd | BOr | BXor | Shl | Shr | ShrU
type cmpop = Eq | Ne | Lt | Le | Gt | Ge
type width = W8 | W16

type expr =
  | IntE of int (* i32 constant *)
  | LongE of int64
  | FloatE of float (* f64 constant *)
  | VarE of string
  | BinE of binop * expr * expr
  | NegE of expr
  | SqrtE of expr
  | AbsE of expr
  | MinE of expr * expr
  | MaxE of expr * expr
  | CmpE of cmpop * expr * expr (* i32 0/1 *)
  | AndE of expr * expr (* logical, short-circuit *)
  | OrE of expr * expr
  | CastE of ty * expr
  | LoadE of ty * expr (* full-width load at byte address *)
  | LoadPackedE of width * bool (* signed *) * expr (* i32 result *)
  | CallE of string * expr list
  | TernE of expr * expr * expr
  | MemGrowE of expr

type stmt =
  | DeclS of string * ty * expr option
  | AssignS of string * expr
  | StoreS of ty * expr * expr (* ty, address, value *)
  | IfS of expr * stmt list * stmt list
  | WhileS of expr * stmt list
  | ForS of string * expr * expr * stmt list
      (* for (var = lo; var < hi; var++) body — i32 induction *)
  | ReturnS of expr option
  | ExprS of expr
  | BreakS
  | ContinueS

type import_decl = { i_module : string; i_name : string; i_params : ty list; i_ret : ty option }

type fundef = {
  f_name : string;
  f_params : (string * ty) list;
  f_ret : ty option;
  f_body : stmt list;
  f_export : bool;
}

type program = {
  p_imports : import_decl list;
  p_funs : fundef list;
  p_mem_pages : int;
  p_mem_max : int option;
  p_data : (int * string) list;
  p_export_memory : bool;
}

exception Type_error of string

let type_fail fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Compilation *)

type fenv = {
  fidx : int;
  fparams : ty list;
  fret : ty option;
}

type cenv = {
  funs : (string, fenv) Hashtbl.t;
  locals : (string, int * ty) Hashtbl.t;
  mutable local_list : T.valtype list; (* declared locals beyond params, reversed *)
  mutable next_local : int;
  ret : ty option;
  (* Loop context: absolute label level of (exit block, continue block)
     for each enclosing loop, innermost first. *)
  mutable loops : (int * int) list;
  mutable level : int; (* current label nesting depth *)
}

let fresh_local env name ty =
  if Hashtbl.mem env.locals name then type_fail "duplicate variable %s" name;
  let idx = env.next_local in
  env.next_local <- idx + 1;
  env.local_list <- valtype_of_ty ty :: env.local_list;
  Hashtbl.replace env.locals name (idx, ty);
  (idx, ty)

(* Loop induction variables may be reused across sibling loops, C
   style; a conflicting type is still an error. *)
let reuse_or_fresh_local env name ty =
  match Hashtbl.find_opt env.locals name with
  | Some (idx, ty') ->
    if ty <> ty' then type_fail "loop variable %s reused at a different type" name;
    (idx, ty)
  | None -> fresh_local env name ty

let lookup_var env name =
  match Hashtbl.find_opt env.locals name with
  | Some v -> v
  | None -> type_fail "unbound variable %s" name

let lookup_fun env name =
  match Hashtbl.find_opt env.funs name with
  | Some f -> f
  | None -> type_fail "unbound function %s" name

let is_float = function F64 -> true | I32 | I64 -> false

(* Each expression compiles to (instructions, type). *)
let rec compile_expr env (e : expr) : W.instr list * ty =
  match e with
  | IntE n -> ([ W.Const (W.VI32 (Int32.of_int n)) ], I32)
  | LongE n -> ([ W.Const (W.VI64 n) ], I64)
  | FloatE x -> ([ W.Const (W.VF64 x) ], F64)
  | VarE name ->
    let idx, ty = lookup_var env name in
    ([ W.LocalGet idx ], ty)
  | BinE (op, a, b) ->
    let ca, ta = compile_expr env a in
    let cb, tb = compile_expr env b in
    if ta <> tb then type_fail "binop operand types differ (%s)" (show_ty ta ^ "/" ^ show_ty tb);
    let instr =
      if is_float ta then
        let fop =
          match op with
          | Add -> W.Fadd
          | Sub -> W.Fsub
          | Mul -> W.Fmul
          | Div -> W.Fdiv
          | Rem | BAnd | BOr | BXor | Shl | Shr | ShrU -> type_fail "float bitwise/rem"
        in
        W.FBinop (valtype_of_ty ta, fop)
      else
        let iop =
          match op with
          | Add -> W.Add
          | Sub -> W.Sub
          | Mul -> W.Mul
          | Div -> W.DivS
          | Rem -> W.RemS
          | BAnd -> W.And
          | BOr -> W.Or
          | BXor -> W.Xor
          | Shl -> W.Shl
          | Shr -> W.ShrS
          | ShrU -> W.ShrU
        in
        W.IBinop (valtype_of_ty ta, iop)
    in
    (ca @ cb @ [ instr ], ta)
  | NegE a ->
    let ca, ta = compile_expr env a in
    if is_float ta then (ca @ [ W.FUnop (valtype_of_ty ta, W.Neg) ], ta)
    else if ta = I32 then ([ W.Const (W.VI32 0l) ] @ ca @ [ W.IBinop (T.I32, W.Sub) ], I32)
    else ([ W.Const (W.VI64 0L) ] @ ca @ [ W.IBinop (T.I64, W.Sub) ], I64)
  | SqrtE a ->
    let ca, ta = compile_expr env a in
    if not (is_float ta) then type_fail "sqrt of integer";
    (ca @ [ W.FUnop (valtype_of_ty ta, W.Sqrt) ], ta)
  | AbsE a ->
    let ca, ta = compile_expr env a in
    if not (is_float ta) then type_fail "abs of integer (use bit tricks)";
    (ca @ [ W.FUnop (valtype_of_ty ta, W.Abs) ], ta)
  | MinE (a, b) | MaxE (a, b) ->
    let ca, ta = compile_expr env a in
    let cb, tb = compile_expr env b in
    if ta <> tb || not (is_float ta) then type_fail "min/max need matching float operands";
    let op = match e with MinE _ -> W.Fmin | _ -> W.Fmax in
    (ca @ cb @ [ W.FBinop (valtype_of_ty ta, op) ], ta)
  | CmpE (op, a, b) ->
    let ca, ta = compile_expr env a in
    let cb, tb = compile_expr env b in
    if ta <> tb then type_fail "comparison operand types differ";
    let instr =
      if is_float ta then
        let fop =
          match op with
          | Eq -> W.Feq
          | Ne -> W.Fne
          | Lt -> W.Flt
          | Le -> W.Fle
          | Gt -> W.Fgt
          | Ge -> W.Fge
        in
        W.FRelop (valtype_of_ty ta, fop)
      else
        let iop =
          match op with
          | Eq -> W.Eq
          | Ne -> W.Ne
          | Lt -> W.LtS
          | Le -> W.LeS
          | Gt -> W.GtS
          | Ge -> W.GeS
        in
        W.IRelop (valtype_of_ty ta, iop)
    in
    (ca @ cb @ [ instr ], I32)
  | AndE (a, b) ->
    let ca, ta = compile_expr env a in
    let cb, tb = compile_expr env b in
    if ta <> I32 || tb <> I32 then type_fail "logical and needs i32 operands";
    (ca @ [ W.If (W.BlockVal T.I32, cb @ [ W.Const (W.VI32 0l); W.IRelop (T.I32, W.Ne) ],
                  [ W.Const (W.VI32 0l) ]) ], I32)
  | OrE (a, b) ->
    let ca, ta = compile_expr env a in
    let cb, tb = compile_expr env b in
    if ta <> I32 || tb <> I32 then type_fail "logical or needs i32 operands";
    (ca @ [ W.If (W.BlockVal T.I32, [ W.Const (W.VI32 1l) ],
                  cb @ [ W.Const (W.VI32 0l); W.IRelop (T.I32, W.Ne) ]) ], I32)
  | CastE (dst, a) ->
    let ca, src = compile_expr env a in
    if src = dst then (ca, dst)
    else
      let cvt =
        match (src, dst) with
        | I32, I64 -> W.I64ExtendI32S
        | I64, I32 -> W.I32WrapI64
        | I32, F64 -> W.F64ConvertI32S
        | I64, F64 -> W.F64ConvertI64S
        | F64, I32 -> W.I32TruncF64S
        | F64, I64 -> W.I64TruncF64S
        | (I32 | I64 | F64), _ -> assert false
      in
      (ca @ [ W.Cvtop cvt ], dst)
  | LoadE (ty, addr) ->
    let ca, ta = compile_expr env addr in
    if ta <> I32 then type_fail "address must be i32";
    let align = match ty with I32 -> 2 | I64 | F64 -> 3 in
    (ca @ [ W.Load (valtype_of_ty ty, None, { align; offset = 0 }) ], ty)
  | LoadPackedE (w, signed, addr) ->
    let ca, ta = compile_expr env addr in
    if ta <> I32 then type_fail "address must be i32";
    let pack, align = match w with W8 -> (W.P8, 0) | W16 -> (W.P16, 1) in
    let ext = if signed then W.SX else W.ZX in
    (ca @ [ W.Load (T.I32, Some (pack, ext), { align; offset = 0 }) ], I32)
  | CallE (name, args) ->
    let f = lookup_fun env name in
    if List.length args <> List.length f.fparams then
      type_fail "call %s: expected %d arguments, got %d" name (List.length f.fparams)
        (List.length args);
    let compiled =
      List.map2
        (fun arg expected ->
          let ca, ta = compile_expr env arg in
          if ta <> expected then type_fail "call %s: argument type mismatch" name;
          ca)
        args f.fparams
    in
    let ret = match f.fret with Some t -> t | None -> type_fail "call %s: no result in expression" name in
    (List.concat compiled @ [ W.Call f.fidx ], ret)
  | TernE (c, a, b) ->
    let cc, tc = compile_expr env c in
    if tc <> I32 then type_fail "ternary condition must be i32";
    let ca, ta = compile_expr env a in
    let cb, tb = compile_expr env b in
    if ta <> tb then type_fail "ternary arms differ";
    (cc @ [ W.If (W.BlockVal (valtype_of_ty ta), ca, cb) ], ta)
  | MemGrowE a ->
    let ca, ta = compile_expr env a in
    if ta <> I32 then type_fail "memory.grow takes i32";
    (ca @ [ W.MemoryGrow ], I32)

and show_ty = function I32 -> "int" | I64 -> "long" | F64 -> "double"

(* Statements: [level] bookkeeping mirrors the emitted Block/Loop/If
   structure so break/continue resolve to the right label depth. *)
let rec compile_stmt env (s : stmt) : W.instr list =
  match s with
  | DeclS (name, ty, init) ->
    let idx, _ = fresh_local env name ty in
    (match init with
    | None -> []
    | Some e ->
      let ce, te = compile_expr env e in
      if te <> ty then type_fail "initialiser for %s has type %s, expected %s" name (show_ty te) (show_ty ty);
      ce @ [ W.LocalSet idx ])
  | AssignS (name, e) ->
    let idx, ty = lookup_var env name in
    let ce, te = compile_expr env e in
    if te <> ty then type_fail "assignment to %s has type %s, expected %s" name (show_ty te) (show_ty ty);
    ce @ [ W.LocalSet idx ]
  | StoreS (ty, addr, v) ->
    let ca, ta = compile_expr env addr in
    if ta <> I32 then type_fail "store address must be i32";
    let cv, tv = compile_expr env v in
    if tv <> ty then type_fail "store value type mismatch";
    let align = match ty with I32 -> 2 | I64 | F64 -> 3 in
    ca @ cv @ [ W.Store (valtype_of_ty ty, None, { align; offset = 0 }) ]
  | IfS (c, then_, else_) ->
    let cc, tc = compile_expr env c in
    if tc <> I32 then type_fail "if condition must be i32";
    env.level <- env.level + 1;
    let ct = compile_block env then_ in
    let ce = compile_block env else_ in
    env.level <- env.level - 1;
    cc @ [ W.If (W.BlockEmpty, ct, ce) ]
  | WhileS (c, body) ->
    (* block $exit; loop $top; if !cond br $exit; body; br $top *)
    let exit_level = env.level in
    env.level <- env.level + 2;
    (* inside loop: level = exit_level + 2 *)
    let cont_level = exit_level + 1 in
    env.loops <- (exit_level, cont_level) :: env.loops;
    let cc, tc = compile_expr env c in
    if tc <> I32 then type_fail "while condition must be i32";
    let cbody = compile_block env body in
    env.loops <- List.tl env.loops;
    env.level <- env.level - 2;
    [
      W.Block
        ( W.BlockEmpty,
          [
            W.Loop
              ( W.BlockEmpty,
                cc @ [ W.ITestop T.I32; W.BrIf 1 ] @ cbody @ [ W.Br 0 ] );
          ] );
    ]
  | ForS (var, lo, hi, body) ->
    (* var is declared by the loop; classic i < hi, i++ shape. The
       continue label targets the increment, so the loop is
       block $exit { loop $top { if !(i<hi) br $exit;
         block $cont { body }; i++; br $top } } *)
    let clo, tlo = compile_expr env lo in
    if tlo <> I32 then type_fail "for bound must be i32";
    let idx, _ = reuse_or_fresh_local env var I32 in
    let chi, thi = compile_expr env hi in
    if thi <> I32 then type_fail "for bound must be i32";
    let exit_level = env.level in
    let cont_level = exit_level + 2 in
    env.level <- env.level + 3;
    env.loops <- (exit_level, cont_level) :: env.loops;
    let cbody = compile_block env body in
    env.loops <- List.tl env.loops;
    env.level <- env.level - 3;
    clo
    @ [ W.LocalSet idx ]
    @ [
        W.Block
          ( W.BlockEmpty,
            [
              W.Loop
                ( W.BlockEmpty,
                  [ W.LocalGet idx ] @ chi
                  @ [ W.IRelop (T.I32, W.GeS); W.BrIf 1 ]
                  @ [ W.Block (W.BlockEmpty, cbody) ]
                  @ [
                      W.LocalGet idx;
                      W.Const (W.VI32 1l);
                      W.IBinop (T.I32, W.Add);
                      W.LocalSet idx;
                      W.Br 0;
                    ] );
            ] );
      ]
  | ReturnS e ->
    (match (e, env.ret) with
    | None, None -> [ W.Return ]
    | Some e, Some ty ->
      let ce, te = compile_expr env e in
      if te <> ty then type_fail "return type mismatch";
      ce @ [ W.Return ]
    | None, Some _ -> type_fail "missing return value"
    | Some _, None -> type_fail "returning a value from a void function")
  | ExprS (CallE (name, args)) when (lookup_fun env name).fret = None ->
    (* Void calls never reach compile_expr, which requires a result. *)
    let f = lookup_fun env name in
    if List.length args <> List.length f.fparams then
      type_fail "call %s: expected %d arguments, got %d" name (List.length f.fparams)
        (List.length args);
    let compiled =
      List.map2
        (fun arg expected ->
          let ca, ta = compile_expr env arg in
          if ta <> expected then type_fail "call %s: argument type mismatch" name;
          ca)
        args f.fparams
    in
    List.concat compiled @ [ W.Call f.fidx ]
  | ExprS e ->
    let ce, _ = compile_expr env e in
    ce @ [ W.Drop ]
  | BreakS ->
    (match env.loops with
    | [] -> type_fail "break outside loop"
    | (exit_level, _) :: _ -> [ W.Br (env.level - exit_level - 1) ])
  | ContinueS ->
    (match env.loops with
    | [] -> type_fail "continue outside loop"
    | (_, cont_level) :: _ -> [ W.Br (env.level - cont_level - 1) ])

and compile_block env stmts = List.concat_map (compile_stmt env) stmts

(* Calls in expression position need void-result handling: a CallE to a
   void function in ExprS position is handled above; in any other
   position the type checker rejects it via lookup in compile_expr. *)

let compile (p : program) : W.module_ =
  let b = B.create () in
  let funs : (string, fenv) Hashtbl.t = Hashtbl.create 16 in
  (* Imports first (their indices precede local functions). *)
  List.iteri
    (fun _ (imp : import_decl) ->
      let params = List.map valtype_of_ty imp.i_params in
      let results = match imp.i_ret with None -> [] | Some t -> [ valtype_of_ty t ] in
      let fidx = B.import_func b ~module_:imp.i_module ~name:imp.i_name ~params ~results in
      if Hashtbl.mem funs imp.i_name then type_fail "duplicate function %s" imp.i_name;
      Hashtbl.replace funs imp.i_name { fidx; fparams = imp.i_params; fret = imp.i_ret })
    p.p_imports;
  (* Pre-register local function indices (allows forward references). *)
  let n_imports = List.length p.p_imports in
  List.iteri
    (fun i (f : fundef) ->
      if Hashtbl.mem funs f.f_name then type_fail "duplicate function %s" f.f_name;
      Hashtbl.replace funs f.f_name
        { fidx = n_imports + i; fparams = List.map snd f.f_params; fret = f.f_ret })
    p.p_funs;
  if p.p_mem_pages > 0 then ignore (B.memory b ~min:p.p_mem_pages ?max:p.p_mem_max ());
  List.iter (fun (offset, s) -> B.data b ~memory:0 ~offset s) p.p_data;
  List.iter
    (fun (f : fundef) ->
      let env =
        {
          funs;
          locals = Hashtbl.create 16;
          local_list = [];
          next_local = 0;
          ret = f.f_ret;
          loops = [];
          level = 0;
        }
      in
      List.iter (fun (name, ty) -> ignore (fresh_local env name ty)) f.f_params;
      (* Params are not extra locals. *)
      env.local_list <- [];
      let body = compile_block env f.f_body in
      (* A value-returning function must not fall off the end unless the
         last statement returns; append an unreachable default so
         validation succeeds for bodies ending in Return. *)
      let body =
        match f.f_ret with
        | None -> body
        | Some _ -> body @ [ W.Unreachable ]
      in
      let params = List.map (fun (_, t) -> valtype_of_ty t) f.f_params in
      let results = match f.f_ret with None -> [] | Some t -> [ valtype_of_ty t ] in
      let fidx = B.func b ~params ~results ~locals:(List.rev env.local_list) body in
      assert (fidx = (Hashtbl.find funs f.f_name).fidx);
      if f.f_export then B.export_func b f.f_name fidx)
    p.p_funs;
  if p.p_export_memory && p.p_mem_pages > 0 then B.export_memory b "memory" 0;
  B.build b

(** Compile, validate and encode to .wasm bytes in one step. *)
let compile_to_bytes p =
  let m = compile p in
  Watz_wasm.Validate.validate m;
  Watz_wasm.Encode.encode m

(* ------------------------------------------------------------------ *)
(* Combinator front-end *)

module Dsl = struct
  (** Thin sugar so kernels read naturally. *)

  let i n = IntE n
  let f x = FloatE x
  let v name = VarE name
  let ( + ) a b = BinE (Add, a, b)
  let ( - ) a b = BinE (Sub, a, b)
  let ( * ) a b = BinE (Mul, a, b)
  let ( / ) a b = BinE (Div, a, b)
  let ( % ) a b = BinE (Rem, a, b)
  let ( < ) a b = CmpE (Lt, a, b)
  let ( <= ) a b = CmpE (Le, a, b)
  let ( > ) a b = CmpE (Gt, a, b)
  let ( >= ) a b = CmpE (Ge, a, b)
  let ( = ) a b = CmpE (Eq, a, b)
  let ( <> ) a b = CmpE (Ne, a, b)
  let ( && ) a b = AndE (a, b)
  let ( || ) a b = OrE (a, b)
  let to_f64 e = CastE (F64, e)
  let to_i32 e = CastE (I32, e)

  (** f64 array addressing: element [idx] of the array at byte [base]. *)
  let f64_addr base idx = BinE (Add, BinE (Mul, idx, IntE 8), base)

  let f64_get base idx = LoadE (F64, f64_addr base idx)
  let f64_set base idx value = StoreS (F64, f64_addr base idx, value)

  (** Row-major 2-D addressing with row length [cols]. *)
  let f64_get2 base cols r c = f64_get base (BinE (Add, BinE (Mul, r, cols), c))
  let f64_set2 base cols r c value = f64_set base (BinE (Add, BinE (Mul, r, cols), c)) value

  let i32_addr base idx = BinE (Add, BinE (Mul, idx, IntE 4), base)
  let i32_get base idx = LoadE (I32, i32_addr base idx)
  let i32_set base idx value = StoreS (I32, i32_addr base idx, value)

  let decl name ty e = DeclS (name, ty, Some e)
  let set name e = AssignS (name, e)
  let for_ var lo hi body = ForS (var, lo, hi, body)
  let while_ c body = WhileS (c, body)
  let if_ c t e = IfS (c, t, e)
  let ret e = ReturnS (Some e)
  let ret_void = ReturnS None
  let call name args = ExprS (CallE (name, args))
  let calle name args = CallE (name, args)

  let fn ?(export = true) name params ret body =
    { f_name = name; f_params = params; f_ret = ret; f_body = body; f_export = export }

  let program ?(imports = []) ?(mem_pages = 1) ?mem_max ?(data = []) ?(export_memory = true)
      funs =
    {
      p_imports = imports;
      p_funs = funs;
      p_mem_pages = mem_pages;
      p_mem_max = mem_max;
      p_data = data;
      p_export_memory = export_memory;
    }
end
