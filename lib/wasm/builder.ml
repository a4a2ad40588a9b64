(** Programmatic construction of Wasm modules.

    A tiny embedded assembler: declare types, imports, functions,
    memories and exports in any order, then {!build} a well-formed
    {!Ast.module_}. The MiniC code generator and the synthetic workload
    generators (e.g. the 1–9 MB startup binaries of Fig. 4) sit on top
    of this. *)

open Types
open Ast

type t = {
  mutable types_rev : functype list;
  mutable imports_rev : import list;
  mutable funcs_rev : func list;
  mutable tables : limits list;
  mutable memories : limits list;
  mutable globals_rev : global list;
  mutable exports_rev : export list;
  mutable elems_rev : elem list;
  mutable datas_rev : data list;
  mutable n_imported_funcs : int;
  mutable funcs_allocated : int; (* own functions declared so far *)
}

let create () =
  {
    types_rev = [];
    imports_rev = [];
    funcs_rev = [];
    tables = [];
    memories = [];
    globals_rev = [];
    exports_rev = [];
    elems_rev = [];
    datas_rev = [];
    n_imported_funcs = 0;
    funcs_allocated = 0;
  }

(** Intern a function type, returning its index. *)
let typeidx b ft =
  let types = List.rev b.types_rev in
  let rec find i = function
    | [] ->
      b.types_rev <- ft :: b.types_rev;
      i
    | t :: rest -> if functype_equal t ft then i else find (i + 1) rest
  in
  find 0 types

(** Import a function; must be called before any {!func}. Returns the
    function index. *)
let import_func b ~module_ ~name ~params ~results =
  if b.funcs_allocated > 0 then invalid_arg "Builder: imports must precede functions";
  let idx = typeidx b { params; results } in
  b.imports_rev <-
    { imp_module = module_; imp_name = name; idesc = ImportFunc idx } :: b.imports_rev;
  let fidx = b.n_imported_funcs in
  b.n_imported_funcs <- b.n_imported_funcs + 1;
  fidx

(** Declare a function; [body] may reference any function index,
    including functions declared later. Returns the function index. *)
let func b ~params ~results ~locals body =
  let tidx = typeidx b { params; results } in
  b.funcs_rev <- { ftype = tidx; locals; body } :: b.funcs_rev;
  let fidx = b.n_imported_funcs + b.funcs_allocated in
  b.funcs_allocated <- b.funcs_allocated + 1;
  fidx

let memory b ~min ?max () =
  b.memories <- b.memories @ [ { min; max } ];
  List.length b.memories - 1

let table b ~min ?max () =
  b.tables <- b.tables @ [ { min; max } ];
  List.length b.tables - 1

let global b ~mut ~init =
  let gtype = { content = type_of_value init; mut = (if mut then Mutable else Immutable) } in
  b.globals_rev <- { gtype; ginit = [ Const init ] } :: b.globals_rev;
  List.length b.globals_rev - 1

let export_func b name fidx = b.exports_rev <- { exp_name = name; edesc = ExportFunc fidx } :: b.exports_rev
let export_memory b name idx = b.exports_rev <- { exp_name = name; edesc = ExportMemory idx } :: b.exports_rev
let elem b ~table ~offset funcs = b.elems_rev <- { etable = table; eoffset = [ Const (VI32 (Int32.of_int offset)) ]; einit = funcs } :: b.elems_rev
let data b ~memory ~offset s = b.datas_rev <- { dmem = memory; doffset = [ Const (VI32 (Int32.of_int offset)) ]; dinit = s } :: b.datas_rev

let build b : module_ =
  {
    types = List.rev b.types_rev;
    imports = List.rev b.imports_rev;
    funcs = List.rev b.funcs_rev;
    tables = b.tables;
    memories = b.memories;
    globals = List.rev b.globals_rev;
    exports = List.rev b.exports_rev;
    start = None;
    elems = List.rev b.elems_rev;
    datas = List.rev b.datas_rev;
    customs = [];
  }

(* Shorthand for an i32 constant, so builder clients read like
   assembly listings. *)
let i32c n = Const (VI32 (Int32.of_int n))
