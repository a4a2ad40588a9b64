(** Runtime structures: memories, tables, globals, function instances,
    module instantiation and the host-function interface (spec §4).

    Each instantiated module owns its own linear memory — the sandbox
    boundary that lets WaTZ host mutually distrusting applications in
    the single TrustZone secure world. *)

open Types
open Ast

exception Trap = Numerics.Trap
exception Exhaustion of string
exception Link_error of string

let link_fail fmt = Format.kasprintf (fun s -> raise (Link_error s)) fmt

(** Optional execution fuel, for running untrusted modules whose
    termination nothing guarantees (fuzz mutants in the differential
    harness). Metering is off unless the caller is inside
    {!Fuel.with_fuel}; the tiers charge one unit per loop iteration and
    per function entry — coarse, but every unbounded execution must
    cross one of those two edges, so exhaustion is inevitable and,
    because all tiers charge the same edges, tier-identical.

    The budget is a single global cell, not per-instance state: fuel is
    a harness concern and threading it through three execution tiers'
    hot paths would tax the default (unmetered) configuration. The cell
    is domain-local in effect — the fuzz harness is single-domain — and
    [max_int] is the sentinel for "off". *)
module Fuel = struct
  let cell = ref max_int

  let enabled () = !cell <> max_int

  let consume () =
    if !cell <> max_int then begin
      if !cell <= 0 then raise (Exhaustion "fuel exhausted");
      decr cell
    end

  (** Run [f] with a budget of [n] units, restoring the previous budget
      (normally: off) afterwards, whatever [f] does. *)
  let with_fuel n f =
    let saved = !cell in
    cell := n;
    Fun.protect ~finally:(fun () -> cell := saved) f
end

(* ------------------------------------------------------------------ *)
(* Linear memory *)

module Memory = struct
  type t = { mutable data : Bytes.t; max : int option; mutable limit_bytes : int option }

  let create (l : limits) =
    if l.min > max_pages then raise (Exhaustion "memory minimum too large");
    { data = Bytes.make (l.min * page_size) '\000'; max = l.max; limit_bytes = None }

  let size_pages t = Bytes.length t.data / page_size
  let size_bytes t = Bytes.length t.data

  (** [set_limit_bytes t n] caps the memory footprint (the OP-TEE heap
      budget of the enclosing TA); growth beyond it fails as in a
      memory-constrained TEE. *)
  let set_limit_bytes t n = t.limit_bytes <- n

  let grow t delta =
    let current = size_pages t in
    let proposed = current + delta in
    let max_allowed = match t.max with None -> max_pages | Some m -> m in
    let within_tee_budget =
      match t.limit_bytes with None -> true | Some b -> proposed * page_size <= b
    in
    if delta < 0 || proposed > max_allowed || not within_tee_budget then -1
    else begin
      let fresh = Bytes.make (proposed * page_size) '\000' in
      Bytes.blit t.data 0 fresh 0 (Bytes.length t.data);
      t.data <- fresh;
      current
    end

  let check t addr width =
    if addr < 0 || addr + width > Bytes.length t.data then
      raise (Trap "out of bounds memory access")

  let effective_address base offset =
    (Int32.to_int base land 0xffffffff) + offset

  let load8_u t addr =
    check t addr 1;
    Bytes.get_uint8 t.data addr

  let load8_s t addr =
    check t addr 1;
    Bytes.get_int8 t.data addr

  let load16_u t addr =
    check t addr 2;
    Bytes.get_uint16_le t.data addr

  let load16_s t addr =
    check t addr 2;
    Bytes.get_int16_le t.data addr

  let load32 t addr =
    check t addr 4;
    Bytes.get_int32_le t.data addr

  let load64 t addr =
    check t addr 8;
    Bytes.get_int64_le t.data addr

  let store8 t addr v =
    check t addr 1;
    Bytes.set_uint8 t.data addr (v land 0xff)

  let store16 t addr v =
    check t addr 2;
    Bytes.set_uint16_le t.data addr (v land 0xffff)

  let store32 t addr v =
    check t addr 4;
    Bytes.set_int32_le t.data addr v

  let store64 t addr v =
    check t addr 8;
    Bytes.set_int64_le t.data addr v

  let load_string t addr len =
    check t addr (max len 0);
    Bytes.sub_string t.data addr len

  let store_string t addr s =
    check t addr (String.length s);
    Bytes.blit_string s 0 t.data addr (String.length s)
end

(* ------------------------------------------------------------------ *)
(* Instances *)

type funcinst =
  | Wasm_func of { ftype : functype; func : func; inst : t }
  | Host_func of { ftype : functype; name : string; f : value array -> value list }

and globalinst = { gity : globaltype; mutable gvalue : value }

and tableinst = { mutable telems : funcinst option array; tmax : int option }

and extern =
  | Extern_func of funcinst
  | Extern_table of tableinst
  | Extern_memory of Memory.t
  | Extern_global of globalinst

and t = {
  module_ : module_;
  funcs : funcinst array;
  tables : tableinst array;
  memories : Memory.t array;
  globals : globalinst array;
  mutable exports : (string * extern) list;
}

let type_of_funcinst = function Wasm_func { ftype; _ } -> ftype | Host_func { ftype; _ } -> ftype

let host_func ~name ~params ~results f =
  Host_func { ftype = { params; results }; name; f }

(** Import resolution: [imports] maps (module, name) to externs. *)
type import_map = (string * string, extern) Hashtbl.t

let import_map_of_list bindings =
  let tbl = Hashtbl.create (List.length bindings) in
  List.iter (fun (m, n, ext) -> Hashtbl.replace tbl (m, n) ext) bindings;
  tbl

let eval_const inst = function
  | [ Const v ] -> v
  | [ GlobalGet i ] -> inst.globals.(i).gvalue
  | _ -> raise (Link_error "unsupported constant expression")

(** [instantiate ~imports m] validates nothing by itself — call
    {!Validate.validate} first — and performs allocation, segment
    initialisation and the start-function call. *)
let instantiate ?(imports : import_map = Hashtbl.create 0) (m : module_) =
  let types = Array.of_list m.types in
  let lookup (imp : import) =
    match Hashtbl.find_opt imports (imp.imp_module, imp.imp_name) with
    | Some ext -> ext
    | None -> link_fail "unknown import %s.%s" imp.imp_module imp.imp_name
  in
  let imported_funcs, imported_tables, imported_mems, imported_globals =
    List.fold_left
      (fun (fs, ts, ms, gs) imp ->
        match (imp.idesc, lookup imp) with
        | ImportFunc tidx, Extern_func f ->
          let expected = types.(tidx) in
          if not (functype_equal expected (type_of_funcinst f)) then
            link_fail "import %s.%s: signature mismatch (want %s, got %s)" imp.imp_module
              imp.imp_name
              (string_of_functype expected)
              (string_of_functype (type_of_funcinst f));
          (f :: fs, ts, ms, gs)
        | ImportTable _, Extern_table t -> (fs, t :: ts, ms, gs)
        | ImportMemory l, Extern_memory mem ->
          if Memory.size_pages mem < l.min then
            link_fail "import %s.%s: memory too small" imp.imp_module imp.imp_name;
          (fs, ts, mem :: ms, gs)
        | ImportGlobal g, Extern_global gi ->
          if not (valtype_equal g.content (type_of_value gi.gvalue)) then
            link_fail "import %s.%s: global type mismatch" imp.imp_module imp.imp_name;
          (fs, ts, ms, gi :: gs)
        | (ImportFunc _ | ImportTable _ | ImportMemory _ | ImportGlobal _), _ ->
          link_fail "import %s.%s: kind mismatch" imp.imp_module imp.imp_name)
      ([], [], [], []) m.imports
  in
  let imported_funcs = List.rev imported_funcs in
  let imported_tables = List.rev imported_tables in
  let imported_mems = List.rev imported_mems in
  let imported_globals = List.rev imported_globals in
  let own_tables =
    List.map
      (fun (l : limits) -> { telems = Array.make l.min None; tmax = l.max })
      m.tables
  in
  let own_memories = List.map Memory.create m.memories in
  let inst =
    {
      module_ = m;
      funcs = Array.of_list imported_funcs;
      tables = Array.of_list (imported_tables @ own_tables);
      memories = Array.of_list (imported_mems @ own_memories);
      globals = Array.of_list imported_globals;
      exports = [];
    }
  in
  (* Own globals need [inst] for const-expr evaluation over imported
     globals; own functions close over [inst]. Rebuild the arrays. *)
  let own_globals =
    List.map (fun g -> { gity = g.gtype; gvalue = eval_const inst g.ginit }) m.globals
  in
  let inst = { inst with globals = Array.of_list (imported_globals @ own_globals) } in
  let own_funcs =
    List.map (fun f -> Wasm_func { ftype = types.(f.ftype); func = f; inst }) m.funcs
  in
  let inst = { inst with funcs = Array.of_list (imported_funcs @ own_funcs) } in
  (* Patch closures: Wasm_func above captured the previous [inst]
     record; rebuild functions against the final record instead. *)
  let final =
    { inst with funcs = Array.copy inst.funcs }
  in
  Array.iteri
    (fun i fi ->
      match fi with
      | Wasm_func w -> final.funcs.(i) <- Wasm_func { w with inst = final }
      | Host_func _ -> ())
    inst.funcs;
  let inst = final in
  (* Element segments. *)
  List.iter
    (fun e ->
      let offset =
        match eval_const inst e.eoffset with
        | VI32 v -> Int32.to_int v land 0xffffffff
        | VI64 _ | VF32 _ | VF64 _ -> raise (Link_error "element offset must be i32")
      in
      let table = inst.tables.(e.etable) in
      if offset + List.length e.einit > Array.length table.telems then
        raise (Link_error "element segment out of bounds");
      List.iteri (fun i f -> table.telems.(offset + i) <- Some inst.funcs.(f)) e.einit)
    m.elems;
  (* Data segments. *)
  List.iter
    (fun d ->
      let offset =
        match eval_const inst d.doffset with
        | VI32 v -> Int32.to_int v land 0xffffffff
        | VI64 _ | VF32 _ | VF64 _ -> raise (Link_error "data offset must be i32")
      in
      let mem = inst.memories.(d.dmem) in
      if offset + String.length d.dinit > Memory.size_bytes mem then
        raise (Link_error "data segment out of bounds");
      Memory.store_string mem offset d.dinit)
    m.datas;
  (* Exports. *)
  inst.exports <-
    List.map
      (fun e ->
        let ext =
          match e.edesc with
          | ExportFunc i -> Extern_func inst.funcs.(i)
          | ExportTable i -> Extern_table inst.tables.(i)
          | ExportMemory i -> Extern_memory inst.memories.(i)
          | ExportGlobal i -> Extern_global inst.globals.(i)
        in
        (e.exp_name, ext))
      m.exports;
  inst

let export_func inst name =
  match List.assoc_opt name inst.exports with
  | Some (Extern_func f) -> Some f
  | Some (Extern_table _ | Extern_memory _ | Extern_global _) | None -> None

let export_memory inst name =
  match List.assoc_opt name inst.exports with
  | Some (Extern_memory m) -> Some m
  | Some (Extern_func _ | Extern_table _ | Extern_global _) | None -> None

let memory0 inst =
  if Array.length inst.memories = 0 then raise (Trap "no memory") else inst.memories.(0)
