(** Runtime structures (spec §4): linear memory, globals, the instance
    record both execution tiers share, the host-function interface and
    the one link step that instantiates a module for either tier.

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
    a harness concern and threading it through two execution tiers'
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

type globalinst = { gity : globaltype; mutable gvalue : value }

(** An instantiated module. Both tiers share this record and this link
    step; they differ only in their function value ['f]
    ({!Interp.funcinst}, {!Fastinterp.ffuncinst}). Each index space
    holds the imports first, then the module's own entities; only
    functions can be imported (see {!instantiate}). [depth] counts the
    module's Wasm frames now live (see {!max_call_depth}). *)
type 'f t = {
  module_ : module_;
  types : functype array;
  funcs : 'f array;
  tables : 'f option array array;
  memories : Memory.t array;
  globals : globalinst array;
  mutable depth : int;
}

(** The most Wasm frames of one instance that may be live at once: a
    call made at this depth traps [call stack exhausted] on both
    tiers, before the callee's entry charges fuel. Without it an app
    that recurses without end (an unsigned [_start] can) runs until
    OCaml's own stack, 1 GiB by default, overflows, and that escapes
    as [Stack_overflow], not as a trap. OCaml stack per Wasm frame,
    measured on x86-64: [Fastinterp] 192 bytes whatever the body;
    [Interp] 224 bytes for a call in an [if] arm, plus ~96 bytes per
    enclosing block, so 24.7 KB for a call at the decoder's nesting
    bound of 256. At this depth a plain recursion takes 2.2 MB and
    that worst case 247 MB, a quarter of the default limit. No module
    the repo runs (kernels, Genann, examples, fuzz campaign) goes
    deeper than 4 frames. *)
let max_call_depth = 10_000

(** Trap unless [inst] may push one more Wasm frame. *)
let[@inline] check_depth inst =
  if inst.depth >= max_call_depth then raise (Trap "call stack exhausted")

(** A host function, as either tier links it: the import name it
    answers, its Wasm type and a boxed implementation. *)
type host = {
  h_module : string;
  h_name : string;
  h_type : functype;
  h_impl : value array -> value list;
}

let host ~module_ ~name ~params ~results impl =
  { h_module = module_; h_name = name; h_type = { params; results }; h_impl = impl }

(* Fills the function index space until the module's own functions,
   which close over the finished instance, are built. *)
let uninitialized =
  host ~module_:"" ~name:"<uninitialized>" ~params:[] ~results:[] (fun _ ->
      raise (Trap "uninitialized function"))

(* Validation admits only [t.const] and [global.get] of an imported
   global here, and globals cannot be imported. *)
let eval_const = function
  | [ Const v ] -> v
  | _ -> link_fail "unsupported constant expression"

let eval_offset what body =
  match eval_const body with
  | VI32 v -> Int32.to_int v land 0xffffffff
  | VI64 _ | VF32 _ | VF64 _ -> link_fail "%s offset must be i32" what

(** [instantiate ~of_host ~n_own ~own ?imports m] links [m] for one
    tier: it resolves and type-checks the imports against [imports],
    evaluates constants, allocates memories, tables and globals, builds
    the [n_own] own functions with [own inst i] and applies element and
    data segments. [of_host] turns a host function into the tier's
    function value. Imports are host functions only, so a module that
    imports a table, memory or global fails with [unknown import].
    Validate [m] first ({!Validate.validate}); the start function, if
    any, is the tier's to run. *)
let instantiate ~of_host ~n_own ~own ?(imports = []) (m : module_) =
  let types = Array.of_list m.types in
  let bound = Hashtbl.create (List.length imports) in
  List.iter (fun h -> Hashtbl.replace bound (h.h_module, h.h_name) h) imports;
  let link (imp : import) =
    match (Hashtbl.find_opt bound (imp.imp_module, imp.imp_name), imp.idesc) with
    | None, _ -> link_fail "unknown import %s.%s" imp.imp_module imp.imp_name
    | Some h, ImportFunc tidx ->
      if not (functype_equal types.(tidx) h.h_type) then
        link_fail "import %s.%s: signature mismatch (want %s, got %s)" imp.imp_module imp.imp_name
          (string_of_functype types.(tidx))
          (string_of_functype h.h_type);
      of_host h
    | Some _, (ImportTable _ | ImportMemory _ | ImportGlobal _) ->
      link_fail "import %s.%s: kind mismatch" imp.imp_module imp.imp_name
  in
  let imported = Array.of_list (List.map link m.imports) in
  let n_imp = Array.length imported in
  let globals =
    Array.of_list (List.map (fun g -> { gity = g.gtype; gvalue = eval_const g.ginit }) m.globals)
  in
  let memories = Array.of_list (List.map Memory.create m.memories) in
  let tables = Array.of_list (List.map (fun (l : limits) -> Array.make l.min None) m.tables) in
  let funcs = Array.make (n_imp + n_own) (of_host uninitialized) in
  Array.blit imported 0 funcs 0 n_imp;
  let inst = { module_ = m; types; funcs; tables; memories; globals; depth = 0 } in
  for i = 0 to n_own - 1 do
    funcs.(n_imp + i) <- own inst i
  done;
  List.iter
    (fun e ->
      let offset = eval_offset "element" e.eoffset in
      let table = tables.(e.etable) in
      if offset + List.length e.einit > Array.length table then
        link_fail "element segment out of bounds";
      List.iteri (fun i f -> table.(offset + i) <- Some funcs.(f)) e.einit)
    m.elems;
  List.iter
    (fun d ->
      let offset = eval_offset "data" d.doffset in
      let mem = memories.(d.dmem) in
      if offset + String.length d.dinit > Memory.size_bytes mem then
        link_fail "data segment out of bounds";
      Memory.store_string mem offset d.dinit)
    m.datas;
  inst

(* Top-level and recursive, so the lookup that every invoke by name
   makes allocates no closure. *)
let rec find_export name = function
  | [] -> None
  | (e : export) :: rest -> if String.equal e.exp_name name then Some e.edesc else find_export name rest

let export_func inst name =
  match find_export name inst.module_.exports with
  | Some (ExportFunc i) -> Some inst.funcs.(i)
  | Some (ExportTable _ | ExportMemory _ | ExportGlobal _) | None -> None

let export_memory inst name =
  match find_export name inst.module_.exports with
  | Some (ExportMemory i) -> Some inst.memories.(i)
  | Some (ExportFunc _ | ExportTable _ | ExportGlobal _) | None -> None

let memory0 inst =
  if Array.length inst.memories = 0 then raise (Trap "no memory") else inst.memories.(0)

(** The invoke API's argument check, one message per fault for both
    tiers. *)
let check_args (ft : functype) args =
  if List.length args <> List.length ft.params then raise (Trap "invoke: wrong number of arguments");
  List.iter2
    (fun v t ->
      if not (valtype_equal (type_of_value v) t) then raise (Trap "invoke: argument type mismatch"))
    args ft.params
