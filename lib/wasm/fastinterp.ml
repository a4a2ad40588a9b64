(** Fast interpreter: pre-decoded linear bytecode with direct branch
    targets.

    This is the fast execution tier: it stands in for WAMR's LLVM AOT
    mode in the paper's interpreter-vs-AOT comparison, with the
    tree-walking {!Interp} as the slow end and reference oracle. A
    validated module is flattened {e once} into a flat [op array] per
    function: structured control (block/loop/if) disappears into jumps
    whose absolute program-counter targets are precomputed at
    flattening time, so execution needs no [Branch] exception unwinding
    and no label-stack traversal. Operands live in typed register files
    indexed by the static stack height (known from validation), so the
    hot loop is: fetch [code.(pc)], match, mutate arrays, bump an
    integer [pc].

    The compiled form ({!cmodule}) references functions by {e index}
    and contains no per-instance state, so it can be cached across
    instantiations — {!Runtime.load} keys such a cache by the module's
    SHA-256 measurement.

    Modules must be validated ({!Validate.validate}) before
    {!compile}: the flattener trusts the types. *)

open Types
open Ast
open Instance

(* Native-int arithmetic on 32-bit values stored sign-extended. *)
let wrap32 x = (x lsl 31) asr 31
let u32 x = x land 0xffffffff

(* ------------------------------------------------------------------ *)
(* Pre-decoded instruction form *)

(* A register move performed when a branch carries values across block
   boundaries: copy slot [msrc] down to [mdst] in the register file
   selected by [mk] (0 = i32, 1 = i64, 2 = float). *)
type mv = { mk : int; msrc : int; mdst : int }

(* A branch edge. [target] is an absolute index into the function's op
   array; forward edges are emitted with [-1] and patched when the
   destination label's end is reached. *)
type edge = { mutable target : int; moves : mv array }

(* Pre-resolved load/store flavours (type x pack x extension). *)
type lkind =
  | LI32 | LI64 | LF32 | LF64
  | LI32_8S | LI32_8U | LI32_16S | LI32_16U
  | LI64_8S | LI64_8U | LI64_16S | LI64_16U | LI64_32S | LI64_32U

type skind = SI32 | SI64 | SF32 | SF64 | SI32_8 | SI32_16 | SI64_8 | SI64_16 | SI64_32

(* Slot indices below address a unified register file: locals occupy
   [0, nloc) and stack slots [nloc, nloc + max_height); the offset is
   baked in at flattening time, which turns local.get/set/tee into
   plain register moves. The hottest operation families (i32 index
   arithmetic, f64 arithmetic, 32/64-bit loads and stores) get
   dedicated constructors so the dispatch loop resolves them with a
   single match. *)
type op =
  | OHalt
  | OUnreachable
  | OFuel (* charge one fuel unit; emitted only when compiling with ~fuel *)
  | OJmp of edge
  | OBrIf of int * edge (* jump when slot <> 0 *)
  | OBrIfNot of int * edge (* jump when slot = 0 (if's else edge) *)
  | OBrTable of int * edge array * edge
  | OCall of int * int (* function index, args base slot *)
  | OCallIndirect of int * int * int (* type index, index slot, args base *)
  | OConstI of int * int (* dst, value (sign-extended) *)
  | OConstL of int * int64
  | OConstF of int * float
  | OMovI of int * int (* dst, src: local<->stack traffic *)
  | OMovL of int * int
  | OMovF of int * int
  | OGlobalGetI of int * int (* dst, global *)
  | OGlobalGetL of int * int
  | OGlobalGetF of int * int
  | OGlobalSetI of int * int (* global, src *)
  | OGlobalSetL of int * int
  | OGlobalSetF of int * int
  | OSelectI of int (* result slot d; v2 at d+1, cond at d+2 *)
  | OSelectL of int
  | OSelectF of int
  | OTestI of int (* i32.eqz at slot *)
  | OTestL of int (* i64.eqz: reads xl, writes xi *)
  | OIUn32 of iunop * int
  | OIUn64 of iunop * int
  (* The hot families are three-address: the emit-time peephole folds
     adjacent local.get/const pushes into the consumer's operand slots
     and local.set/br_if consumers into its destination, so [a]/[b] may
     name locals directly and [d] may be a local. Emitted naturally as
     (d, d, d+1) when nothing fuses. *)
  | OAdd32 of int * int * int (* d, a, b: xi.d <- xi.a op xi.b *)
  | OSub32 of int * int * int
  | OMul32 of int * int * int
  | OAnd32 of int * int * int
  | OOr32 of int * int * int
  | OXor32 of int * int * int
  | OShl32 of int * int * int
  | OShrS32 of int * int * int
  | OShrU32 of int * int * int
  | OBin3I32 of ibinop * int * int * int (* d, a, imm (folded i32.const) *)
  | OIBin32 of ibinop * int (* div/rem/rot: in-place at d, d+1 *)
  | OIBin64 of ibinop * int
  | OIRel32 of irelop * int * int * int (* d, a, b *)
  | OIRelI32 of irelop * int * int * int (* d, a, imm *)
  | OIRel64 of irelop * int
  | OFUn of funop * int * bool (* op, slot, result is f32 *)
  | OFAdd64 of int * int * int (* d, a, b in the float file *)
  | OFSub64 of int * int * int
  | OFMul64 of int * int * int
  | OFDiv64 of int * int * int
  | OFBin32 of fbinop * int
  | OFBin64 of fbinop * int (* min/max/copysign *)
  | OFRel of frelop * int
  | OCvt of cvtop * int * int (* dst slot, src slot *)
  | OCvtIF of int * int (* f64.convert_i32_s: xf.d <- float xi.s *)
  | OFImm of fbinop * int * int * float (* d, a, imm (folded f64.const) *)
  | OBrCmpR32 of irelop * int * int * edge (* jump when xi.a op xi.b *)
  | OBrCmpI32 of irelop * int * int * edge (* jump when xi.a op imm *)
  | OLoadI32 of int * int * int (* static offset, result slot, addr slot *)
  | OLoadI64 of int * int * int
  | OLoadF64 of int * int * int
  | OStoreI32 of int * int * int (* static offset, addr slot, value slot *)
  | OStoreI64 of int * int * int
  | OStoreF64 of int * int * int
  | OScaled of int * int * int * int (* d, x, k, b: xi.d <- wrap32 ((xi.x lsl k) + b) *)
  | OScaledR of int * int * int * int (* d, x, k, r: xi.d <- wrap32 ((xi.x lsl k) + xi.r) *)
  | OLoadI32X of int * int * int * int * int (* off, const base, dst, index slot, shift *)
  | OLoadI64X of int * int * int * int * int
  | OLoadF64X of int * int * int * int * int
  | OLoadI32RX of int * int * int * int * int (* off, dst, index slot, shift, base slot *)
  | OLoadF64RX of int * int * int * int * int
  | OStoreI32X of int * int * int * int * int (* off, const base, index slot, shift, value *)
  | OStoreI64X of int * int * int * int * int
  | OStoreF64X of int * int * int * int * int
  | OStoreI32RX of int * int * int * int * int (* off, index slot, shift, base slot, value *)
  | OStoreF64RX of int * int * int * int * int
  | OLoad of lkind * int * int (* kind, static offset, addr/result slot *)
  | OStore of skind * int * int (* kind, static offset, addr slot (value at +1) *)
  | OMemSize of int
  | OMemGrow of int

(* A flattened function body. Instance-independent: calls reference
   function indices, globals reference global indices. *)
type cbody = {
  cb_code : op array;
  cb_nslots : int; (* unified register file: locals + max stack height *)
  cb_nloc : int; (* params + locals *)
  cb_param_types : valtype array;
  cb_result_types : valtype array;
}

(* A compiled module: the source AST (for link-time data: imports,
   exports, segments, start) plus the flattened bodies. Contains no
   instance state, so it is safe to share across instantiations and to
   cache by code measurement. *)
type cmodule = {
  cm_module : module_;
  cm_types : functype array;
  cm_func_types : functype array; (* full function index space *)
  cm_bodies : cbody array; (* own (non-imported) functions *)
  cm_n_imported : int;
}

(* ------------------------------------------------------------------ *)
(* Runtime representation *)

type fglobal = { fgty : globaltype; mutable fgvalue : value }

(* [fframe0]/[fbusy]: each function keeps one preallocated frame that
   non-recursive calls reuse (locals re-zeroed on reuse; stack slots
   need no clearing, validation guarantees they are written before
   read). Recursive or reentrant calls fall back to a fresh frame. *)
type ffuncinst =
  | FWasm of {
      fftype : functype;
      fbody : cbody;
      finst : finstance;
      fframe0 : frame;
      mutable fbusy : bool;
    }
  | FHost of {
      fhtype : functype;
      fhname : string;
      fh_params : valtype array;
      fh_results : valtype array;
      fimpl : value array -> value list;
    }

(* A call frame: one register file per value class, locals first. *)
and frame = {
  xi : int array; (* i32 slots, sign-extended native ints *)
  xl : int64 array;
  xf : float array; (* f32/f64 slots *)
  inst : finstance;
}

and finstance = {
  fmod : cmodule;
  ffuncs : ffuncinst array;
  fmemories : Memory.t array;
  ftables : ffuncinst option array array;
  fglobals : fglobal array;
  mutable fexports : (string * fextern) list;
}

and fextern =
  | FFunc of ffuncinst
  | FMemory of Memory.t
  | FGlobal of fglobal
  | FTable of ffuncinst option array

let type_of_ffuncinst = function FWasm f -> f.fftype | FHost h -> h.fhtype

let empty_int : int array = [||]
let empty_i64 : int64 array = [||]
let empty_float : float array = [||]

let make_frame inst (b : cbody) =
  let n = b.cb_nslots in
  {
    xi = (if n = 0 then empty_int else Array.make n 0);
    xl = (if n = 0 then empty_i64 else Array.make n 0L);
    xf = (if n = 0 then empty_float else Array.make n 0.0);
    inst;
  }

(* Boxing boundaries (host calls, invoke API). *)
let read_slot fr t h =
  match t with
  | I32 -> VI32 (Int32.of_int fr.xi.(h))
  | I64 -> VI64 fr.xl.(h)
  | F32 -> VF32 fr.xf.(h)
  | F64 -> VF64 fr.xf.(h)

let write_slot fr t h v =
  match (t, v) with
  | I32, VI32 x -> fr.xi.(h) <- Int32.to_int x
  | I64, VI64 x -> fr.xl.(h) <- x
  | F32, VF32 x -> fr.xf.(h) <- x
  | F64, VF64 x -> fr.xf.(h) <- x
  | (I32 | I64 | F32 | F64), _ -> raise (Trap "host function returned wrong type")

let check_addr data addr width =
  if addr < 0 || addr + width > Bytes.length data then raise (Trap "out of bounds memory access")

(* Unaligned native-endian word access without the stdlib's redundant
   bounds check ([check_addr] already ran); converted to Wasm's
   little-endian layout. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

(* ------------------------------------------------------------------ *)
(* Flattening (compilation) *)

(* Growable op buffer. *)
type buf = { mutable arr : op array; mutable len : int }

type cframe = {
  fr_entry : int; (* stack height at label entry *)
  fr_label_types : valtype list; (* what a branch to this label carries *)
  fr_is_loop : bool;
  fr_start : int; (* loop header pc; meaningful when fr_is_loop *)
  mutable fr_pending : edge list; (* forward edges to patch at label end *)
}

type cctx = {
  ctypes : functype array;
  cfunc_types : functype array;
  cglobals_t : globaltype array;
  clocals : valtype array;
  cnloc : int; (* locals count = offset of stack slot 0 in the register file *)
  mutable cstack : valtype array; (* compile-time type stack: [cheight] live entries *)
  mutable cheight : int;
  mutable cmax : int;
  mutable cframes : cframe list; (* innermost first *)
  cbuf : buf;
  cmarks : (int, unit) Hashtbl.t; (* branch-target positions: fusion barriers *)
  cfuel : bool; (* emit OFuel at function entry and loop headers *)
}

let emit ctx o =
  let b = ctx.cbuf in
  if b.len = Array.length b.arr then begin
    let bigger = Array.make (2 * Array.length b.arr) OHalt in
    Array.blit b.arr 0 bigger 0 b.len;
    b.arr <- bigger
  end;
  b.arr.(b.len) <- o;
  b.len <- b.len + 1

let here ctx = ctx.cbuf.len

(* Record that the current position is (or will become) a branch
   target, so the peephole below never folds an op across it. *)
let mark_here ctx = Hashtbl.replace ctx.cmarks (here ctx) ()

let negate_irelop = function
  | Eq -> Ne
  | Ne -> Eq
  | LtS -> GeS
  | LtU -> GeU
  | GtS -> LeS
  | GtU -> LeU
  | LeS -> GtS
  | LeU -> GtU
  | GeS -> LtS
  | GeU -> LtU

let ibinop_of_spec = function
  | OAdd32 _ -> Add
  | OSub32 _ -> Sub
  | OMul32 _ -> Mul
  | OAnd32 _ -> And
  | OOr32 _ -> Or
  | OXor32 _ -> Xor
  | OShl32 _ -> Shl
  | OShrS32 _ -> ShrS
  | OShrU32 _ -> ShrU
  | _ -> assert false

let commutes = function Add | Mul | And | Or | Xor -> true | _ -> false

(* Try to fold the trailing op [tail] into the op about to be emitted.
   Sound because of stack discipline: when [pending] consumes the slot
   [tail] just produced, that slot is dead afterwards, and folds only
   fire when [tail]'s destination is exactly the natural operand slot
   (a stack position >= cnloc), never a local carrying a live value.
   Returns the combined op, or None to emit [pending] as-is. *)
(* Shift count when [op]/[c] is a scaled-address producer: the shift
   amount for [Shl], log2 for a power-of-two [Mul], -1 otherwise. *)
let shift_amount op c =
  match op with
  | Shl -> c land 31
  | Mul when c > 0 && c land (c - 1) = 0 ->
    let rec log2 k v = if v <= 1 then k else log2 (k + 1) (v asr 1) in
    log2 0 c
  | _ -> -1

let absorb ~nloc (pending : op) (tail : op) : op option =
  let stack_slot s = s >= nloc in
  match (pending, tail) with
  (* -- operand folding into 3-address i32 arithmetic ---------------- *)
  | (OAdd32 (d, a, b) | OSub32 (d, a, b) | OMul32 (d, a, b) | OAnd32 (d, a, b)
    | OOr32 (d, a, b) | OXor32 (d, a, b) | OShl32 (d, a, b) | OShrS32 (d, a, b)
    | OShrU32 (d, a, b)), OMovI (t, s)
    when t = b && b = a + 1 -> (
    (* right operand still at its natural push slot: read the move's
       source directly *)
    Some
      (match pending with
      | OAdd32 _ -> OAdd32 (d, a, s)
      | OSub32 _ -> OSub32 (d, a, s)
      | OMul32 _ -> OMul32 (d, a, s)
      | OAnd32 _ -> OAnd32 (d, a, s)
      | OOr32 _ -> OOr32 (d, a, s)
      | OXor32 _ -> OXor32 (d, a, s)
      | OShl32 _ -> OShl32 (d, a, s)
      | OShrS32 _ -> OShrS32 (d, a, s)
      | OShrU32 _ -> OShrU32 (d, a, s)
      | _ -> assert false))
  | (OAdd32 (d, a, b) | OSub32 (d, a, b) | OMul32 (d, a, b) | OAnd32 (d, a, b)
    | OOr32 (d, a, b) | OXor32 (d, a, b) | OShl32 (d, a, b) | OShrS32 (d, a, b)
    | OShrU32 (d, a, b)), OConstI (t, v)
    when t = b && b = a + 1 ->
    Some (OBin3I32 (ibinop_of_spec pending, d, a, v))
  | (OAdd32 (d, a, b) | OSub32 (d, a, b) | OMul32 (d, a, b) | OAnd32 (d, a, b)
    | OOr32 (d, a, b) | OXor32 (d, a, b) | OShl32 (d, a, b) | OShrS32 (d, a, b)
    | OShrU32 (d, a, b)), OMovI (t, s)
    when t = a && a = d && b <> a + 1 -> (
    (* right operand already folded; now fold the left push *)
    Some
      (match pending with
      | OAdd32 _ -> OAdd32 (d, s, b)
      | OSub32 _ -> OSub32 (d, s, b)
      | OMul32 _ -> OMul32 (d, s, b)
      | OAnd32 _ -> OAnd32 (d, s, b)
      | OOr32 _ -> OOr32 (d, s, b)
      | OXor32 _ -> OXor32 (d, s, b)
      | OShl32 _ -> OShl32 (d, s, b)
      | OShrS32 _ -> OShrS32 (d, s, b)
      | OShrU32 _ -> OShrU32 (d, s, b)
      | _ -> assert false))
  | OBin3I32 (op, d, a, imm), OMovI (t, s) when t = a && a = d -> Some (OBin3I32 (op, d, s, imm))
  | (OAdd32 (d, a, b) | OMul32 (d, a, b) | OAnd32 (d, a, b) | OOr32 (d, a, b)
    | OXor32 (d, a, b)), OConstI (t, v)
    when t = a && a = d && b <> a + 1 && commutes (ibinop_of_spec pending) ->
    (* constant pushed first on a commutative op: swap operands *)
    Some (OBin3I32 (ibinop_of_spec pending, d, b, v))
  (* -- operand folding into i32 comparisons ------------------------- *)
  | OIRel32 (op, d, a, b), OMovI (t, s) when t = b && b = a + 1 -> Some (OIRel32 (op, d, a, s))
  | OIRel32 (op, d, a, b), OConstI (t, v) when t = b && b = a + 1 ->
    Some (OIRelI32 (op, d, a, v))
  | OIRel32 (op, d, a, b), OMovI (t, s) when t = a && a = d && b <> a + 1 ->
    Some (OIRel32 (op, d, s, b))
  | OIRelI32 (op, d, a, imm), OMovI (t, s) when t = a && a = d -> Some (OIRelI32 (op, d, s, imm))
  (* -- operand folding into f64 arithmetic -------------------------- *)
  | (OFAdd64 (d, a, b) | OFSub64 (d, a, b) | OFMul64 (d, a, b) | OFDiv64 (d, a, b)),
    OMovF (t, s)
    when t = b && b = a + 1 -> (
    Some
      (match pending with
      | OFAdd64 _ -> OFAdd64 (d, a, s)
      | OFSub64 _ -> OFSub64 (d, a, s)
      | OFMul64 _ -> OFMul64 (d, a, s)
      | OFDiv64 _ -> OFDiv64 (d, a, s)
      | _ -> assert false))
  | (OFAdd64 (d, a, b) | OFSub64 (d, a, b) | OFMul64 (d, a, b) | OFDiv64 (d, a, b)),
    OMovF (t, s)
    when t = a && a = d && b <> a + 1 -> (
    Some
      (match pending with
      | OFAdd64 _ -> OFAdd64 (d, s, b)
      | OFSub64 _ -> OFSub64 (d, s, b)
      | OFMul64 _ -> OFMul64 (d, s, b)
      | OFDiv64 _ -> OFDiv64 (d, s, b)
      | _ -> assert false))
  | (OFAdd64 (d, a, b) | OFSub64 (d, a, b) | OFMul64 (d, a, b) | OFDiv64 (d, a, b)),
    OConstF (t, v)
    when t = b && b = a + 1 -> (
    Some
      (match pending with
      | OFAdd64 _ -> OFImm (Fadd, d, a, v)
      | OFSub64 _ -> OFImm (Fsub, d, a, v)
      | OFMul64 _ -> OFImm (Fmul, d, a, v)
      | OFDiv64 _ -> OFImm (Fdiv, d, a, v)
      | _ -> assert false))
  | (OFAdd64 (d, a, b) | OFMul64 (d, a, b)), OConstF (t, v) when t = a && a = d && b <> a + 1 ->
    (* constant pushed first on a commutative f64 op *)
    Some (OFImm ((match pending with OFAdd64 _ -> Fadd | _ -> Fmul), d, b, v))
  | OFImm (op, d, a, c), OMovF (t, s) when t = a && a = d -> Some (OFImm (op, d, s, c))
  (* -- conversions --------------------------------------------------- *)
  | OCvtIF (d, a), OMovI (t, s) when t = a && a = d -> Some (OCvtIF (d, s))
  | OCvt (op, d, a), OMovI (t, s) when t = a && a = d -> Some (OCvt (op, d, s))
  | OCvt (op, d, a), OMovL (t, s) when t = a && a = d -> Some (OCvt (op, d, s))
  | OCvt (op, d, a), OMovF (t, s) when t = a && a = d -> Some (OCvt (op, d, s))
  (* -- address/value folding into loads and stores ------------------ *)
  | OLoadI32 (off, d, a), OMovI (t, s) when t = a && a = d -> Some (OLoadI32 (off, d, s))
  | OLoadI64 (off, d, a), OMovI (t, s) when t = a && a = d -> Some (OLoadI64 (off, d, s))
  | OLoadF64 (off, d, a), OMovI (t, s) when t = a && a = d -> Some (OLoadF64 (off, d, s))
  | OStoreI32 (off, a, v), OMovI (t, s) when t = v && v = a + 1 -> Some (OStoreI32 (off, a, s))
  | OStoreI64 (off, a, v), OMovL (t, s) when t = v && v = a + 1 -> Some (OStoreI64 (off, a, s))
  | OStoreF64 (off, a, v), OMovF (t, s) when t = v && v = a + 1 -> Some (OStoreF64 (off, a, s))
  | (OStoreI32 (off, a, v) | OStoreI64 (off, a, v) | OStoreF64 (off, a, v)), OMovI (t, s)
    when t = a && v <> a + 1 -> (
    (* value already folded; the trailing op is now the address push *)
    Some
      (match pending with
      | OStoreI32 _ -> OStoreI32 (off, s, v)
      | OStoreI64 _ -> OStoreI64 (off, s, v)
      | OStoreF64 _ -> OStoreF64 (off, s, v)
      | _ -> assert false))
  (* -- scaled-address folding -----------------------------------------
        (x << k) + b  /  (x * 2^k) + b  address chains collapse into a
        single [OScaled]/[OScaledR], which then fuses into the memory op
        itself.  Every rewrite preserves the exact wrap32 arithmetic of
        the unfused chain, so addresses (and traps) are bit-identical:
        wrap32 only depends on the low 32 bits, hence
        wrap32 (wrap32 (x lsl k) + b) = wrap32 ((x lsl k) + b) and
        (x +- c) lsl k has the same low bits as (x lsl k) +- (c lsl k). *)
  | OBin3I32 (Add, d, a, c2), OBin3I32 (((Shl | Mul) as bop), t, x, c)
    when t = a && a = d && stack_slot a && shift_amount bop c >= 0 ->
    Some (OScaled (d, x, shift_amount bop c, wrap32 c2))
  | OBin3I32 (((Shl | Mul) as bop), d, a, c), OBin3I32 (((Add | Sub) as op2), t, x, c2)
    when t = a && a = d && stack_slot a && shift_amount bop c >= 0 ->
    let k = shift_amount bop c in
    Some (OScaled (d, x, k, wrap32 ((match op2 with Sub -> -c2 | _ -> c2) lsl k)))
  | OBin3I32 (Add, d, a, c2), OScaled (t, x, k, b0) when t = a && a = d && stack_slot a ->
    Some (OScaled (d, x, k, wrap32 (b0 + c2)))
  | OAdd32 (d, a, b), OBin3I32 (((Shl | Mul) as bop), t, x, c)
    when t = a && a = d && b <> a && stack_slot a && shift_amount bop c >= 0 ->
    Some (OScaledR (d, x, shift_amount bop c, b))
  | OAdd32 (d, a, b), OBin3I32 (((Shl | Mul) as bop), t, x, c)
    when t = b && b = a + 1 && a <> b && stack_slot b && shift_amount bop c >= 0 ->
    Some (OScaledR (d, x, shift_amount bop c, a))
  | (OLoadI32 (off, d, a) | OLoadI64 (off, d, a) | OLoadF64 (off, d, a)),
    OBin3I32 (((Shl | Mul) as bop), t, x, c)
    when t = a && a = d && stack_slot a && shift_amount bop c >= 0 ->
    let k = shift_amount bop c in
    Some
      (match pending with
      | OLoadI32 _ -> OLoadI32X (off, 0, d, x, k)
      | OLoadI64 _ -> OLoadI64X (off, 0, d, x, k)
      | OLoadF64 _ -> OLoadF64X (off, 0, d, x, k)
      | _ -> assert false)
  | (OLoadI32 (off, d, a) | OLoadI64 (off, d, a) | OLoadF64 (off, d, a)), OScaled (t, x, k, b0)
    when t = a && a = d && stack_slot a ->
    Some
      (match pending with
      | OLoadI32 _ -> OLoadI32X (off, b0, d, x, k)
      | OLoadI64 _ -> OLoadI64X (off, b0, d, x, k)
      | OLoadF64 _ -> OLoadF64X (off, b0, d, x, k)
      | _ -> assert false)
  | (OLoadI32 (off, d, a) | OLoadF64 (off, d, a)), OScaledR (t, x, k, r)
    when t = a && a = d && stack_slot a ->
    Some
      (match pending with
      | OLoadI32 _ -> OLoadI32RX (off, d, x, k, r)
      | OLoadF64 _ -> OLoadF64RX (off, d, x, k, r)
      | _ -> assert false)
  | (OStoreI32 (off, a, v) | OStoreI64 (off, a, v) | OStoreF64 (off, a, v)),
    OBin3I32 (((Shl | Mul) as bop), t, x, c)
    when t = a && v <> a + 1 && stack_slot a && shift_amount bop c >= 0 ->
    let k = shift_amount bop c in
    Some
      (match pending with
      | OStoreI32 _ -> OStoreI32X (off, 0, x, k, v)
      | OStoreI64 _ -> OStoreI64X (off, 0, x, k, v)
      | OStoreF64 _ -> OStoreF64X (off, 0, x, k, v)
      | _ -> assert false)
  | (OStoreI32 (off, a, v) | OStoreI64 (off, a, v) | OStoreF64 (off, a, v)), OScaled (t, x, k, b0)
    when t = a && v <> a + 1 && stack_slot a ->
    Some
      (match pending with
      | OStoreI32 _ -> OStoreI32X (off, b0, x, k, v)
      | OStoreI64 _ -> OStoreI64X (off, b0, x, k, v)
      | OStoreF64 _ -> OStoreF64X (off, b0, x, k, v)
      | _ -> assert false)
  | (OStoreI32 (off, a, v) | OStoreF64 (off, a, v)), OScaledR (t, x, k, r)
    when t = a && v <> a + 1 && stack_slot a ->
    Some
      (match pending with
      | OStoreI32 _ -> OStoreI32RX (off, x, k, r, v)
      | OStoreF64 _ -> OStoreF64RX (off, x, k, r, v)
      | _ -> assert false)
  (* -- compare-and-branch fusion ------------------------------------
        Guard: only fold a producer away when its destination [c] is a
        dead stack slot. After local.set retargeting the producer's
        destination can be a *local* (e.g. relop; local.set z;
        local.get z; br_if folds down to OBrIf(z) with the retargeted
        OIRel32 writing z as the trailing op) — folding that producer
        into the branch would delete a live local store. *)
  | OBrIf (c, e), OIRel32 (op, t, a, b) when t = c && stack_slot c ->
    Some (OBrCmpR32 (op, a, b, e))
  | OBrIf (c, e), OIRelI32 (op, t, a, imm) when t = c && stack_slot c ->
    Some (OBrCmpI32 (op, a, imm, e))
  | OBrIfNot (c, e), OIRel32 (op, t, a, b) when t = c && stack_slot c ->
    Some (OBrCmpR32 (negate_irelop op, a, b, e))
  | OBrIfNot (c, e), OIRelI32 (op, t, a, imm) when t = c && stack_slot c ->
    Some (OBrCmpI32 (negate_irelop op, a, imm, e))
  | OBrIf (c, e), OTestI t when t = c && stack_slot c -> Some (OBrIfNot (c, e))
  | OBrIfNot (c, e), OTestI t when t = c && stack_slot c -> Some (OBrIf (c, e))
  | OBrIf (c, e), OMovI (t, s) when t = c && stack_slot c -> Some (OBrIf (s, e))
  | OBrIfNot (c, e), OMovI (t, s) when t = c && stack_slot c -> Some (OBrIfNot (s, e))
  (* -- local.set retargeting: rewrite the producer's destination ----- *)
  | OMovI (z, s), OConstI (t, v) when t = s && stack_slot s -> Some (OConstI (z, v))
  | OMovI (z, s), OMovI (t, x) when t = s && stack_slot s -> Some (OMovI (z, x))
  | OMovI (z, s), OAdd32 (t, a, b) when t = s && stack_slot s -> Some (OAdd32 (z, a, b))
  | OMovI (z, s), OSub32 (t, a, b) when t = s && stack_slot s -> Some (OSub32 (z, a, b))
  | OMovI (z, s), OMul32 (t, a, b) when t = s && stack_slot s -> Some (OMul32 (z, a, b))
  | OMovI (z, s), OAnd32 (t, a, b) when t = s && stack_slot s -> Some (OAnd32 (z, a, b))
  | OMovI (z, s), OOr32 (t, a, b) when t = s && stack_slot s -> Some (OOr32 (z, a, b))
  | OMovI (z, s), OXor32 (t, a, b) when t = s && stack_slot s -> Some (OXor32 (z, a, b))
  | OMovI (z, s), OShl32 (t, a, b) when t = s && stack_slot s -> Some (OShl32 (z, a, b))
  | OMovI (z, s), OShrS32 (t, a, b) when t = s && stack_slot s -> Some (OShrS32 (z, a, b))
  | OMovI (z, s), OShrU32 (t, a, b) when t = s && stack_slot s -> Some (OShrU32 (z, a, b))
  | OMovI (z, s), OBin3I32 (op, t, a, imm) when t = s && stack_slot s -> Some (OBin3I32 (op, z, a, imm))
  | OMovI (z, s), OIRel32 (op, t, a, b) when t = s && stack_slot s -> Some (OIRel32 (op, z, a, b))
  | OMovI (z, s), OIRelI32 (op, t, a, imm) when t = s && stack_slot s -> Some (OIRelI32 (op, z, a, imm))
  | OMovI (z, s), OLoadI32 (off, t, a) when t = s && stack_slot s -> Some (OLoadI32 (off, z, a))
  | OMovF (z, s), OConstF (t, v) when t = s && stack_slot s -> Some (OConstF (z, v))
  | OMovF (z, s), OMovF (t, x) when t = s && stack_slot s -> Some (OMovF (z, x))
  | OMovF (z, s), OFAdd64 (t, a, b) when t = s && stack_slot s -> Some (OFAdd64 (z, a, b))
  | OMovF (z, s), OFSub64 (t, a, b) when t = s && stack_slot s -> Some (OFSub64 (z, a, b))
  | OMovF (z, s), OFMul64 (t, a, b) when t = s && stack_slot s -> Some (OFMul64 (z, a, b))
  | OMovF (z, s), OFDiv64 (t, a, b) when t = s && stack_slot s -> Some (OFDiv64 (z, a, b))
  | OMovF (z, s), OLoadF64 (off, t, a) when t = s && stack_slot s -> Some (OLoadF64 (off, z, a))
  | OMovF (z, s), OFImm (op, t, a, c) when t = s && stack_slot s -> Some (OFImm (op, z, a, c))
  | OMovI (z, s), OScaled (t, x, k, b0) when t = s && stack_slot s -> Some (OScaled (z, x, k, b0))
  | OMovI (z, s), OScaledR (t, x, k, r) when t = s && stack_slot s -> Some (OScaledR (z, x, k, r))
  | OMovI (z, s), OLoadI32X (off, b0, t, x, k) when t = s && stack_slot s ->
    Some (OLoadI32X (off, b0, z, x, k))
  | OMovL (z, s), OLoadI64X (off, b0, t, x, k) when t = s && stack_slot s ->
    Some (OLoadI64X (off, b0, z, x, k))
  | OMovF (z, s), OLoadF64X (off, b0, t, x, k) when t = s && stack_slot s ->
    Some (OLoadF64X (off, b0, z, x, k))
  | OMovI (z, s), OLoadI32RX (off, t, x, k, r) when t = s && stack_slot s ->
    Some (OLoadI32RX (off, z, x, k, r))
  | OMovF (z, s), OLoadF64RX (off, t, x, k, r) when t = s && stack_slot s ->
    Some (OLoadF64RX (off, z, x, k, r))
  | OMovF (z, s), OCvtIF (t, a) when t = s && stack_slot s -> Some (OCvtIF (z, a))
  | OMovI (z, s), OCvt (op, t, a) when t = s && stack_slot s -> Some (OCvt (op, z, a))
  | OMovL (z, s), OCvt (op, t, a) when t = s && stack_slot s -> Some (OCvt (op, z, a))
  | OMovF (z, s), OCvt (op, t, a) when t = s && stack_slot s -> Some (OCvt (op, z, a))
  | OMovL (z, s), OConstL (t, v) when t = s && stack_slot s -> Some (OConstL (z, v))
  | OMovL (z, s), OMovL (t, x) when t = s && stack_slot s -> Some (OMovL (z, x))
  | OMovL (z, s), OLoadI64 (off, t, a) when t = s && stack_slot s -> Some (OLoadI64 (off, z, a))
  | _ -> None

(* Emit with fusion: keep absorbing the trailing op while legal. The
   mark check guards relocation — combining into position [len - 1]
   is only sound when no branch lands at [len] (where the new op would
   otherwise have been). *)
let emit_peep ctx o =
  let b = ctx.cbuf in
  let rec go o =
    if b.len > 0 && not (Hashtbl.mem ctx.cmarks b.len) then
      match absorb ~nloc:ctx.cnloc o b.arr.(b.len - 1) with
      | Some o' ->
        b.len <- b.len - 1;
        go o'
      | None -> emit ctx o
    else emit ctx o
  in
  go o

let push_t ctx t =
  if ctx.cheight = Array.length ctx.cstack then begin
    let bigger = Array.make (2 * ctx.cheight) I32 in
    Array.blit ctx.cstack 0 bigger 0 ctx.cheight;
    ctx.cstack <- bigger
  end;
  ctx.cstack.(ctx.cheight) <- t;
  ctx.cheight <- ctx.cheight + 1;
  if ctx.cheight > ctx.cmax then ctx.cmax <- ctx.cheight

let pop_t ctx =
  if ctx.cheight = 0 then
    invalid_arg "Fastinterp: compile-time stack underflow (module not validated?)";
  ctx.cheight <- ctx.cheight - 1;
  ctx.cstack.(ctx.cheight)

let pop_n ctx n = ctx.cheight <- ctx.cheight - n

(* Reset the type stack at a label end: whatever path was taken, the
   stack now holds [ts] at [entry]. *)
let reset_stack ctx entry ts =
  ctx.cheight <- entry;
  List.iter (push_t ctx) ts

let kind_of_valtype = function I32 -> 0 | I64 -> 1 | F32 | F64 -> 2

(* Build the edge for a branch to label [n]. Loop back-edges resolve
   immediately; forward edges register themselves for patching when
   the target label closes. *)
let branch_edge ctx n : edge =
  let frame = List.nth ctx.cframes n in
  let arity = List.length frame.fr_label_types in
  let src = ctx.cnloc + ctx.cheight - arity and dst = ctx.cnloc + frame.fr_entry in
  let moves =
    if src = dst then [||]
    else
      Array.of_list
        (List.mapi
           (fun k t -> { mk = kind_of_valtype t; msrc = src + k; mdst = dst + k })
           frame.fr_label_types)
  in
  if frame.fr_is_loop then { target = frame.fr_start; moves }
  else begin
    let e = { target = -1; moves } in
    frame.fr_pending <- e :: frame.fr_pending;
    e
  end

let lkind_of ty pack =
  match (ty, pack) with
  | I32, None -> LI32
  | I64, None -> LI64
  | F32, None -> LF32
  | F64, None -> LF64
  | I32, Some (P8, SX) -> LI32_8S
  | I32, Some (P8, ZX) -> LI32_8U
  | I32, Some (P16, SX) -> LI32_16S
  | I32, Some (P16, ZX) -> LI32_16U
  | I64, Some (P8, SX) -> LI64_8S
  | I64, Some (P8, ZX) -> LI64_8U
  | I64, Some (P16, SX) -> LI64_16S
  | I64, Some (P16, ZX) -> LI64_16U
  | I64, Some (P32, SX) -> LI64_32S
  | I64, Some (P32, ZX) -> LI64_32U
  | (I32 | F32 | F64), Some (P32, _) | (F32 | F64), Some ((P8 | P16), _) ->
    invalid_arg "Fastinterp: invalid load"

let skind_of ty pack =
  match (ty, pack) with
  | I32, None -> SI32
  | I64, None -> SI64
  | F32, None -> SF32
  | F64, None -> SF64
  | I32, Some P8 -> SI32_8
  | I32, Some P16 -> SI32_16
  | I64, Some P8 -> SI64_8
  | I64, Some P16 -> SI64_16
  | I64, Some P32 -> SI64_32
  | (I32 | F32 | F64), Some P32 | (F32 | F64), Some (P8 | P16) ->
    invalid_arg "Fastinterp: invalid store"

(* Absolute register-file index one past the current stack top. *)
let top ctx = ctx.cnloc + ctx.cheight

(* Flatten one instruction. Returns [false] when the instruction
   diverts control unconditionally: the rest of the sequence is dead
   and must not be flattened. *)
let rec compile_instr (ctx : cctx) (i : instr) : bool =
  match i with
  | Nop -> true
  | Unreachable ->
    emit ctx OUnreachable;
    false
  | Drop ->
    ignore (pop_t ctx);
    true
  | Select ->
    ignore (pop_t ctx);
    let t = pop_t ctx in
    ignore (pop_t ctx);
    push_t ctx t;
    let d = top ctx - 1 in
    emit ctx (match t with I32 -> OSelectI d | I64 -> OSelectL d | F32 | F64 -> OSelectF d);
    true
  | Const v ->
    push_t ctx (type_of_value v);
    let d = top ctx - 1 in
    emit ctx
      (match v with
      | VI32 x -> OConstI (d, Int32.to_int x)
      | VI64 x -> OConstL (d, x)
      | VF32 x | VF64 x -> OConstF (d, x));
    true
  | LocalGet i ->
    let t = ctx.clocals.(i) in
    push_t ctx t;
    let d = top ctx - 1 in
    emit ctx
      (match t with
      | I32 -> OMovI (d, i)
      | I64 -> OMovL (d, i)
      | F32 | F64 -> OMovF (d, i));
    true
  | LocalSet i ->
    let t = pop_t ctx in
    let s = top ctx in
    (* Fusable: the producer of [s] can write the local directly. *)
    emit_peep ctx
      (match t with
      | I32 -> OMovI (i, s)
      | I64 -> OMovL (i, s)
      | F32 | F64 -> OMovF (i, s));
    true
  | LocalTee i ->
    let t = ctx.cstack.(ctx.cheight - 1) in
    let s = top ctx - 1 in
    emit ctx
      (match t with
      | I32 -> OMovI (i, s)
      | I64 -> OMovL (i, s)
      | F32 | F64 -> OMovF (i, s));
    true
  | GlobalGet i ->
    let t = ctx.cglobals_t.(i).content in
    push_t ctx t;
    let d = top ctx - 1 in
    emit ctx
      (match t with
      | I32 -> OGlobalGetI (d, i)
      | I64 -> OGlobalGetL (d, i)
      | F32 | F64 -> OGlobalGetF (d, i));
    true
  | GlobalSet i ->
    let t = pop_t ctx in
    let s = top ctx in
    emit ctx
      (match t with
      | I32 -> OGlobalSetI (i, s)
      | I64 -> OGlobalSetL (i, s)
      | F32 | F64 -> OGlobalSetF (i, s));
    true
  | ITestop ty ->
    ignore (pop_t ctx);
    push_t ctx I32;
    let s = top ctx - 1 in
    emit ctx (match ty with I32 -> OTestI s | I64 -> OTestL s | F32 | F64 -> assert false);
    true
  | IUnop (ty, op) ->
    ignore (pop_t ctx);
    push_t ctx ty;
    let s = top ctx - 1 in
    emit ctx
      (match ty with
      | I32 -> OIUn32 (op, s)
      | I64 -> OIUn64 (op, s)
      | F32 | F64 -> assert false);
    true
  | IBinop (ty, op) ->
    ignore (pop_t ctx);
    ignore (pop_t ctx);
    push_t ctx ty;
    let d = top ctx - 1 in
    emit_peep ctx
      (match ty with
      | I32 -> (
        match op with
        | Add -> OAdd32 (d, d, d + 1)
        | Sub -> OSub32 (d, d, d + 1)
        | Mul -> OMul32 (d, d, d + 1)
        | And -> OAnd32 (d, d, d + 1)
        | Or -> OOr32 (d, d, d + 1)
        | Xor -> OXor32 (d, d, d + 1)
        | Shl -> OShl32 (d, d, d + 1)
        | ShrS -> OShrS32 (d, d, d + 1)
        | ShrU -> OShrU32 (d, d, d + 1)
        | DivS | DivU | RemS | RemU | Rotl | Rotr -> OIBin32 (op, d))
      | I64 -> OIBin64 (op, d)
      | F32 | F64 -> assert false);
    true
  | IRelop (ty, op) ->
    ignore (pop_t ctx);
    ignore (pop_t ctx);
    push_t ctx I32;
    let d = top ctx - 1 in
    emit_peep ctx
      (match ty with
      | I32 -> OIRel32 (op, d, d, d + 1)
      | I64 -> OIRel64 (op, d)
      | F32 | F64 -> assert false);
    true
  | FUnop (ty, op) ->
    ignore (pop_t ctx);
    push_t ctx ty;
    let s = top ctx - 1 in
    emit ctx (OFUn (op, s, (match ty with F32 -> true | _ -> false)));
    true
  | FBinop (ty, op) ->
    ignore (pop_t ctx);
    ignore (pop_t ctx);
    push_t ctx ty;
    let d = top ctx - 1 in
    emit_peep ctx
      (match ty with
      | F32 -> OFBin32 (op, d)
      | F64 -> (
        match op with
        | Fadd -> OFAdd64 (d, d, d + 1)
        | Fsub -> OFSub64 (d, d, d + 1)
        | Fmul -> OFMul64 (d, d, d + 1)
        | Fdiv -> OFDiv64 (d, d, d + 1)
        | Fmin | Fmax | Copysign -> OFBin64 (op, d))
      | I32 | I64 -> assert false);
    true
  | FRelop (_, op) ->
    ignore (pop_t ctx);
    ignore (pop_t ctx);
    push_t ctx I32;
    let d = top ctx - 1 in
    emit ctx (OFRel (op, d));
    true
  | Cvtop op ->
    ignore (pop_t ctx);
    let _, dst = Validate.cvt_types op in
    push_t ctx dst;
    let s = top ctx - 1 in
    emit_peep ctx (match op with F64ConvertI32S -> OCvtIF (s, s) | _ -> OCvt (op, s, s));
    true
  | Load (ty, pack, m) ->
    ignore (pop_t ctx);
    push_t ctx ty;
    let s = top ctx - 1 in
    emit_peep ctx
      (match lkind_of ty pack with
      | LI32 -> OLoadI32 (m.offset, s, s)
      | LI64 -> OLoadI64 (m.offset, s, s)
      | LF64 -> OLoadF64 (m.offset, s, s)
      | k -> OLoad (k, m.offset, s));
    true
  | Store (ty, pack, m) ->
    ignore (pop_t ctx);
    ignore (pop_t ctx);
    let s = top ctx in
    emit_peep ctx
      (match skind_of ty pack with
      | SI32 -> OStoreI32 (m.offset, s, s + 1)
      | SI64 -> OStoreI64 (m.offset, s, s + 1)
      | SF64 -> OStoreF64 (m.offset, s, s + 1)
      | k -> OStore (k, m.offset, s));
    true
  | MemorySize ->
    push_t ctx I32;
    emit ctx (OMemSize (top ctx - 1));
    true
  | MemoryGrow ->
    ignore (pop_t ctx);
    push_t ctx I32;
    emit ctx (OMemGrow (top ctx - 1));
    true
  | Call f ->
    let ft = ctx.cfunc_types.(f) in
    let n = List.length ft.params in
    let args_base = top ctx - n in
    pop_n ctx n;
    List.iter (push_t ctx) ft.results;
    emit ctx (OCall (f, args_base));
    true
  | CallIndirect tidx ->
    let ft = ctx.ctypes.(tidx) in
    ignore (pop_t ctx);
    let idx_slot = top ctx in
    let n = List.length ft.params in
    let args_base = top ctx - n in
    pop_n ctx n;
    List.iter (push_t ctx) ft.results;
    emit ctx (OCallIndirect (tidx, idx_slot, args_base));
    true
  | Block (bt, body) ->
    let ts = match bt with BlockEmpty -> [] | BlockVal t -> [ t ] in
    let entry = ctx.cheight in
    let fr =
      { fr_entry = entry; fr_label_types = ts; fr_is_loop = false; fr_start = 0; fr_pending = [] }
    in
    ctx.cframes <- fr :: ctx.cframes;
    ignore (compile_seq ctx body);
    ctx.cframes <- List.tl ctx.cframes;
    let e = here ctx in
    if fr.fr_pending <> [] then mark_here ctx;
    List.iter (fun edge -> edge.target <- e) fr.fr_pending;
    reset_stack ctx entry ts;
    true
  | Loop (bt, body) ->
    let ts = match bt with BlockEmpty -> [] | BlockVal t -> [ t ] in
    let entry = ctx.cheight in
    mark_here ctx;
    (* Under fuel, the header op sits at [fr_start]: charged on fall-in
       and by every back edge, i.e. once per iteration — the same
       charging points as the tree-walker's [iterate]. *)
    let start = here ctx in
    if ctx.cfuel then emit ctx OFuel;
    let fr =
      {
        fr_entry = entry;
        fr_label_types = [];
        fr_is_loop = true;
        fr_start = start;
        fr_pending = [];
      }
    in
    ctx.cframes <- fr :: ctx.cframes;
    ignore (compile_seq ctx body);
    ctx.cframes <- List.tl ctx.cframes;
    reset_stack ctx entry ts;
    true
  | If (bt, then_, else_) ->
    let ts = match bt with BlockEmpty -> [] | BlockVal t -> [ t ] in
    ignore (pop_t ctx);
    let cond_slot = ctx.cnloc + ctx.cheight in
    let entry = ctx.cheight in
    let fr =
      { fr_entry = entry; fr_label_types = ts; fr_is_loop = false; fr_start = 0; fr_pending = [] }
    in
    ctx.cframes <- fr :: ctx.cframes;
    let else_edge = { target = -1; moves = [||] } in
    emit_peep ctx (OBrIfNot (cond_slot, else_edge));
    let then_falls = compile_seq ctx then_ in
    (* At the natural end of the then-arm the values already sit at
       [entry..]; skipping the else-arm needs no moves. *)
    if then_falls then begin
      let e = { target = -1; moves = [||] } in
      emit ctx (OJmp e);
      fr.fr_pending <- e :: fr.fr_pending
    end;
    mark_here ctx;
    else_edge.target <- here ctx;
    (* Validated code never pops below a label's entry height, so the
       types under [entry] are as the then-arm found them. *)
    ctx.cheight <- entry;
    ignore (compile_seq ctx else_);
    ctx.cframes <- List.tl ctx.cframes;
    let e = here ctx in
    if fr.fr_pending <> [] then mark_here ctx;
    List.iter (fun edge -> edge.target <- e) fr.fr_pending;
    reset_stack ctx entry ts;
    true
  | Br n ->
    emit ctx (OJmp (branch_edge ctx n));
    false
  | BrIf n ->
    ignore (pop_t ctx);
    let cond_slot = ctx.cnloc + ctx.cheight in
    emit_peep ctx (OBrIf (cond_slot, branch_edge ctx n));
    true
  | BrTable (targets, default) ->
    ignore (pop_t ctx);
    let cond_slot = ctx.cnloc + ctx.cheight in
    let edges = Array.of_list (List.map (fun tgt -> branch_edge ctx tgt) targets) in
    let dedge = branch_edge ctx default in
    emit ctx (OBrTable (cond_slot, edges, dedge));
    false
  | Return ->
    emit ctx (OJmp (branch_edge ctx (List.length ctx.cframes - 1)));
    false

and compile_seq ctx (body : instr list) : bool =
  match body with
  | [] -> true
  | i :: rest -> if compile_instr ctx i then compile_seq ctx rest else false

let compile_func ~fuel ctypes cfunc_types cglobals_t (f : func) (ft : functype) : cbody =
  let local_types = Array.of_list (ft.params @ f.locals) in
  let fn_frame =
    {
      fr_entry = 0;
      fr_label_types = ft.results;
      fr_is_loop = false;
      fr_start = 0;
      fr_pending = [];
    }
  in
  let nloc = Array.length local_types in
  let ctx =
    {
      ctypes;
      cfunc_types;
      cglobals_t;
      clocals = local_types;
      cnloc = nloc;
      cstack = Array.make 16 I32;
      cheight = 0;
      cmax = List.length ft.results;
      cframes = [ fn_frame ];
      cbuf = { arr = Array.make 32 OHalt; len = 0 };
      cmarks = Hashtbl.create 16;
      cfuel = fuel;
    }
  in
  if fuel then emit ctx OFuel (* function entry *);
  ignore (compile_seq ctx f.body);
  (* Returns and branches to the function label land on the trailing
     OHalt with the results already moved to stack slots 0..arity-1
     (register-file indices nloc..); natural fall-through leaves them
     there by construction. *)
  let e = here ctx in
  if fn_frame.fr_pending <> [] then mark_here ctx;
  List.iter (fun edge -> edge.target <- e) fn_frame.fr_pending;
  emit ctx OHalt;
  {
    cb_code = Array.sub ctx.cbuf.arr 0 ctx.cbuf.len;
    cb_nslots = nloc + ctx.cmax;
    cb_nloc = nloc;
    cb_param_types = Array.of_list ft.params;
    cb_result_types = Array.of_list ft.results;
  }

(** Flatten a {e validated} module. The result is instance-free and
    reusable: instantiate it any number of times. With [~fuel], the
    flattened code
    charges {!Instance.Fuel} once per function entry and per loop
    iteration — for running untrusted modules under a budget; never
    enable it for cmodules that go into a measurement-keyed cache, or
    metered and unmetered users would share one compiled form. *)
let compile ?(fuel = false) (m : module_) : cmodule =
  let cm_types = Array.of_list m.types in
  let imp_ftypes = List.map (fun t -> cm_types.(t)) (imported_funcs m) in
  let own_ftypes = List.map (fun (f : func) -> cm_types.(f.ftype)) m.funcs in
  let cm_func_types = Array.of_list (imp_ftypes @ own_ftypes) in
  let cglobals_t =
    Array.of_list (imported_globals m @ List.map (fun (g : global) -> g.gtype) m.globals)
  in
  let cm_bodies =
    Array.of_list
      (List.map
         (fun (f : func) -> compile_func ~fuel cm_types cm_func_types cglobals_t f cm_types.(f.ftype))
         m.funcs)
  in
  { cm_module = m; cm_types; cm_func_types; cm_bodies; cm_n_imported = List.length imp_ftypes }

(* ------------------------------------------------------------------ *)
(* Execution *)

let apply_moves fr (ms : mv array) =
  for k = 0 to Array.length ms - 1 do
    let m = Array.unsafe_get ms k in
    if m.mk = 0 then fr.xi.(m.mdst) <- fr.xi.(m.msrc)
    else if m.mk = 1 then fr.xl.(m.mdst) <- fr.xl.(m.msrc)
    else fr.xf.(m.mdst) <- fr.xf.(m.msrc)
  done

let exec_iun32 ri op s =
  match op with
  | Clz -> ri.(s) <- Int32.to_int (Numerics.I32_ops.clz (Int32.of_int ri.(s)))
  | Ctz -> ri.(s) <- Int32.to_int (Numerics.I32_ops.ctz (Int32.of_int ri.(s)))
  | Popcnt -> ri.(s) <- Int32.to_int (Numerics.I32_ops.popcnt (Int32.of_int ri.(s)))

let exec_iun64 rl op s =
  match op with
  | Clz -> rl.(s) <- Numerics.I64_ops.clz rl.(s)
  | Ctz -> rl.(s) <- Numerics.I64_ops.ctz rl.(s)
  | Popcnt -> rl.(s) <- Numerics.I64_ops.popcnt rl.(s)

let exec_ibin32 (ri : int array) op d =
  match op with
  | Add -> ri.(d) <- wrap32 (ri.(d) + ri.(d + 1))
  | Sub -> ri.(d) <- wrap32 (ri.(d) - ri.(d + 1))
  | Mul -> ri.(d) <- wrap32 (ri.(d) * ri.(d + 1))
  | DivS ->
    let a = ri.(d) and b = ri.(d + 1) in
    if b = 0 then raise (Trap "integer divide by zero")
    else if a = -0x80000000 && b = -1 then raise (Trap "integer overflow")
    else ri.(d) <- a / b
  | DivU ->
    let b = u32 ri.(d + 1) in
    if b = 0 then raise (Trap "integer divide by zero") else ri.(d) <- wrap32 (u32 ri.(d) / b)
  | RemS ->
    let a = ri.(d) and b = ri.(d + 1) in
    if b = 0 then raise (Trap "integer divide by zero")
    else if a = -0x80000000 && b = -1 then ri.(d) <- 0
    else ri.(d) <- a mod b
  | RemU ->
    let b = u32 ri.(d + 1) in
    if b = 0 then raise (Trap "integer divide by zero") else ri.(d) <- wrap32 (u32 ri.(d) mod b)
  | And -> ri.(d) <- ri.(d) land ri.(d + 1)
  | Or -> ri.(d) <- ri.(d) lor ri.(d + 1)
  | Xor -> ri.(d) <- ri.(d) lxor ri.(d + 1)
  | Shl -> ri.(d) <- wrap32 (ri.(d) lsl (ri.(d + 1) land 31))
  | ShrS -> ri.(d) <- ri.(d) asr (ri.(d + 1) land 31)
  | ShrU -> ri.(d) <- wrap32 (u32 ri.(d) lsr (ri.(d + 1) land 31))
  | Rotl ->
    let n = ri.(d + 1) land 31 in
    let x = u32 ri.(d) in
    ri.(d) <- (if n = 0 then wrap32 x else wrap32 ((x lsl n) lor (x lsr (32 - n))))
  | Rotr ->
    let n = ri.(d + 1) land 31 in
    let x = u32 ri.(d) in
    ri.(d) <- (if n = 0 then wrap32 x else wrap32 ((x lsr n) lor (x lsl (32 - n))))

let exec_ibin64 (rl : int64 array) op d =
  let open Numerics.I64_ops in
  match op with
  | Add -> rl.(d) <- Int64.add rl.(d) rl.(d + 1)
  | Sub -> rl.(d) <- Int64.sub rl.(d) rl.(d + 1)
  | Mul -> rl.(d) <- Int64.mul rl.(d) rl.(d + 1)
  | DivS -> rl.(d) <- div_s rl.(d) rl.(d + 1)
  | DivU -> rl.(d) <- div_u rl.(d) rl.(d + 1)
  | RemS -> rl.(d) <- rem_s rl.(d) rl.(d + 1)
  | RemU -> rl.(d) <- rem_u rl.(d) rl.(d + 1)
  | And -> rl.(d) <- Int64.logand rl.(d) rl.(d + 1)
  | Or -> rl.(d) <- Int64.logor rl.(d) rl.(d + 1)
  | Xor -> rl.(d) <- Int64.logxor rl.(d) rl.(d + 1)
  | Shl -> rl.(d) <- shl rl.(d) rl.(d + 1)
  | ShrS -> rl.(d) <- shr_s rl.(d) rl.(d + 1)
  | ShrU -> rl.(d) <- shr_u rl.(d) rl.(d + 1)
  | Rotl -> rl.(d) <- rotl rl.(d) rl.(d + 1)
  | Rotr -> rl.(d) <- rotr rl.(d) rl.(d + 1)

let exec_irel64 (ri : int array) (rl : int64 array) op d =
  let open Numerics.I64_ops in
  match op with
  | Eq -> ri.(d) <- (if Int64.equal rl.(d) rl.(d + 1) then 1 else 0)
  | Ne -> ri.(d) <- (if Int64.equal rl.(d) rl.(d + 1) then 0 else 1)
  | LtS -> ri.(d) <- (if Int64.compare rl.(d) rl.(d + 1) < 0 then 1 else 0)
  | LtU -> ri.(d) <- (if lt_u rl.(d) rl.(d + 1) then 1 else 0)
  | GtS -> ri.(d) <- (if Int64.compare rl.(d) rl.(d + 1) > 0 then 1 else 0)
  | GtU -> ri.(d) <- (if gt_u rl.(d) rl.(d + 1) then 1 else 0)
  | LeS -> ri.(d) <- (if Int64.compare rl.(d) rl.(d + 1) <= 0 then 1 else 0)
  | LeU -> ri.(d) <- (if le_u rl.(d) rl.(d + 1) then 1 else 0)
  | GeS -> ri.(d) <- (if Int64.compare rl.(d) rl.(d + 1) >= 0 then 1 else 0)
  | GeU -> ri.(d) <- (if ge_u rl.(d) rl.(d + 1) then 1 else 0)

let exec_fun_ (rf : float array) op s f32res =
  let f =
    match op with
    | Abs -> Float.abs
    | Neg -> fun x -> -.x
    | Ceil -> Float.ceil
    | Floor -> Float.floor
    | Trunc -> Float.trunc
    | Nearest -> Numerics.f_nearest
    | Sqrt -> Float.sqrt
  in
  rf.(s) <- (if f32res then Numerics.to_f32 (f rf.(s)) else f rf.(s))

let exec_fbin32 (rf : float array) op d =
  let apply : float -> float -> float =
    match op with
    | Fadd -> ( +. )
    | Fsub -> ( -. )
    | Fmul -> ( *. )
    | Fdiv -> ( /. )
    | Fmin -> Numerics.f_min
    | Fmax -> Numerics.f_max
    | Copysign -> Float.copy_sign
  in
  rf.(d) <- Numerics.to_f32 (apply rf.(d) rf.(d + 1))

let exec_fbin64 (rf : float array) op d =
  match op with
  | Fadd -> rf.(d) <- rf.(d) +. rf.(d + 1)
  | Fsub -> rf.(d) <- rf.(d) -. rf.(d + 1)
  | Fmul -> rf.(d) <- rf.(d) *. rf.(d + 1)
  | Fdiv -> rf.(d) <- rf.(d) /. rf.(d + 1)
  | Fmin -> rf.(d) <- Numerics.f_min rf.(d) (rf.(d + 1))
  | Fmax -> rf.(d) <- Numerics.f_max rf.(d) (rf.(d + 1))
  | Copysign -> rf.(d) <- Float.copy_sign rf.(d) (rf.(d + 1))

let exec_cvt fr op d s =
  let open Numerics in
  match op with
  | I32WrapI64 -> fr.xi.(d) <- wrap32 (Int64.to_int fr.xl.(s))
  | I32TruncF32S | I32TruncF64S -> fr.xi.(d) <- Int32.to_int (trunc_to_i32_s fr.xf.(s))
  | I32TruncF32U | I32TruncF64U -> fr.xi.(d) <- Int32.to_int (trunc_to_i32_u fr.xf.(s))
  | I64ExtendI32S -> fr.xl.(d) <- Int64.of_int fr.xi.(s)
  | I64ExtendI32U -> fr.xl.(d) <- Int64.of_int (u32 fr.xi.(s))
  | I64TruncF32S | I64TruncF64S -> fr.xl.(d) <- trunc_to_i64_s fr.xf.(s)
  | I64TruncF32U | I64TruncF64U -> fr.xl.(d) <- trunc_to_i64_u fr.xf.(s)
  | F32ConvertI32S -> fr.xf.(d) <- to_f32 (float_of_int fr.xi.(s))
  | F32ConvertI32U -> fr.xf.(d) <- to_f32 (float_of_int (u32 fr.xi.(s)))
  | F32ConvertI64S -> fr.xf.(d) <- to_f32 (Int64.to_float fr.xl.(s))
  | F32ConvertI64U -> fr.xf.(d) <- to_f32 (u64_to_float fr.xl.(s))
  | F32DemoteF64 -> fr.xf.(d) <- to_f32 fr.xf.(s)
  | F64ConvertI32S -> fr.xf.(d) <- float_of_int fr.xi.(s)
  | F64ConvertI32U -> fr.xf.(d) <- float_of_int (u32 fr.xi.(s))
  | F64ConvertI64S -> fr.xf.(d) <- Int64.to_float fr.xl.(s)
  | F64ConvertI64U -> fr.xf.(d) <- u64_to_float fr.xl.(s)
  | F64PromoteF32 -> fr.xf.(d) <- fr.xf.(s)
  | I32ReinterpretF32 -> fr.xi.(d) <- Int32.to_int (Int32.bits_of_float fr.xf.(s))
  | I64ReinterpretF64 -> fr.xl.(d) <- Int64.bits_of_float fr.xf.(s)
  | F32ReinterpretI32 -> fr.xf.(d) <- Int32.float_of_bits (Int32.of_int fr.xi.(s))
  | F64ReinterpretI64 -> fr.xf.(d) <- Int64.float_of_bits fr.xl.(s)

(* Generic (cold) load/store path: sub-width and f32 flavours. The
   32/64-bit flavours have dedicated ops inlined in the dispatch loop
   but are kept here for completeness. *)
let exec_load fr kind off s =
  let m = fr.inst.fmemories.(0) in
  let data = m.Memory.data in
  let a = u32 fr.xi.(s) + off in
  match kind with
  | LI32 ->
    check_addr data a 4;
    fr.xi.(s) <- Int32.to_int (Bytes.get_int32_le data a)
  | LI64 ->
    check_addr data a 8;
    fr.xl.(s) <- Bytes.get_int64_le data a
  | LF32 ->
    check_addr data a 4;
    fr.xf.(s) <- Int32.float_of_bits (Bytes.get_int32_le data a)
  | LF64 ->
    check_addr data a 8;
    fr.xf.(s) <- Int64.float_of_bits (Bytes.get_int64_le data a)
  | LI32_8S ->
    check_addr data a 1;
    fr.xi.(s) <- Bytes.get_int8 data a
  | LI32_8U ->
    check_addr data a 1;
    fr.xi.(s) <- Bytes.get_uint8 data a
  | LI32_16S ->
    check_addr data a 2;
    fr.xi.(s) <- Bytes.get_int16_le data a
  | LI32_16U ->
    check_addr data a 2;
    fr.xi.(s) <- Bytes.get_uint16_le data a
  | LI64_8S ->
    check_addr data a 1;
    fr.xl.(s) <- Int64.of_int (Bytes.get_int8 data a)
  | LI64_8U ->
    check_addr data a 1;
    fr.xl.(s) <- Int64.of_int (Bytes.get_uint8 data a)
  | LI64_16S ->
    check_addr data a 2;
    fr.xl.(s) <- Int64.of_int (Bytes.get_int16_le data a)
  | LI64_16U ->
    check_addr data a 2;
    fr.xl.(s) <- Int64.of_int (Bytes.get_uint16_le data a)
  | LI64_32S ->
    check_addr data a 4;
    fr.xl.(s) <- Int64.of_int32 (Bytes.get_int32_le data a)
  | LI64_32U ->
    check_addr data a 4;
    fr.xl.(s) <- Int64.logand (Int64.of_int32 (Bytes.get_int32_le data a)) 0xffffffffL

let exec_store fr kind off s =
  let m = fr.inst.fmemories.(0) in
  let data = m.Memory.data in
  let a = u32 fr.xi.(s) + off in
  match kind with
  | SI32 ->
    check_addr data a 4;
    Bytes.set_int32_le data a (Int32.of_int fr.xi.(s + 1))
  | SI64 ->
    check_addr data a 8;
    Bytes.set_int64_le data a fr.xl.(s + 1)
  | SF32 ->
    check_addr data a 4;
    Bytes.set_int32_le data a (Int32.bits_of_float fr.xf.(s + 1))
  | SF64 ->
    check_addr data a 8;
    Bytes.set_int64_le data a (Int64.bits_of_float fr.xf.(s + 1))
  | SI32_8 ->
    check_addr data a 1;
    Bytes.set_uint8 data a (fr.xi.(s + 1) land 0xff)
  | SI32_16 ->
    check_addr data a 2;
    Bytes.set_uint16_le data a (fr.xi.(s + 1) land 0xffff)
  | SI64_8 ->
    check_addr data a 1;
    Bytes.set_uint8 data a (Int64.to_int fr.xl.(s + 1) land 0xff)
  | SI64_16 ->
    check_addr data a 2;
    Bytes.set_uint16_le data a (Int64.to_int fr.xl.(s + 1) land 0xffff)
  | SI64_32 ->
    check_addr data a 4;
    Bytes.set_int32_le data a (Int64.to_int32 fr.xl.(s + 1))

(* The dispatch loop: fetch, match, continue at [pc + 1] or at the
   precomputed edge target. A tail-recursive inner loop keeps the
   program counter in a register (no ref cell), the register files are
   hoisted out of the frame, and slot accesses are unchecked — indices
   are static stack heights guaranteed in-range by validation. The hot
   arms (i32 index arithmetic, f64 arithmetic, comparisons, word-sized
   loads/stores) are resolved by this single match; cold arms call the
   generic helpers above. *)
let oob () = raise (Trap "out of bounds memory access")

let mem0_data inst =
  if Array.length inst.fmemories = 0 then Bytes.empty
  else (Array.unsafe_get inst.fmemories 0).Memory.data

let rec dispatch (fr : frame) (xi : int array) (xl : int64 array) (xf : float array)
    (inst : finstance) (code : op array) (data : Bytes.t) (pc : int) : unit =
  match Array.unsafe_get code pc with
    | OHalt -> ()
    | OUnreachable -> raise (Trap "unreachable executed")
    | OFuel ->
      Fuel.consume ();
      dispatch fr xi xl xf inst code data (pc + 1)
    | OJmp e ->
      if Array.length e.moves <> 0 then apply_moves fr e.moves;
      dispatch fr xi xl xf inst code data e.target
    | OBrIf (s, e) ->
      if Array.unsafe_get xi s <> 0 then begin
        if Array.length e.moves <> 0 then apply_moves fr e.moves;
        dispatch fr xi xl xf inst code data e.target
      end
      else dispatch fr xi xl xf inst code data (pc + 1)
    | OBrIfNot (s, e) ->
      if Array.unsafe_get xi s = 0 then begin
        if Array.length e.moves <> 0 then apply_moves fr e.moves;
        dispatch fr xi xl xf inst code data e.target
      end
      else dispatch fr xi xl xf inst code data (pc + 1)
    | OBrTable (s, edges, dedge) ->
      let i = u32 (Array.unsafe_get xi s) in
      let e = if i < Array.length edges then edges.(i) else dedge in
      if Array.length e.moves <> 0 then apply_moves fr e.moves;
      dispatch fr xi xl xf inst code data e.target
    | OCall (fidx, base) ->
      call_func fr (Array.unsafe_get inst.ffuncs fidx) base;
      (* the callee may have grown memory: refetch the bytes *)
      dispatch fr xi xl xf inst code (mem0_data inst) (pc + 1)
    | OCallIndirect (tidx, s, base) ->
      let table = inst.ftables.(0) in
      let i = u32 (Array.unsafe_get xi s) in
      if i >= Array.length table then raise (Trap "undefined element");
      (match table.(i) with
      | None -> raise (Trap "uninitialized element")
      | Some callee ->
        if not (functype_equal (type_of_ffuncinst callee) inst.fmod.cm_types.(tidx)) then
          raise (Trap "indirect call type mismatch");
        call_func fr callee base);
      dispatch fr xi xl xf inst code (mem0_data inst) (pc + 1)
    | OConstI (d, v) ->
      Array.unsafe_set xi d v;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OConstL (d, v) ->
      Array.unsafe_set xl d v;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OConstF (d, v) ->
      Array.unsafe_set xf d v;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OMovI (d, s) ->
      Array.unsafe_set xi d (Array.unsafe_get xi s);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OMovL (d, s) ->
      Array.unsafe_set xl d (Array.unsafe_get xl s);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OMovF (d, s) ->
      Array.unsafe_set xf d (Array.unsafe_get xf s);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OGlobalGetI (d, i) ->
      (match inst.fglobals.(i).fgvalue with
      | VI32 x -> Array.unsafe_set xi d (Int32.to_int x)
      | VI64 _ | VF32 _ | VF64 _ -> raise (Trap "global type confusion"));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OGlobalGetL (d, i) ->
      (match inst.fglobals.(i).fgvalue with
      | VI64 x -> Array.unsafe_set xl d x
      | VI32 _ | VF32 _ | VF64 _ -> raise (Trap "global type confusion"));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OGlobalGetF (d, i) ->
      (match inst.fglobals.(i).fgvalue with
      | VF32 x | VF64 x -> Array.unsafe_set xf d x
      | VI32 _ | VI64 _ -> raise (Trap "global type confusion"));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OGlobalSetI (i, s) ->
      inst.fglobals.(i).fgvalue <- VI32 (Int32.of_int (Array.unsafe_get xi s));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OGlobalSetL (i, s) ->
      inst.fglobals.(i).fgvalue <- VI64 (Array.unsafe_get xl s);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OGlobalSetF (i, s) ->
      (let g = inst.fglobals.(i) in
       g.fgvalue <-
         (match g.fgty.content with
         | F32 -> VF32 (Array.unsafe_get xf s)
         | _ -> VF64 (Array.unsafe_get xf s)));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OSelectI d ->
      if Array.unsafe_get xi (d + 2) = 0 then
        Array.unsafe_set xi d (Array.unsafe_get xi (d + 1));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OSelectL d ->
      if Array.unsafe_get xi (d + 2) = 0 then
        Array.unsafe_set xl d (Array.unsafe_get xl (d + 1));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OSelectF d ->
      if Array.unsafe_get xi (d + 2) = 0 then
        Array.unsafe_set xf d (Array.unsafe_get xf (d + 1));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OTestI s ->
      Array.unsafe_set xi s (if Array.unsafe_get xi s = 0 then 1 else 0);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OTestL s ->
      Array.unsafe_set xi s (if Int64.equal (Array.unsafe_get xl s) 0L then 1 else 0);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OIUn32 (op, s) ->
      exec_iun32 xi op s;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OIUn64 (op, s) ->
      exec_iun64 xl op s;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OAdd32 (d, a, b) ->
      Array.unsafe_set xi d (wrap32 (Array.unsafe_get xi a + Array.unsafe_get xi b));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OSub32 (d, a, b) ->
      Array.unsafe_set xi d (wrap32 (Array.unsafe_get xi a - Array.unsafe_get xi b));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OMul32 (d, a, b) ->
      Array.unsafe_set xi d (wrap32 (Array.unsafe_get xi a * Array.unsafe_get xi b));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OAnd32 (d, a, b) ->
      Array.unsafe_set xi d (Array.unsafe_get xi a land Array.unsafe_get xi b);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OOr32 (d, a, b) ->
      Array.unsafe_set xi d (Array.unsafe_get xi a lor Array.unsafe_get xi b);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OXor32 (d, a, b) ->
      Array.unsafe_set xi d (Array.unsafe_get xi a lxor Array.unsafe_get xi b);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OShl32 (d, a, b) ->
      Array.unsafe_set xi d (wrap32 (Array.unsafe_get xi a lsl (Array.unsafe_get xi b land 31)));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OShrS32 (d, a, b) ->
      Array.unsafe_set xi d (Array.unsafe_get xi a asr (Array.unsafe_get xi b land 31));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OShrU32 (d, a, b) ->
      Array.unsafe_set xi d
        (wrap32 (u32 (Array.unsafe_get xi a) lsr (Array.unsafe_get xi b land 31)));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OBin3I32 (op, d, a, v) ->
      let x = Array.unsafe_get xi a in
      Array.unsafe_set xi d
        (match op with
        | Add -> wrap32 (x + v)
        | Sub -> wrap32 (x - v)
        | Mul -> wrap32 (x * v)
        | And -> x land v
        | Or -> x lor v
        | Xor -> x lxor v
        | Shl -> wrap32 (x lsl (v land 31))
        | ShrS -> x asr (v land 31)
        | ShrU -> wrap32 (u32 x lsr (v land 31))
        | DivS | DivU | RemS | RemU | Rotl | Rotr ->
          (* never emitted by the fuser for these *)
          raise (Trap "unsupported fused op"));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OIBin32 (op, d) ->
      exec_ibin32 xi op d;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OIBin64 (op, d) ->
      exec_ibin64 xl op d;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OIRel32 (op, d, sa, sb) ->
      let a = Array.unsafe_get xi sa and b = Array.unsafe_get xi sb in
      Array.unsafe_set xi d
        (match op with
        | Eq -> if a = b then 1 else 0
        | Ne -> if a <> b then 1 else 0
        | LtS -> if a < b then 1 else 0
        | LtU -> if u32 a < u32 b then 1 else 0
        | GtS -> if a > b then 1 else 0
        | GtU -> if u32 a > u32 b then 1 else 0
        | LeS -> if a <= b then 1 else 0
        | LeU -> if u32 a <= u32 b then 1 else 0
        | GeS -> if a >= b then 1 else 0
        | GeU -> if u32 a >= u32 b then 1 else 0);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OIRelI32 (op, d, sa, b) ->
      let a = Array.unsafe_get xi sa in
      Array.unsafe_set xi d
        (match op with
        | Eq -> if a = b then 1 else 0
        | Ne -> if a <> b then 1 else 0
        | LtS -> if a < b then 1 else 0
        | LtU -> if u32 a < u32 b then 1 else 0
        | GtS -> if a > b then 1 else 0
        | GtU -> if u32 a > u32 b then 1 else 0
        | LeS -> if a <= b then 1 else 0
        | LeU -> if u32 a <= u32 b then 1 else 0
        | GeS -> if a >= b then 1 else 0
        | GeU -> if u32 a >= u32 b then 1 else 0);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OBrCmpR32 (op, sa, sb, e) ->
      let a = Array.unsafe_get xi sa and b = Array.unsafe_get xi sb in
      let taken =
        match op with
        | Eq -> a = b
        | Ne -> a <> b
        | LtS -> a < b
        | LtU -> u32 a < u32 b
        | GtS -> a > b
        | GtU -> u32 a > u32 b
        | LeS -> a <= b
        | LeU -> u32 a <= u32 b
        | GeS -> a >= b
        | GeU -> u32 a >= u32 b
      in
      if taken then begin
        if Array.length e.moves <> 0 then apply_moves fr e.moves;
        dispatch fr xi xl xf inst code data e.target
      end
      else dispatch fr xi xl xf inst code data (pc + 1)
    | OBrCmpI32 (op, sa, b, e) ->
      let a = Array.unsafe_get xi sa in
      let taken =
        match op with
        | Eq -> a = b
        | Ne -> a <> b
        | LtS -> a < b
        | LtU -> u32 a < u32 b
        | GtS -> a > b
        | GtU -> u32 a > u32 b
        | LeS -> a <= b
        | LeU -> u32 a <= u32 b
        | GeS -> a >= b
        | GeU -> u32 a >= u32 b
      in
      if taken then begin
        if Array.length e.moves <> 0 then apply_moves fr e.moves;
        dispatch fr xi xl xf inst code data e.target
      end
      else dispatch fr xi xl xf inst code data (pc + 1)
    | OIRel64 (op, d) ->
      exec_irel64 xi xl op d;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OFUn (op, s, f32res) ->
      exec_fun_ xf op s f32res;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OFAdd64 (d, a, b) ->
      Array.unsafe_set xf d (Array.unsafe_get xf a +. Array.unsafe_get xf b);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OFSub64 (d, a, b) ->
      Array.unsafe_set xf d (Array.unsafe_get xf a -. Array.unsafe_get xf b);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OFMul64 (d, a, b) ->
      Array.unsafe_set xf d (Array.unsafe_get xf a *. Array.unsafe_get xf b);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OFDiv64 (d, a, b) ->
      Array.unsafe_set xf d (Array.unsafe_get xf a /. Array.unsafe_get xf b);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OFBin32 (op, d) ->
      exec_fbin32 xf op d;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OFBin64 (op, d) ->
      exec_fbin64 xf op d;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OFRel (op, d) ->
      let a = Array.unsafe_get xf d and b = Array.unsafe_get xf (d + 1) in
      Array.unsafe_set xi d
        (match op with
        | Feq -> if a = b then 1 else 0
        | Fne -> if a <> b then 1 else 0
        | Flt -> if a < b then 1 else 0
        | Fgt -> if a > b then 1 else 0
        | Fle -> if a <= b then 1 else 0
        | Fge -> if a >= b then 1 else 0);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OCvt (op, d, sc) ->
      exec_cvt fr op d sc;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OCvtIF (d, sc) ->
      Array.unsafe_set xf d (float_of_int (Array.unsafe_get xi sc));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OFImm (op, d, a, c) ->
      let x = Array.unsafe_get xf a in
      Array.unsafe_set xf d
        (match op with
        | Fadd -> x +. c
        | Fsub -> x -. c
        | Fmul -> x *. c
        | Fdiv -> x /. c
        | Fmin | Fmax | Copysign -> assert false (* never emitted *));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadI32 (off, d, s) ->
      let a = u32 (Array.unsafe_get xi s) + off in
      if a + 4 > Bytes.length data then oob ();
      if Sys.big_endian then Array.unsafe_set xi d (Int32.to_int (swap32 (get32u data a)))
      else Array.unsafe_set xi d (Int32.to_int (get32u data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadI64 (off, d, s) ->
      let a = u32 (Array.unsafe_get xi s) + off in
      if a + 8 > Bytes.length data then oob ();
      if Sys.big_endian then Array.unsafe_set xl d (swap64 (get64u data a))
      else Array.unsafe_set xl d (get64u data a);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadF64 (off, d, s) ->
      let a = u32 (Array.unsafe_get xi s) + off in
      if a + 8 > Bytes.length data then oob ();
      if Sys.big_endian then Array.unsafe_set xf d (Int64.float_of_bits (swap64 (get64u data a)))
      else Array.unsafe_set xf d (Int64.float_of_bits (get64u data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreI32 (off, s, v) ->
      let a = u32 (Array.unsafe_get xi s) + off in
      if a + 4 > Bytes.length data then oob ();
      if Sys.big_endian then set32u data a (swap32 (Int32.of_int (Array.unsafe_get xi v)))
      else set32u data a (Int32.of_int (Array.unsafe_get xi v));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreI64 (off, s, v) ->
      let a = u32 (Array.unsafe_get xi s) + off in
      if a + 8 > Bytes.length data then oob ();
      if Sys.big_endian then set64u data a (swap64 (Array.unsafe_get xl v))
      else set64u data a (Array.unsafe_get xl v);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreF64 (off, s, v) ->
      let a = u32 (Array.unsafe_get xi s) + off in
      if a + 8 > Bytes.length data then oob ();
      if Sys.big_endian then
        set64u data a (swap64 (Int64.bits_of_float (Array.unsafe_get xf v)))
      else set64u data a (Int64.bits_of_float (Array.unsafe_get xf v));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OScaled (d, x, k, b) ->
      Array.unsafe_set xi d (wrap32 ((Array.unsafe_get xi x lsl k) + b));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OScaledR (d, x, k, r) ->
      Array.unsafe_set xi d (wrap32 ((Array.unsafe_get xi x lsl k) + Array.unsafe_get xi r));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadI32X (off, b, d, x, k) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + b)) + off in
      if a + 4 > Bytes.length data then oob ();
      if Sys.big_endian then Array.unsafe_set xi d (Int32.to_int (swap32 (get32u data a)))
      else Array.unsafe_set xi d (Int32.to_int (get32u data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadI64X (off, b, d, x, k) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + b)) + off in
      if a + 8 > Bytes.length data then oob ();
      if Sys.big_endian then Array.unsafe_set xl d (swap64 (get64u data a))
      else Array.unsafe_set xl d (get64u data a);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadF64X (off, b, d, x, k) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + b)) + off in
      if a + 8 > Bytes.length data then oob ();
      if Sys.big_endian then Array.unsafe_set xf d (Int64.float_of_bits (swap64 (get64u data a)))
      else Array.unsafe_set xf d (Int64.float_of_bits (get64u data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadI32RX (off, d, x, k, r) ->
      let a =
        u32 (wrap32 ((Array.unsafe_get xi x lsl k) + Array.unsafe_get xi r)) + off
      in
      if a + 4 > Bytes.length data then oob ();
      if Sys.big_endian then Array.unsafe_set xi d (Int32.to_int (swap32 (get32u data a)))
      else Array.unsafe_set xi d (Int32.to_int (get32u data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadF64RX (off, d, x, k, r) ->
      let a =
        u32 (wrap32 ((Array.unsafe_get xi x lsl k) + Array.unsafe_get xi r)) + off
      in
      if a + 8 > Bytes.length data then oob ();
      if Sys.big_endian then Array.unsafe_set xf d (Int64.float_of_bits (swap64 (get64u data a)))
      else Array.unsafe_set xf d (Int64.float_of_bits (get64u data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreI32X (off, b, x, k, v) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + b)) + off in
      if a + 4 > Bytes.length data then oob ();
      if Sys.big_endian then set32u data a (swap32 (Int32.of_int (Array.unsafe_get xi v)))
      else set32u data a (Int32.of_int (Array.unsafe_get xi v));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreI64X (off, b, x, k, v) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + b)) + off in
      if a + 8 > Bytes.length data then oob ();
      if Sys.big_endian then set64u data a (swap64 (Array.unsafe_get xl v))
      else set64u data a (Array.unsafe_get xl v);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreF64X (off, b, x, k, v) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + b)) + off in
      if a + 8 > Bytes.length data then oob ();
      if Sys.big_endian then set64u data a (swap64 (Int64.bits_of_float (Array.unsafe_get xf v)))
      else set64u data a (Int64.bits_of_float (Array.unsafe_get xf v));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreI32RX (off, x, k, r, v) ->
      let a =
        u32 (wrap32 ((Array.unsafe_get xi x lsl k) + Array.unsafe_get xi r)) + off
      in
      if a + 4 > Bytes.length data then oob ();
      if Sys.big_endian then set32u data a (swap32 (Int32.of_int (Array.unsafe_get xi v)))
      else set32u data a (Int32.of_int (Array.unsafe_get xi v));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreF64RX (off, x, k, r, v) ->
      let a =
        u32 (wrap32 ((Array.unsafe_get xi x lsl k) + Array.unsafe_get xi r)) + off
      in
      if a + 8 > Bytes.length data then oob ();
      if Sys.big_endian then set64u data a (swap64 (Int64.bits_of_float (Array.unsafe_get xf v)))
      else set64u data a (Int64.bits_of_float (Array.unsafe_get xf v));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoad (kind, off, s) ->
      exec_load fr kind off s;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStore (kind, off, s) ->
      exec_store fr kind off s;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OMemSize d ->
      Array.unsafe_set xi d (Memory.size_pages inst.fmemories.(0));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OMemGrow s ->
      Array.unsafe_set xi s (Memory.grow inst.fmemories.(0) (Array.unsafe_get xi s));
      dispatch fr xi xl xf inst code (mem0_data inst) (pc + 1)

and exec (fr : frame) (code : op array) : unit =
  let inst = fr.inst in
  dispatch fr fr.xi fr.xl fr.xf inst code (mem0_data inst) 0

and call_func (caller : frame) (callee : ffuncinst) (base : int) : unit =
  match callee with
  | FHost h ->
    let n = Array.length h.fh_params in
    let args = Array.init n (fun i -> read_slot caller h.fh_params.(i) (base + i)) in
    let results = h.fimpl args in
    if List.length results <> Array.length h.fh_results then
      raise (Trap "host function returned wrong arity");
    List.iteri (fun i v -> write_slot caller h.fh_results.(i) (base + i) v) results
  | FWasm ({ fbody; finst; _ } as w) ->
    let pt = fbody.cb_param_types in
    let np = Array.length pt in
    (* Reuse the function's resident frame unless it is already live
       further up the call chain (recursion / host reentry). Locals
       beyond the parameters must read as zero again. *)
    let pooled = not w.fbusy in
    let fr =
      if pooled then begin
        w.fbusy <- true;
        let f = w.fframe0 in
        let nl = fbody.cb_nloc in
        if nl > np then begin
          Array.fill f.xi np (nl - np) 0;
          Array.fill f.xl np (nl - np) 0L;
          Array.fill f.xf np (nl - np) 0.0
        end;
        f
      end
      else make_frame finst fbody
    in
    for i = 0 to np - 1 do
      match pt.(i) with
      | I32 -> fr.xi.(i) <- caller.xi.(base + i)
      | I64 -> fr.xl.(i) <- caller.xl.(base + i)
      | F32 | F64 -> fr.xf.(i) <- caller.xf.(base + i)
    done;
    (try exec fr fbody.cb_code
     with e ->
       if pooled then w.fbusy <- false;
       raise e);
    let rt = fbody.cb_result_types and rbase = fbody.cb_nloc in
    for i = 0 to Array.length rt - 1 do
      match rt.(i) with
      | I32 -> caller.xi.(base + i) <- fr.xi.(rbase + i)
      | I64 -> caller.xl.(base + i) <- fr.xl.(rbase + i)
      | F32 | F64 -> caller.xf.(base + i) <- fr.xf.(rbase + i)
    done;
    if pooled then w.fbusy <- false

(* ------------------------------------------------------------------ *)
(* Instantiation: link + initialise a compiled module. *)

exception Link_error = Instance.Link_error

type import_binding = string * string * fextern

let host ~module_ ~name ~params ~results impl : import_binding =
  ( module_,
    name,
    FFunc
      (FHost
         {
           fhtype = { params; results };
           fhname = name;
           fh_params = Array.of_list params;
           fh_results = Array.of_list results;
           fimpl = impl;
         }) )

let dummy_func =
  FHost
    {
      fhtype = { params = []; results = [] };
      fhname = "<uninitialized>";
      fh_params = [||];
      fh_results = [||];
      fimpl = (fun _ -> raise (Trap "uninitialized function"));
    }

(** [instantiate ~imports cm] links a compiled module against its
    imports and builds a runnable instance: memories and tables
    allocated, data and element segments applied. The start function,
    if any, is run by {!run_start} (call it explicitly, as the embedder
    controls timing measurements around it). *)
let instantiate ?(imports : import_binding list = []) (cm : cmodule) : finstance =
  let m = cm.cm_module in
  let import_tbl = Hashtbl.create 16 in
  List.iter (fun (mo, na, ext) -> Hashtbl.replace import_tbl (mo, na) ext) imports;
  let lookup (imp : import) =
    match Hashtbl.find_opt import_tbl (imp.imp_module, imp.imp_name) with
    | Some ext -> ext
    | None -> Instance.link_fail "unknown import %s.%s" imp.imp_module imp.imp_name
  in
  let imp_funcs, imp_mems, imp_globals, imp_tables =
    List.fold_left
      (fun (fs, ms, gs, ts) imp ->
        match (imp.idesc, lookup imp) with
        | ImportFunc tidx, FFunc f ->
          let expected = cm.cm_types.(tidx) in
          if not (functype_equal expected (type_of_ffuncinst f)) then
            Instance.link_fail "import %s.%s: signature mismatch" imp.imp_module imp.imp_name;
          (f :: fs, ms, gs, ts)
        | ImportMemory l, FMemory mem ->
          if Memory.size_pages mem < l.min then
            Instance.link_fail "import %s.%s: memory too small" imp.imp_module imp.imp_name;
          (fs, mem :: ms, gs, ts)
        | ImportGlobal g, FGlobal fg ->
          if not (valtype_equal g.content fg.fgty.content) then
            Instance.link_fail "import %s.%s: global type mismatch" imp.imp_module imp.imp_name;
          (fs, ms, fg :: gs, ts)
        | ImportTable _, FTable t -> (fs, ms, gs, t :: ts)
        | (ImportFunc _ | ImportMemory _ | ImportGlobal _ | ImportTable _), _ ->
          Instance.link_fail "import %s.%s: kind mismatch" imp.imp_module imp.imp_name)
      ([], [], [], []) m.imports
  in
  let imp_funcs = List.rev imp_funcs in
  let imp_mems = List.rev imp_mems in
  let imp_globals = List.rev imp_globals in
  let imp_tables = List.rev imp_tables in
  let n_imp = List.length imp_funcs in
  if n_imp <> cm.cm_n_imported then
    Instance.link_fail "import count mismatch (recompiled module?)";
  let eval_const body =
    match body with
    | [ Const v ] -> v
    | [ GlobalGet i ] when i < List.length imp_globals -> (List.nth imp_globals i).fgvalue
    | _ -> Instance.link_fail "unsupported constant expression"
  in
  let own_globals =
    List.map (fun (g : global) -> { fgty = g.gtype; fgvalue = eval_const g.ginit }) m.globals
  in
  let fglobals = Array.of_list (imp_globals @ own_globals) in
  let own_mems = List.map Memory.create m.memories in
  let fmemories = Array.of_list (imp_mems @ own_mems) in
  let own_tables =
    List.map (fun (l : limits) -> (Array.make l.min None : ffuncinst option array)) m.tables
  in
  let ftables = Array.of_list (imp_tables @ own_tables) in
  let ffuncs = Array.make (n_imp + Array.length cm.cm_bodies) dummy_func in
  List.iteri (fun i f -> ffuncs.(i) <- f) imp_funcs;
  let inst = { fmod = cm; ffuncs; fmemories; ftables; fglobals; fexports = [] } in
  Array.iteri
    (fun i body ->
      ffuncs.(n_imp + i) <-
        FWasm
          {
            fftype = cm.cm_func_types.(n_imp + i);
            fbody = body;
            finst = inst;
            fframe0 = make_frame inst body;
            fbusy = false;
          })
    cm.cm_bodies;
  (* Element segments. *)
  List.iter
    (fun e ->
      let offset =
        match eval_const e.eoffset with
        | VI32 v -> Int32.to_int v land 0xffffffff
        | VI64 _ | VF32 _ | VF64 _ -> Instance.link_fail "element offset must be i32"
      in
      let table = ftables.(e.etable) in
      if offset + List.length e.einit > Array.length table then
        Instance.link_fail "element segment out of bounds";
      List.iteri (fun i fidx -> table.(offset + i) <- Some ffuncs.(fidx)) e.einit)
    m.elems;
  (* Data segments. *)
  List.iter
    (fun d ->
      let offset =
        match eval_const d.doffset with
        | VI32 v -> Int32.to_int v land 0xffffffff
        | VI64 _ | VF32 _ | VF64 _ -> Instance.link_fail "data offset must be i32"
      in
      let mem = fmemories.(d.dmem) in
      if offset + String.length d.dinit > Memory.size_bytes mem then
        Instance.link_fail "data segment out of bounds";
      Memory.store_string mem offset d.dinit)
    m.datas;
  (* Exports. *)
  inst.fexports <-
    List.map
      (fun e ->
        let ext =
          match e.edesc with
          | ExportFunc i -> FFunc ffuncs.(i)
          | ExportMemory i -> FMemory fmemories.(i)
          | ExportGlobal i -> FGlobal fglobals.(i)
          | ExportTable i -> FTable ftables.(i)
        in
        (e.exp_name, ext))
      m.exports;
  inst

(* ------------------------------------------------------------------ *)
(* Invocation *)

(** Call a flattened or host function with boxed values. *)
let invoke_funcinst (fi : ffuncinst) (args : value list) : value list =
  let ft = type_of_ffuncinst fi in
  if List.length args <> List.length ft.params then raise (Trap "invoke: wrong argument count");
  List.iter2
    (fun v t ->
      if not (valtype_equal (type_of_value v) t) then
        raise (Trap "invoke: argument type mismatch"))
    args ft.params;
  match fi with
  | FHost h -> h.fimpl (Array.of_list args)
  | FWasm { fbody; finst; _ } ->
    let fr = make_frame finst fbody in
    List.iteri
      (fun i v ->
        match v with
        | VI32 x -> fr.xi.(i) <- Int32.to_int x
        | VI64 x -> fr.xl.(i) <- x
        | VF32 x | VF64 x -> fr.xf.(i) <- x)
      args;
    exec fr fbody.cb_code;
    List.mapi (fun i t -> read_slot fr t (fbody.cb_nloc + i)) ft.results

let export_func (inst : finstance) name =
  match List.assoc_opt name inst.fexports with
  | Some (FFunc f) -> Some f
  | Some (FMemory _ | FGlobal _ | FTable _) | None -> None

let export_memory (inst : finstance) name =
  match List.assoc_opt name inst.fexports with
  | Some (FMemory m) -> Some m
  | Some (FFunc _ | FGlobal _ | FTable _) | None -> None

(** Invoke an exported function by name. Raises [Not_found] if the
    export is missing or not a function. *)
let invoke (inst : finstance) name args =
  match export_func inst name with
  | Some f -> invoke_funcinst f args
  | None -> raise Not_found

(** Run the module's start function, if any. *)
let run_start (inst : finstance) =
  match inst.fmod.cm_module.start with
  | None -> ()
  | Some f -> ignore (invoke_funcinst inst.ffuncs.(f) [])
