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
    and contains no per-instance state.

    {!compile_bytes} is the only way in: it goes from bytes to the
    compiled module in one pass, with no function body built as an
    AST. The decoder sends each instruction to the flattener as it
    reads it, and each flattener step runs the checker's step first, so
    the flattener only ever sees code that has passed validation. It
    keeps no stack of its own: the types, heights and labels it needs
    are the checker's. *)

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
   plain register moves. The hottest operation families (i32 add, sub,
   mul and and; f64 arithmetic; i32 and f64 loads and stores) get
   dedicated constructors so the dispatch loop resolves them with a
   single match; every other instruction runs through a generic op.
   Four superinstruction families were chosen from an executed-op-pair
   profile of the PolyBench and Speedtest kernels ({!counting}): a
   loop back-edge fused with its i32 step and the loop header's
   compare-branch ([OBackCmp*]), 2-D array addressing [x*n + y]
   ([OMulAdd32], [OLoad*M]), f64 multiply-add ([OFMulAdd64], two
   roundings like the unfused pair) and i32 memory-to-memory copies
   ([OCopyI32*]). A shape that no profiled module reaches gets no op. *)
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
  | OBin3I32 of ibinop * int * int * int (* d, a, imm (folded i32.const); add/sub/mul/and *)
  | OIBin32 of ibinop * int (* the other i32 binops: in-place at d, d+1 *)
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
  | OFMulAdd64 of int * int * int * int (* d, acc, a, b: xf.d <- xf.acc +. (xf.a *. xf.b) *)
  | OBrCmpR32 of irelop * int * int * edge (* jump when xi.a op xi.b *)
  | OBrCmpI32 of irelop * int * int * edge (* jump when xi.a op imm *)
  (* A loop back-edge: xi.d <- wrap32 (xi.a + step), then the loop
     header's compare-branch: leave through the header's exit edge
     when its test holds, else continue at [next], the header's
     successor. *)
  | OBackCmpI32 of int * int * int * irelop * int * int * edge * int
      (* d, a, step; header op, x, imm, exit edge; next *)
  | OBackCmpR32 of int * int * int * irelop * int * int * edge * int
      (* d, a, step; header op, x, y, exit edge; next *)
  | OMulAdd32 of int * int * int * int * int * int
      (* d, x, n, y, k, b: xi.d <- wrap32 (((xi.x * n + xi.y) lsl k) + b) *)
  | OLoadI32 of int * int * int (* static offset, result slot, addr slot *)
  | OLoadF64 of int * int * int
  | OStoreI32 of int * int * int (* static offset, addr slot, value slot *)
  | OStoreF64 of int * int * int
  | OScaled of int * int * int * int (* d, x, k, b: xi.d <- wrap32 ((xi.x lsl k) + b) *)
  | OScaledR of int * int * int * int (* d, x, k, r: xi.d <- wrap32 ((xi.x lsl k) + xi.r) *)
  | OLoadI32X of int * int * int * int * int (* off, const base, dst, index slot, shift *)
  | OLoadF64X of int * int * int * int * int
  | OLoadI32RX of int * int * int * int * int (* off, dst, index slot, shift, base slot *)
  | OLoadF64RX of int * int * int * int * int
  | OStoreI32X of int * int * int * int * int (* off, const base, index slot, shift, value *)
  | OStoreF64X of int * int * int * int * int
  | OStoreF64RX of int * int * int * int * int (* off, index slot, shift, base slot, value *)
  | OLoadI32M of int * int * int * int * int * int * int
      (* off, b, dst, x, n, y, k: address as in [OMulAdd32] *)
  | OLoadF64M of int * int * int * int * int * int * int
  | OCopyI32X of int * int * int * int * int * int
      (* store off, store addr slot; load off, const base, index slot, shift *)
  | OCopyI32RX of int * int * int * int * int * int
      (* store off, store addr slot; load off, index slot, shift, base slot *)
  | OLoad of lkind * int * int (* kind, static offset, addr/result slot *)
  | OStore of skind * int * int (* kind, static offset, addr slot (value at +1) *)
  | OMemSize of int
  | OMemGrow of int
  | OCount of int ref (* bump the tally; emitted only by {!counting} *)

(* A flattened function body. Instance-independent: calls reference
   function indices, globals reference global indices. *)
type cbody = {
  cb_code : op array;
  cb_nslots : int; (* unified register file: locals + max stack height *)
  cb_nloc : int; (* params + locals *)
  cb_param_types : valtype array;
  cb_result_types : valtype array;
}

(* A compiled module: the flattened bodies plus the source module's
   link-time data in [cm_module] (types, imports, tables, memories,
   globals, exports, start, element and data segments, custom
   sections). [cm_module.funcs] is empty: every body lives on, already
   flattened, in [cm_bodies], so a compiled module does not also keep
   its AST. Contains no instance state, so it is safe to share across
   instantiations. *)
type cmodule = {
  cm_module : module_;
  cm_func_types : functype array; (* full function index space *)
  cm_bodies : cbody array; (* own (non-imported) functions *)
  cm_n_imported : int;
}

(* ------------------------------------------------------------------ *)
(* Runtime representation *)

(* [fframe0]/[fbusy]: each function keeps one preallocated frame that
   non-recursive calls reuse (locals re-zeroed on reuse; stack slots
   need no clearing, validation guarantees they are written before
   read). Recursive or reentrant calls fall back to a fresh frame. *)
type ffuncinst =
  | FWasm of {
      fftype : functype;
      fbody : cbody;
      finst : ffuncinst Instance.t;
      fframe0 : frame;
      mutable fbusy : bool;
    }
  | FHost of {
      fhtype : functype;
      fh_params : valtype array;
      fh_results : valtype array;
      fimpl : value array -> value list;
    }

(* A call frame: one register file per value class, locals first. *)
and frame = {
  xi : int array; (* i32 slots, sign-extended native ints *)
  xl : int64 array;
  xf : float array; (* f32/f64 slots *)
  inst : ffuncinst Instance.t;
}

type finstance = ffuncinst Instance.t

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

(* Inlined, so a failed bounds check raises in place: the dispatch
   loop saves no live value for a call that never returns. *)
let[@inline] oob () = raise (Trap "out of bounds memory access")

let check_addr data addr width = if addr < 0 || addr + width > Bytes.length data then oob ()

(* Unaligned native-endian word access without the stdlib's redundant
   bounds check; the accessors below check first and convert to Wasm's
   little-endian layout. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

(* The one bounds-checked access per word width, for every 32- and
   64-bit load and store. An address is a u32 plus the static offset,
   which the decoder reads as a u32, so only its upper end needs
   checking. *)
let[@inline] ld32 data a =
  if a + 4 > Bytes.length data then oob ();
  if Sys.big_endian then swap32 (get32u data a) else get32u data a

let[@inline] ld64 data a =
  if a + 8 > Bytes.length data then oob ();
  if Sys.big_endian then swap64 (get64u data a) else get64u data a

let[@inline] st32 data a v =
  if a + 4 > Bytes.length data then oob ();
  set32u data a (if Sys.big_endian then swap32 v else v)

let[@inline] st64 data a v =
  if a + 8 > Bytes.length data then oob ();
  set64u data a (if Sys.big_endian then swap64 v else v)

(* ------------------------------------------------------------------ *)
(* Flattening (compilation) *)

(* Growable op buffer. *)
type buf = { mutable arr : op array; mutable len : int }

(* What the flattener keeps of a label beyond the checker's frame for
   it, which holds the label's entry height and types. *)
type cframe = {
  fr_start : int; (* a loop's header pc; -1 for a block or an if *)
  mutable fr_pending : edge list; (* forward edges to patch at label end *)
  mutable fr_else : edge option; (* an if's jump to its else arm, until the else *)
}

type cctx = {
  check : Validate.context;
      (* the body's checker. Each step runs it first; live code then
         reads the operand stack's types and height, the labels, the
         locals and the module's types from it. *)
  cnloc : int; (* locals count = offset of stack slot 0 in the register file *)
  mutable cmax : int; (* the largest checker height seen in live code *)
  mutable cframes : cframe list; (* innermost first; in live code, one per checker frame *)
  cbuf : buf;
  mutable cmark : int; (* latest branch-target position (-1: none): a fusion barrier *)
  cfuel : bool; (* emit OFuel at function entry and loop headers *)
  mutable cdead : int;
      (* 0 while live. An op that leaves unconditionally sets it to 1:
         the rest of its block is dead and flattens to nothing. Each
         block opened while dead adds one; the dead block's own else
         or end makes the code live again. *)
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
   target, so the peephole below never folds an op across it. Only the
   latest mark needs keeping: marks are set at the buffer's end, and
   folding stops at a mark, so the buffer never shrinks below it and no
   earlier mark can be the end again. *)
let mark_here ctx = ctx.cmark <- here ctx

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
  | _ -> assert false

(* Shift count when a multiply by [c] is a scaled-address producer:
   log2 for a power of two, -1 otherwise. *)
let shift_amount c =
  if c > 0 && c land (c - 1) = 0 then
    let rec log2 k v = if v <= 1 then k else log2 (k + 1) (v asr 1) in
    log2 0 c
  else -1

let stack_slot nloc s = s >= nloc

(* Try to fold the trailing op [tail] into the op about to be emitted.
   Sound because of stack discipline: when [pending] consumes the slot
   [tail] just produced, that slot is dead afterwards, and folds only
   fire when [tail]'s destination is exactly the natural operand slot
   (a stack position >= cnloc), never a local carrying a live value.
   Returns the combined op, always a freshly built value, or [pending]
   itself to emit it as-is; the caller tells the two apart with [==],
   so a failed fold allocates nothing. A rule exists only for a shape
   that the profiled modules fuse; every other shape runs as the plain
   ops it is built from. *)
let absorb ~nloc (pending : op) (tail : op) : op =
  match (pending, tail) with
  (* -- operand folding into 3-address i32 arithmetic ---------------- *)
  | (OAdd32 (d, a, b) | OSub32 (d, a, b) | OMul32 (d, a, b) | OAnd32 (d, a, b)), OMovI (t, s)
    when t = b && b = a + 1 -> (
    (* right operand still at its natural push slot: read the move's
       source directly *)
    match pending with
    | OAdd32 _ -> OAdd32 (d, a, s)
    | OSub32 _ -> OSub32 (d, a, s)
    | OMul32 _ -> OMul32 (d, a, s)
    | OAnd32 _ -> OAnd32 (d, a, s)
    | _ -> assert false)
  | (OAdd32 (d, a, b) | OSub32 (d, a, b) | OMul32 (d, a, b) | OAnd32 (d, a, b)), OConstI (t, v)
    when t = b && b = a + 1 ->
    OBin3I32 (ibinop_of_spec pending, d, a, v)
  | (OAdd32 (d, a, b) | OSub32 (d, a, b) | OMul32 (d, a, b) | OAnd32 (d, a, b)), OMovI (t, s)
    when t = a && a = d && b <> a + 1 -> (
    (* right operand already folded; now fold the left push *)
    match pending with
    | OAdd32 _ -> OAdd32 (d, s, b)
    | OSub32 _ -> OSub32 (d, s, b)
    | OMul32 _ -> OMul32 (d, s, b)
    | OAnd32 _ -> OAnd32 (d, s, b)
    | _ -> assert false)
  | OBin3I32 (op, d, a, imm), OMovI (t, s) when t = a && a = d -> OBin3I32 (op, d, s, imm)
  | (OAdd32 (d, a, b) | OMul32 (d, a, b) | OAnd32 (d, a, b)), OConstI (t, v)
    when t = a && a = d && b <> a + 1 ->
    (* constant pushed first on a commutative op: swap operands *)
    OBin3I32 (ibinop_of_spec pending, d, b, v)
  (* -- operand folding into i32 comparisons ------------------------- *)
  | OIRel32 (op, d, a, b), OMovI (t, s) when t = b && b = a + 1 -> OIRel32 (op, d, a, s)
  | OIRel32 (op, d, a, b), OConstI (t, v) when t = b && b = a + 1 ->
    OIRelI32 (op, d, a, v)
  | OIRel32 (op, d, a, b), OMovI (t, s) when t = a && a = d && b <> a + 1 ->
    OIRel32 (op, d, s, b)
  | OIRelI32 (op, d, a, imm), OMovI (t, s) when t = a && a = d -> OIRelI32 (op, d, s, imm)
  (* -- operand folding into f64 arithmetic -------------------------- *)
  | (OFAdd64 (d, a, b) | OFSub64 (d, a, b) | OFMul64 (d, a, b) | OFDiv64 (d, a, b)),
    OMovF (t, s)
    when t = b && b = a + 1 -> (
    match pending with
    | OFAdd64 _ -> OFAdd64 (d, a, s)
    | OFSub64 _ -> OFSub64 (d, a, s)
    | OFMul64 _ -> OFMul64 (d, a, s)
    | OFDiv64 _ -> OFDiv64 (d, a, s)
    | _ -> assert false)
  | (OFAdd64 (d, a, b) | OFSub64 (d, a, b) | OFMul64 (d, a, b) | OFDiv64 (d, a, b)),
    OMovF (t, s)
    when t = a && a = d && b <> a + 1 -> (
    match pending with
    | OFAdd64 _ -> OFAdd64 (d, s, b)
    | OFSub64 _ -> OFSub64 (d, s, b)
    | OFMul64 _ -> OFMul64 (d, s, b)
    | OFDiv64 _ -> OFDiv64 (d, s, b)
    | _ -> assert false)
  | (OFAdd64 (d, a, b) | OFSub64 (d, a, b) | OFMul64 (d, a, b) | OFDiv64 (d, a, b)),
    OConstF (t, v)
    when t = b && b = a + 1 -> (
    match pending with
    | OFAdd64 _ -> OFImm (Fadd, d, a, v)
    | OFSub64 _ -> OFImm (Fsub, d, a, v)
    | OFMul64 _ -> OFImm (Fmul, d, a, v)
    | OFDiv64 _ -> OFImm (Fdiv, d, a, v)
    | _ -> assert false)
  | (OFAdd64 (d, a, b) | OFMul64 (d, a, b)), OConstF (t, v) when t = a && a = d && b <> a + 1 ->
    (* constant pushed first on a commutative f64 op *)
    OFImm ((match pending with OFAdd64 _ -> Fadd | _ -> Fmul), d, b, v)
  | OFImm (op, d, a, c), OMovF (t, s) when t = a && a = d -> OFImm (op, d, s, c)
  (* -- conversions --------------------------------------------------- *)
  | OCvtIF (d, a), OMovI (t, s) when t = a && a = d -> OCvtIF (d, s)
  (* -- value folding into stores ------------------------------------ *)
  | OStoreI32 (off, a, v), OMovI (t, s) when t = v && v = a + 1 -> OStoreI32 (off, a, s)
  | OStoreF64 (off, a, v), OMovF (t, s) when t = v && v = a + 1 -> OStoreF64 (off, a, s)
  (* -- scaled-address folding -----------------------------------------
        (x * 2^k) + b  address chains collapse into a single
        [OScaled]/[OScaledR], which then fuses into the memory op
        itself.  Every rewrite preserves the exact wrap32 arithmetic of
        the unfused chain, so addresses (and traps) are bit-identical:
        wrap32 only depends on the low 32 bits, hence
        wrap32 (wrap32 (x lsl k) + b) = wrap32 ((x lsl k) + b) and
        (x +- c) lsl k has the same low bits as (x lsl k) +- (c lsl k). *)
  | OBin3I32 (Add, d, a, c2), OBin3I32 (Mul, t, x, c)
    when t = a && a = d && stack_slot nloc a && shift_amount c >= 0 ->
    OScaled (d, x, shift_amount c, wrap32 c2)
  | OBin3I32 (Mul, d, a, c), OBin3I32 (((Add | Sub) as op2), t, x, c2)
    when t = a && a = d && stack_slot nloc a && shift_amount c >= 0 ->
    let k = shift_amount c in
    OScaled (d, x, k, wrap32 ((match op2 with Sub -> -c2 | _ -> c2) lsl k))
  | OBin3I32 (Add, d, a, c2), OScaled (t, x, k, b0) when t = a && a = d && stack_slot nloc a ->
    OScaled (d, x, k, wrap32 (b0 + c2))
  | OAdd32 (d, a, b), OBin3I32 (Mul, t, x, c)
    when t = a && a = d && b <> a && stack_slot nloc a && shift_amount c >= 0 ->
    OScaledR (d, x, shift_amount c, b)
  | OAdd32 (d, a, b), OBin3I32 (Mul, t, x, c)
    when t = b && b = a + 1 && a <> b && stack_slot nloc b && shift_amount c >= 0 ->
    OScaledR (d, x, shift_amount c, a)
  | (OLoadI32 (off, d, a) | OLoadF64 (off, d, a)), OScaled (t, x, k, b0)
    when t = a && a = d && stack_slot nloc a ->
    (match pending with
    | OLoadI32 _ -> OLoadI32X (off, b0, d, x, k)
    | OLoadF64 _ -> OLoadF64X (off, b0, d, x, k)
    | _ -> assert false)
  | (OLoadI32 (off, d, a) | OLoadF64 (off, d, a)), OScaledR (t, x, k, r)
    when t = a && a = d && stack_slot nloc a ->
    (match pending with
    | OLoadI32 _ -> OLoadI32RX (off, d, x, k, r)
    | OLoadF64 _ -> OLoadF64RX (off, d, x, k, r)
    | _ -> assert false)
  | (OStoreI32 (off, a, v) | OStoreF64 (off, a, v)), OScaled (t, x, k, b0)
    when t = a && v <> a + 1 && stack_slot nloc a ->
    (match pending with
    | OStoreI32 _ -> OStoreI32X (off, b0, x, k, v)
    | OStoreF64 _ -> OStoreF64X (off, b0, x, k, v)
    | _ -> assert false)
  | OStoreF64 (off, a, v), OScaledR (t, x, k, r) when t = a && v <> a + 1 && stack_slot nloc a ->
    OStoreF64RX (off, x, k, r, v)
  (* -- 2-D addressing ---------------------------------------------------
        x*n + y with n not a power of two (those took the OScaledR rules
        above) becomes one [OMulAdd32], as does a + (y +- c). A +- c on
        the row index, a power-of-two scale and the array's constant
        base then fold into its k and b, and the i32/f64 loads absorb
        the whole address. Exact for the reason the scaled rules are:
        every rewrite keeps the low 32 bits of the unfused chain. *)
  | OAdd32 (d, a, b), OBin3I32 (Mul, t, x, n) when t = a && a = d && b <> a && stack_slot nloc a ->
    OMulAdd32 (d, x, n, b, 0, 0)
  | OAdd32 (d, a, b), OBin3I32 (Mul, t, x, n) when t = b && b = a + 1 && stack_slot nloc b ->
    OMulAdd32 (d, x, n, a, 0, 0)
  | OAdd32 (d, a, b), OBin3I32 (((Add | Sub) as op), t, y, c)
    when t = b && b = a + 1 && stack_slot nloc b ->
    OMulAdd32 (d, a, 1, y, 0, wrap32 (match op with Sub -> -c | _ -> c))
  | OMulAdd32 (d, x, n, y, k, b), OMovI (t, s) when t = y && y = d && x <> d && stack_slot nloc t ->
    OMulAdd32 (d, x, n, s, k, b)
  | OMulAdd32 (d, a, m, y, k, b), OBin3I32 (Mul, t, x, n) when t = a && y <> a && stack_slot nloc a ->
    OMulAdd32 (d, x, wrap32 (n * m), y, k, b)
  | OMulAdd32 (d, a, n, y, k, b), OBin3I32 (((Add | Sub) as op), t, x, c)
    when t = a && y <> a && stack_slot nloc a ->
    let c = match op with Sub -> -c | _ -> c in
    OMulAdd32 (d, x, n, y, k, wrap32 (b + ((c * n) lsl k)))
  | OBin3I32 (((Add | Sub) as op), d, a, c), OMulAdd32 (t, x, n, y, k, b)
    when t = a && stack_slot nloc a ->
    OMulAdd32 (d, x, n, y, k, wrap32 (match op with Sub -> b - c | _ -> b + c))
  | OScaled (d, a, k, b0), OMulAdd32 (t, x, n, y, 0, c) when t = a && stack_slot nloc a ->
    OMulAdd32 (d, x, n, y, k, wrap32 (b0 + (c lsl k)))
  | (OLoadI32 (off, d, a) | OLoadF64 (off, d, a)), OMulAdd32 (t, x, n, y, k, b)
    when t = a && a = d && stack_slot nloc a ->
    (match pending with
    | OLoadI32 _ -> OLoadI32M (off, b, d, x, n, y, k)
    | OLoadF64 _ -> OLoadF64M (off, b, d, x, n, y, k)
    | _ -> assert false)
  (* -- f64 multiply-add: acc + a*b, two roundings as unfused (no FMA).
        Only with the product on the right, so NaN operands meet the
        add in the unfused order. *)
  | OFAdd64 (d, a, b), OFMul64 (t, x, y) when t = b && b = a + 1 && stack_slot nloc b ->
    OFMulAdd64 (d, a, x, y)
  (* -- i32 memory-to-memory copy: the load feeding a store's value.
        The load's bound is checked first, then the store's. *)
  | OStoreI32 (soff, a, v), OLoadI32X (off, b0, t, x, k) when t = v && v = a + 1 && stack_slot nloc v ->
    OCopyI32X (soff, a, off, b0, x, k)
  | OStoreI32 (soff, a, v), OLoadI32RX (off, t, x, k, r) when t = v && v = a + 1 && stack_slot nloc v ->
    OCopyI32RX (soff, a, off, x, k, r)
  (* -- compare-and-branch fusion ------------------------------------
        Guard: only fold a producer away when its destination [c] is a
        dead stack slot, never a local that local.set retargeting made
        it write: folding that producer into the branch would delete a
        live local store. *)
  | OBrIf (c, e), OIRel32 (op, t, a, b) when t = c && stack_slot nloc c ->
    OBrCmpR32 (op, a, b, e)
  | OBrIf (c, e), OIRelI32 (op, t, a, imm) when t = c && stack_slot nloc c ->
    OBrCmpI32 (op, a, imm, e)
  | OBrIfNot (c, e), OIRel32 (op, t, a, b) when t = c && stack_slot nloc c ->
    OBrCmpR32 (negate_irelop op, a, b, e)
  | OBrIfNot (c, e), OIRelI32 (op, t, a, imm) when t = c && stack_slot nloc c ->
    OBrCmpI32 (negate_irelop op, a, imm, e)
  | OBrIf (c, e), OTestI t when t = c && stack_slot nloc c -> OBrIfNot (c, e)
  (* -- local.set retargeting: rewrite the producer's destination ----- *)
  | OMovI (z, s), OConstI (t, v) when t = s && stack_slot nloc s -> OConstI (z, v)
  | OMovI (z, s), OMovI (t, x) when t = s && stack_slot nloc s -> OMovI (z, x)
  | OMovI (z, s), OAdd32 (t, a, b) when t = s && stack_slot nloc s -> OAdd32 (z, a, b)
  | OMovI (z, s), OSub32 (t, a, b) when t = s && stack_slot nloc s -> OSub32 (z, a, b)
  | OMovI (z, s), OBin3I32 (op, t, a, imm) when t = s && stack_slot nloc s -> OBin3I32 (op, z, a, imm)
  | OMovF (z, s), OConstF (t, v) when t = s && stack_slot nloc s -> OConstF (z, v)
  | OMovF (z, s), OMovF (t, x) when t = s && stack_slot nloc s -> OMovF (z, x)
  | OMovF (z, s), OFAdd64 (t, a, b) when t = s && stack_slot nloc s -> OFAdd64 (z, a, b)
  | OMovF (z, s), OFSub64 (t, a, b) when t = s && stack_slot nloc s -> OFSub64 (z, a, b)
  | OMovF (z, s), OFMul64 (t, a, b) when t = s && stack_slot nloc s -> OFMul64 (z, a, b)
  | OMovF (z, s), OFDiv64 (t, a, b) when t = s && stack_slot nloc s -> OFDiv64 (z, a, b)
  | OMovF (z, s), OLoadF64 (off, t, a) when t = s && stack_slot nloc s -> OLoadF64 (off, z, a)
  | OMovF (z, s), OFImm (op, t, a, c) when t = s && stack_slot nloc s -> OFImm (op, z, a, c)
  | OMovI (z, s), OScaledR (t, x, k, r) when t = s && stack_slot nloc s -> OScaledR (z, x, k, r)
  | OMovF (z, s), OLoadF64X (off, b0, t, x, k) when t = s && stack_slot nloc s ->
    OLoadF64X (off, b0, z, x, k)
  | OMovF (z, s), OLoadF64RX (off, t, x, k, r) when t = s && stack_slot nloc s ->
    OLoadF64RX (off, z, x, k, r)
  | OMovI (z, s), OMulAdd32 (t, x, n, y, k, b) when t = s && stack_slot nloc s ->
    OMulAdd32 (z, x, n, y, k, b)
  | OMovI (z, s), OLoadI32M (off, b, t, x, n, y, k) when t = s && stack_slot nloc s ->
    OLoadI32M (off, b, z, x, n, y, k)
  | OMovF (z, s), OLoadF64M (off, b, t, x, n, y, k) when t = s && stack_slot nloc s ->
    OLoadF64M (off, b, z, x, n, y, k)
  | OMovF (z, s), OFMulAdd64 (t, a, x, y) when t = s && stack_slot nloc s -> OFMulAdd64 (z, a, x, y)
  | OMovI (z, s), OCvt (op, t, a) when t = s && stack_slot nloc s -> OCvt (op, z, a)
  | _ -> pending

(* Emit with fusion: keep absorbing the trailing op while legal. The
   mark check guards relocation — combining into position [len - 1]
   is only sound when no branch lands at [len] (where the new op would
   otherwise have been). *)
let rec emit_peep ctx o =
  let b = ctx.cbuf in
  if b.len > 0 && b.len <> ctx.cmark then begin
    let o' = absorb ~nloc:ctx.cnloc o b.arr.(b.len - 1) in
    if o' == o then emit ctx o
    else begin
      b.len <- b.len - 1;
      emit_peep ctx o'
    end
  end
  else emit ctx o

let kind_of_valtype = function I32 -> 0 | I64 -> 1 | F32 | F64 -> 2

(* Build the edge for a branch to label [n] taken with the label's
   values just under register-file index [top]. Loop back-edges resolve
   immediately; forward edges register themselves for patching when
   the target label closes. *)
let branch_edge ctx top n : edge =
  let frame = List.nth ctx.cframes n in
  let label = List.nth ctx.check.ctrls n in
  (* A branch to a loop carries its (empty, in the MVP) parameters: the
     checker's label types are those. *)
  let label_types = label.label_types in
  let arity = List.length label_types in
  let src = top - arity and dst = ctx.cnloc + label.height in
  let moves =
    if src = dst then [||]
    else
      Array.of_list
        (List.mapi
           (fun k t -> { mk = kind_of_valtype t; msrc = src + k; mdst = dst + k })
           label_types)
  in
  if frame.fr_start >= 0 then { target = frame.fr_start; moves }
  else begin
    let e = { target = -1; moves } in
    frame.fr_pending <- e :: frame.fr_pending;
    e
  end

(* Emit [br n] from [top]. A back-edge to a loop whose header (the op
   at [fr_start]) is a compare-branch, right after an i32 add/sub step,
   replaces the step with one [OBackCmp*]: step, the header's test,
   then its exit edge (shared, so patched with the header's) or the
   header's successor. One dispatch per iteration instead of three.
   Not under fuel, where the header is the [OFuel] every iteration
   must charge; and only when the edge carries no moves, the step
   follows the header, and no branch lands at the [br]'s position. *)
let emit_br ctx top n =
  let fr = List.nth ctx.cframes n in
  let e = branch_edge ctx top n in
  let b = ctx.cbuf in
  let tail = b.len - 1 in
  let back =
    if ctx.cfuel || fr.fr_start < 0 || Array.length e.moves <> 0 || b.len = ctx.cmark
       || tail <= fr.fr_start
    then OJmp e
    else
      let step op c = match op with Sub -> -c | _ -> c in
      match (b.arr.(tail), b.arr.(fr.fr_start)) with
      | OBin3I32 (((Add | Sub) as op), d, a, c), OBrCmpI32 (rel, x, imm, exit) ->
        OBackCmpI32 (d, a, step op c, rel, x, imm, exit, fr.fr_start + 1)
      | OBin3I32 (((Add | Sub) as op), d, a, c), OBrCmpR32 (rel, x, y, exit) ->
        OBackCmpR32 (d, a, step op c, rel, x, y, exit, fr.fr_start + 1)
      | _ -> OJmp e
  in
  match back with OJmp _ -> emit ctx back | _ -> b.arr.(tail) <- back

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

(* Absolute register-file index one past the checker's stack top. *)
let top ctx = ctx.cnloc + ctx.check.height

(* The frame holds every height that live code reaches. *)
let reached ctx =
  let h = ctx.check.height in
  if h > ctx.cmax then ctx.cmax <- h

(* Whether the event the checker has just passed is live code. *)
let live ctx =
  ctx.cdead = 0
  && begin
    reached ctx;
    true
  end

(* A register move of a value of type [t]. *)
let mov t d s = match t with I32 -> OMovI (d, s) | I64 -> OMovL (d, s) | F32 | F64 -> OMovF (d, s)

(* The per-event steps, one per {!Ast.sink} field: the flattener
   consumes a body as the events the decoder sends while it reads it.
   Each step runs the checker's step for its event first, so the code
   it flattens has passed validation; a check that does not pass
   raises {!Validate.Invalid} and ends the pass. Slots come from the
   checker's height after its step; branches and calls take the stack
   top from before it ([before]). [leaf] takes every leaf without an
   event of its own. *)
let leaf_live (ctx : cctx) before (i : instr) =
  match i with
  | Nop | Drop -> ()
  | Unreachable ->
    emit ctx OUnreachable;
    ctx.cdead <- 1
  | Select ->
    let d = top ctx - 1 in
    emit ctx
      (match ctx.check.opds.(ctx.check.height - 1) with
      | Validate.Known I32 -> OSelectI d
      | Validate.Known I64 -> OSelectL d
      | Validate.Known (F32 | F64) -> OSelectF d
      | Validate.Unknown -> assert false (* only below an unconditional branch *))
  | Const (VI64 x) -> emit ctx (OConstL (top ctx - 1, x))
  | Const (VF32 x | VF64 x) -> emit ctx (OConstF (top ctx - 1, x))
  | ITestop ty ->
    let s = top ctx - 1 in
    emit ctx (match ty with I32 -> OTestI s | I64 -> OTestL s | F32 | F64 -> assert false)
  | IUnop (ty, op) ->
    let s = top ctx - 1 in
    emit ctx
      (match ty with
      | I32 -> OIUn32 (op, s)
      | I64 -> OIUn64 (op, s)
      | F32 | F64 -> assert false)
  | IBinop (ty, op) ->
    let d = top ctx - 1 in
    emit_peep ctx
      (match ty with
      | I32 -> (
        match op with
        | Add -> OAdd32 (d, d, d + 1)
        | Sub -> OSub32 (d, d, d + 1)
        | Mul -> OMul32 (d, d, d + 1)
        | And -> OAnd32 (d, d, d + 1)
        | Or | Xor | Shl | ShrS | ShrU | DivS | DivU | RemS | RemU | Rotl | Rotr -> OIBin32 (op, d))
      | I64 -> OIBin64 (op, d)
      | F32 | F64 -> assert false)
  | IRelop (ty, op) ->
    let d = top ctx - 1 in
    emit_peep ctx
      (match ty with
      | I32 -> OIRel32 (op, d, d, d + 1)
      | I64 -> OIRel64 (op, d)
      | F32 | F64 -> assert false)
  | FUnop (ty, op) -> emit ctx (OFUn (op, top ctx - 1, (match ty with F32 -> true | _ -> false)))
  | FBinop (ty, op) ->
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
      | I32 | I64 -> assert false)
  | FRelop (_, op) -> emit ctx (OFRel (op, top ctx - 1))
  | Cvtop op ->
    let s = top ctx - 1 in
    emit_peep ctx (match op with F64ConvertI32S -> OCvtIF (s, s) | _ -> OCvt (op, s, s))
  | MemorySize -> emit ctx (OMemSize (top ctx - 1))
  | MemoryGrow -> emit ctx (OMemGrow (top ctx - 1))
  | BrTable (targets, default) ->
    let cond_slot = before - 1 in
    let edges = Array.map (fun tgt -> branch_edge ctx cond_slot tgt) targets in
    let dedge = branch_edge ctx cond_slot default in
    emit ctx (OBrTable (cond_slot, edges, dedge));
    ctx.cdead <- 1
  | Return ->
    emit ctx (OJmp (branch_edge ctx before (List.length ctx.cframes - 1)));
    ctx.cdead <- 1
  | Block _ | Loop _ | If _ | Br _ | BrIf _ | Call _ | CallIndirect _ | LocalGet _ | LocalSet _
  | LocalTee _ | GlobalGet _ | GlobalSet _ | Load _ | Store _ | Const (VI32 _) ->
    invalid_arg "Fastinterp.leaf: structured, or a leaf with its own event"

let leaf ctx i =
  let before = top ctx in
  Validate.leaf ctx.check i;
  if live ctx then leaf_live ctx before i

let index ctx (op : index_op) x =
  let before = top ctx in
  Validate.index ctx.check op x;
  if live ctx then
    let env = ctx.check.env in
    match op with
    | Local_get -> emit ctx (mov ctx.check.locals.(x) (top ctx - 1) x)
    | Local_set ->
      (* Fusable: the producer of the popped slot can write the local
         directly. *)
      emit_peep ctx (mov ctx.check.locals.(x) x (top ctx))
    | Local_tee -> emit ctx (mov ctx.check.locals.(x) x (top ctx - 1))
    | Global_get ->
      let d = top ctx - 1 in
      emit ctx
        (match env.global_types.(x).content with
        | I32 -> OGlobalGetI (d, x)
        | I64 -> OGlobalGetL (d, x)
        | F32 | F64 -> OGlobalGetF (d, x))
    | Global_set ->
      let s = top ctx in
      emit ctx
        (match env.global_types.(x).content with
        | I32 -> OGlobalSetI (x, s)
        | I64 -> OGlobalSetL (x, s)
        | F32 | F64 -> OGlobalSetF (x, s))
    | Br_label ->
      emit_br ctx before x;
      ctx.cdead <- 1
    | Br_if_label ->
      let cond_slot = top ctx in
      emit_peep ctx (OBrIf (cond_slot, branch_edge ctx cond_slot x))
    | Call_func ->
      emit ctx (OCall (x, before - List.length env.func_types.(x).params))
    | Call_indirect_type ->
      let idx_slot = before - 1 in
      let args_base = idx_slot - List.length env.types.(x).params in
      emit ctx (OCallIndirect (x, idx_slot, args_base))

let i32_const ctx c =
  Validate.i32_const ctx.check c;
  if live ctx then emit ctx (OConstI (top ctx - 1, c))

let load ctx ty pack align offset =
  Validate.load ctx.check ty pack align offset;
  if live ctx then begin
    let s = top ctx - 1 in
    emit_peep ctx
      (match lkind_of ty pack with
      | LI32 -> OLoadI32 (offset, s, s)
      | LF64 -> OLoadF64 (offset, s, s)
      | k -> OLoad (k, offset, s))
  end

let store ctx ty pack align offset =
  Validate.store ctx.check ty pack align offset;
  if live ctx then begin
    let s = top ctx in
    emit_peep ctx
      (match skind_of ty pack with
      | SI32 -> OStoreI32 (offset, s, s + 1)
      | SF64 -> OStoreF64 (offset, s, s + 1)
      | k -> OStore (k, offset, s))
  end

let push_frame ?(start = -1) ?else_edge ctx =
  ctx.cframes <- { fr_start = start; fr_pending = []; fr_else = else_edge } :: ctx.cframes

let block ctx bt =
  Validate.block ctx.check bt;
  if live ctx then push_frame ctx else ctx.cdead <- ctx.cdead + 1

let loop ctx bt =
  Validate.loop ctx.check bt;
  if live ctx then begin
    mark_here ctx;
    (* Under fuel, the header op sits at [fr_start]: charged on fall-in
       and by every back edge, i.e. once per iteration — the same
       charging points as the tree-walker's [iterate]. *)
    let start = here ctx in
    if ctx.cfuel then emit ctx OFuel;
    push_frame ~start ctx
  end
  else ctx.cdead <- ctx.cdead + 1

let if_ ctx bt =
  Validate.if_ ctx.check bt;
  if live ctx then begin
    let else_edge = { target = -1; moves = [||] } in
    push_frame ~else_edge ctx;
    emit_peep ctx (OBrIfNot (top ctx, else_edge))
  end
  else ctx.cdead <- ctx.cdead + 1

(* The then-arm is over: it jumps past the else arm when it falls
   through, and the else arm (present or not) starts here. *)
let start_else ctx fr else_edge =
  (* At the natural end of the then-arm the values already sit at the
     label's entry height; skipping the else-arm needs no moves. *)
  if ctx.cdead = 0 then begin
    let e = { target = -1; moves = [||] } in
    emit ctx (OJmp e);
    fr.fr_pending <- e :: fr.fr_pending
  end;
  ctx.cdead <- 0;
  fr.fr_else <- None;
  mark_here ctx;
  else_edge.target <- here ctx

let else_ ctx =
  Validate.else_ ctx.check;
  if ctx.cdead <= 1 then
    match ctx.cframes with
    | ({ fr_else = Some else_edge; _ } as fr) :: _ -> start_else ctx fr else_edge
    | _ -> invalid_arg "Fastinterp.else_: no if to close"

let end_ ctx =
  Validate.end_ ctx.check;
  if ctx.cdead > 1 then ctx.cdead <- ctx.cdead - 1
  else
    match ctx.cframes with
    | [] -> invalid_arg "Fastinterp.end_: no block to close"
    | fr :: rest ->
      (match fr.fr_else with Some else_edge -> start_else ctx fr else_edge | None -> ());
      ctx.cdead <- 0;
      ctx.cframes <- rest;
      if fr.fr_start < 0 then begin
        let e = here ctx in
        if fr.fr_pending <> [] then mark_here ctx;
        List.iter (fun edge -> edge.target <- e) fr.fr_pending
      end;
      (* The label's results are on the stack. *)
      reached ctx

let sink = { leaf; index; i32_const; load; store; block; loop; if_; else_; end_ }

(* The flattener for the function [check] checks. Feed it the body's
   events through {!sink}, then take the code with [finish]. *)
let func_cctx ~fuel (check : Validate.context) =
  let ctx =
    {
      check;
      cnloc = Array.length check.locals;
      cmax = 0;
      cframes = [];
      cbuf = { arr = Array.make 32 OHalt; len = 0 };
      cmark = -1;
      cfuel = fuel;
      cdead = 0;
    }
  in
  (* The function's own label: returns and branches to it land on the
     trailing OHalt with the results already moved to stack slots
     0..arity-1 (register-file indices nloc..); natural fall-through
     leaves them there by construction. *)
  push_frame ctx;
  if fuel then emit ctx OFuel (* function entry *);
  ctx

let finish ctx : cbody =
  emit ctx OHalt;
  let check = ctx.check in
  let ft = check.env.func_types.(check.findex) in
  {
    cb_code = Array.sub ctx.cbuf.arr 0 ctx.cbuf.len;
    cb_nslots = ctx.cnloc + ctx.cmax;
    cb_nloc = ctx.cnloc;
    cb_param_types = Array.of_list ft.params;
    cb_result_types = Array.of_list ft.results;
  }

let no_body =
  { cb_code = [||]; cb_nslots = 0; cb_nloc = 0; cb_param_types = [||]; cb_result_types = [||] }

(** Decode, validate and flatten [bytes] in one pass, building no
    function body as an AST: the decoder sends each instruction to the
    flattener, whose step runs the checker's first. Accepts exactly the
    bytes that [Decode.decode] then [Validate.validate] accept, and
    otherwise raises what those two raise, with the same message. The
    result is instance-free: instantiate it any number of times. With
    [~fuel], the flattened code charges {!Instance.Fuel} once per
    function entry and per loop iteration, for running untrusted
    modules under a budget. The module-level checks run in
    {!Validate.validate}'s order: {!Validate.header} before the bodies,
    {!Validate.trailer} after them. The first check that does not pass
    ends the pass; since a decoding error anywhere beats any validation
    error, the whole module is then decoded, building no body
    ({!Decode.check}), before the check's error is raised. *)
let compile_bytes ?(fuel = false) bytes : cmodule =
  let env = ref None and bodies = ref [||] in
  let code m ftypes n r =
    (* A count mismatch is a decoding error, raised once every section
       has been read: until then the bodies are only decoded. *)
    if n <> List.length ftypes then ignore (Decode.funcs r n 0 [])
    else begin
      let e = Validate.header m ftypes in
      env := Some e;
      let compiled = Array.make n no_body in
      let read_body i locals r =
        let check = Validate.checker e i locals in
        let ctx = func_cctx ~fuel check in
        (try ignore (Decode.body ~build:false sink ctx r)
         with Validate.Invalid msg -> raise (Validate.in_function check msg));
        compiled.(i) <- finish ctx
      in
      for i = 0 to n - 1 do
        Decode.code_entry r read_body i
      done;
      bodies := compiled
    end;
    []
  in
  let m =
    try Decode.sections ~code bytes
    with Validate.Invalid _ as invalid ->
      Decode.check bytes;
      raise invalid
  in
  (* With no code section there are no functions, or [sections] has
     failed on the count mismatch. *)
  let env = match !env with Some env -> env | None -> Validate.header m [] in
  Validate.trailer env m;
  {
    cm_module = m;
    cm_func_types = env.func_types;
    cm_bodies = !bodies;
    cm_n_imported = env.n_imported;
  }

(** [counting cm] is a copy of [cm] that counts the ops it executes,
    and the reader of that count. Op [pc] of each body moves to
    [2 * pc + 1], behind an [OCount] at [2 * pc], and every pc an op
    carries (edge targets, [OBrTable]'s arrays, a back-edge's [next])
    becomes [2 * pc], so a jump counts the op it lands on. An edge
    shared by several ops is copied once (edges no longer change after
    {!compile_bytes}, so equal edges share one copy); [cm] is left
    untouched.
    For measurement (`bench wasm-ops`), not for running apps. *)
let counting (cm : cmodule) : cmodule * (unit -> int) =
  let tally = ref 0 in
  let copies = Hashtbl.create 64 in
  let edge (e : edge) =
    match Hashtbl.find_opt copies e with
    | Some copy -> copy
    | None ->
      let copy = { target = 2 * e.target; moves = e.moves } in
      Hashtbl.add copies e copy;
      copy
  in
  let relocate = function
    | OJmp e -> OJmp (edge e)
    | OBrIf (s, e) -> OBrIf (s, edge e)
    | OBrIfNot (s, e) -> OBrIfNot (s, edge e)
    | OBrTable (s, es, e) -> OBrTable (s, Array.map edge es, edge e)
    | OBrCmpR32 (op, a, b, e) -> OBrCmpR32 (op, a, b, edge e)
    | OBrCmpI32 (op, a, b, e) -> OBrCmpI32 (op, a, b, edge e)
    | OBackCmpI32 (d, a, c, op, x, y, e, next) -> OBackCmpI32 (d, a, c, op, x, y, edge e, 2 * next)
    | OBackCmpR32 (d, a, c, op, x, y, e, next) -> OBackCmpR32 (d, a, c, op, x, y, edge e, 2 * next)
    | o -> o
  in
  let body b =
    let code = b.cb_code in
    { b with
      cb_code =
        Array.init (2 * Array.length code) (fun i ->
            if i land 1 = 0 then OCount tally else relocate code.(i / 2)) }
  in
  ({ cm with cm_bodies = Array.map body cm.cm_bodies }, fun () -> !tally)

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

(* Generic (cold) load/store path: i64 words, f32 and the sub-width
   flavours. i32 and f64 words have dedicated ops in the dispatch loop
   and never reach their arms here, which keep [lkind] and [skind] the
   whole type-by-width table. *)
let exec_load fr kind off s =
  let m = fr.inst.memories.(0) in
  let data = m.Memory.data in
  let a = u32 fr.xi.(s) + off in
  match kind with
  | LI32 -> fr.xi.(s) <- Int32.to_int (ld32 data a)
  | LI64 -> fr.xl.(s) <- ld64 data a
  | LF32 -> fr.xf.(s) <- Int32.float_of_bits (ld32 data a)
  | LF64 -> fr.xf.(s) <- Int64.float_of_bits (ld64 data a)
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
  | LI64_32S -> fr.xl.(s) <- Int64.of_int32 (ld32 data a)
  | LI64_32U -> fr.xl.(s) <- Int64.logand (Int64.of_int32 (ld32 data a)) 0xffffffffL

let exec_store fr kind off s =
  let m = fr.inst.memories.(0) in
  let data = m.Memory.data in
  let a = u32 fr.xi.(s) + off in
  match kind with
  | SI32 -> st32 data a (Int32.of_int fr.xi.(s + 1))
  | SI64 -> st64 data a fr.xl.(s + 1)
  | SF32 -> st32 data a (Int32.bits_of_float fr.xf.(s + 1))
  | SF64 -> st64 data a (Int64.bits_of_float fr.xf.(s + 1))
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
  | SI64_32 -> st32 data a (Int64.to_int32 fr.xl.(s + 1))

(* The dispatch loop: fetch, match, continue at [pc + 1] or at the
   precomputed edge target. A tail-recursive inner loop keeps the
   program counter in a register (no ref cell), the register files are
   hoisted out of the frame, and slot accesses are unchecked — indices
   are static stack heights guaranteed in-range by validation. The hot
   arms (i32 index arithmetic, f64 arithmetic, comparisons, i32 and f64
   loads/stores) are resolved by this single match; cold arms call the
   generic helpers above. *)
let[@inline] rel32 op a b =
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

let mem0_data inst =
  if Array.length inst.memories = 0 then Bytes.empty
  else (Array.unsafe_get inst.memories 0).Memory.data

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
      call_func fr (Array.unsafe_get inst.funcs fidx) base;
      (* the callee may have grown memory: refetch the bytes *)
      dispatch fr xi xl xf inst code (mem0_data inst) (pc + 1)
    | OCallIndirect (tidx, s, base) ->
      let table = inst.tables.(0) in
      let i = u32 (Array.unsafe_get xi s) in
      if i >= Array.length table then raise (Trap "undefined element");
      (match table.(i) with
      | None -> raise (Trap "uninitialized element")
      | Some callee ->
        if not (functype_equal (type_of_ffuncinst callee) inst.types.(tidx)) then
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
      (match inst.globals.(i).gvalue with
      | VI32 x -> Array.unsafe_set xi d (Int32.to_int x)
      | VI64 _ | VF32 _ | VF64 _ -> raise (Trap "global type confusion"));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OGlobalGetL (d, i) ->
      (match inst.globals.(i).gvalue with
      | VI64 x -> Array.unsafe_set xl d x
      | VI32 _ | VF32 _ | VF64 _ -> raise (Trap "global type confusion"));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OGlobalGetF (d, i) ->
      (match inst.globals.(i).gvalue with
      | VF32 x | VF64 x -> Array.unsafe_set xf d x
      | VI32 _ | VI64 _ -> raise (Trap "global type confusion"));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OGlobalSetI (i, s) ->
      inst.globals.(i).gvalue <- VI32 (Int32.of_int (Array.unsafe_get xi s));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OGlobalSetL (i, s) ->
      inst.globals.(i).gvalue <- VI64 (Array.unsafe_get xl s);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OGlobalSetF (i, s) ->
      (let g = inst.globals.(i) in
       g.gvalue <-
         (match g.gity.content with
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
    | OBin3I32 (op, d, a, v) ->
      let x = Array.unsafe_get xi a in
      Array.unsafe_set xi d
        (match op with
        | Add -> wrap32 (x + v)
        | Sub -> wrap32 (x - v)
        | Mul -> wrap32 (x * v)
        | And -> x land v
        | Or | Xor | Shl | ShrS | ShrU | DivS | DivU | RemS | RemU | Rotl | Rotr ->
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
      Array.unsafe_set xi d
        (if rel32 op (Array.unsafe_get xi sa) (Array.unsafe_get xi sb) then 1 else 0);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OIRelI32 (op, d, sa, b) ->
      Array.unsafe_set xi d (if rel32 op (Array.unsafe_get xi sa) b then 1 else 0);
      dispatch fr xi xl xf inst code data (pc + 1)
    | OBrCmpR32 (op, sa, sb, e) ->
      if rel32 op (Array.unsafe_get xi sa) (Array.unsafe_get xi sb) then begin
        if Array.length e.moves <> 0 then apply_moves fr e.moves;
        dispatch fr xi xl xf inst code data e.target
      end
      else dispatch fr xi xl xf inst code data (pc + 1)
    | OBrCmpI32 (op, sa, b, e) ->
      if rel32 op (Array.unsafe_get xi sa) b then begin
        if Array.length e.moves <> 0 then apply_moves fr e.moves;
        dispatch fr xi xl xf inst code data e.target
      end
      else dispatch fr xi xl xf inst code data (pc + 1)
    | OBackCmpI32 (d, a, step, op, sx, b, e, next) ->
      Array.unsafe_set xi d (wrap32 (Array.unsafe_get xi a + step));
      if rel32 op (Array.unsafe_get xi sx) b then begin
        if Array.length e.moves <> 0 then apply_moves fr e.moves;
        dispatch fr xi xl xf inst code data e.target
      end
      else dispatch fr xi xl xf inst code data next
    | OBackCmpR32 (d, a, step, op, sx, sy, e, next) ->
      Array.unsafe_set xi d (wrap32 (Array.unsafe_get xi a + step));
      if rel32 op (Array.unsafe_get xi sx) (Array.unsafe_get xi sy) then begin
        if Array.length e.moves <> 0 then apply_moves fr e.moves;
        dispatch fr xi xl xf inst code data e.target
      end
      else dispatch fr xi xl xf inst code data next
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
    | OFMulAdd64 (d, acc, a, b) ->
      (* [acc] is bound first so it stays the add's first operand, as
         in the unfused OFAdd64: of two NaNs, the add returns the first *)
      let s = Array.unsafe_get xf acc in
      Array.unsafe_set xf d (s +. (Array.unsafe_get xf a *. Array.unsafe_get xf b));
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
      Array.unsafe_set xi d (Int32.to_int (ld32 data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadF64 (off, d, s) ->
      let a = u32 (Array.unsafe_get xi s) + off in
      Array.unsafe_set xf d (Int64.float_of_bits (ld64 data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreI32 (off, s, v) ->
      let a = u32 (Array.unsafe_get xi s) + off in
      st32 data a (Int32.of_int (Array.unsafe_get xi v));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreF64 (off, s, v) ->
      let a = u32 (Array.unsafe_get xi s) + off in
      st64 data a (Int64.bits_of_float (Array.unsafe_get xf v));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OScaled (d, x, k, b) ->
      Array.unsafe_set xi d (wrap32 ((Array.unsafe_get xi x lsl k) + b));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OScaledR (d, x, k, r) ->
      Array.unsafe_set xi d (wrap32 ((Array.unsafe_get xi x lsl k) + Array.unsafe_get xi r));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadI32X (off, b, d, x, k) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + b)) + off in
      Array.unsafe_set xi d (Int32.to_int (ld32 data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadF64X (off, b, d, x, k) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + b)) + off in
      Array.unsafe_set xf d (Int64.float_of_bits (ld64 data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadI32RX (off, d, x, k, r) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + Array.unsafe_get xi r)) + off in
      Array.unsafe_set xi d (Int32.to_int (ld32 data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadF64RX (off, d, x, k, r) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + Array.unsafe_get xi r)) + off in
      Array.unsafe_set xf d (Int64.float_of_bits (ld64 data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreI32X (off, b, x, k, v) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + b)) + off in
      st32 data a (Int32.of_int (Array.unsafe_get xi v));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreF64X (off, b, x, k, v) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + b)) + off in
      st64 data a (Int64.bits_of_float (Array.unsafe_get xf v));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStoreF64RX (off, x, k, r, v) ->
      let a = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + Array.unsafe_get xi r)) + off in
      st64 data a (Int64.bits_of_float (Array.unsafe_get xf v));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OMulAdd32 (d, x, n, y, k, b) ->
      Array.unsafe_set xi d
        (wrap32 ((((Array.unsafe_get xi x * n) + Array.unsafe_get xi y) lsl k) + b));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadI32M (off, b, d, x, n, y, k) ->
      let a =
        u32 (wrap32 ((((Array.unsafe_get xi x * n) + Array.unsafe_get xi y) lsl k) + b)) + off
      in
      Array.unsafe_set xi d (Int32.to_int (ld32 data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoadF64M (off, b, d, x, n, y, k) ->
      let a =
        u32 (wrap32 ((((Array.unsafe_get xi x * n) + Array.unsafe_get xi y) lsl k) + b)) + off
      in
      Array.unsafe_set xf d (Int64.float_of_bits (ld64 data a));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OCopyI32X (soff, s, off, b, x, k) ->
      let src = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + b)) + off in
      let w = ld32 data src in
      st32 data (u32 (Array.unsafe_get xi s) + soff) w;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OCopyI32RX (soff, s, off, x, k, r) ->
      let src = u32 (wrap32 ((Array.unsafe_get xi x lsl k) + Array.unsafe_get xi r)) + off in
      let w = ld32 data src in
      st32 data (u32 (Array.unsafe_get xi s) + soff) w;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OLoad (kind, off, s) ->
      exec_load fr kind off s;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OStore (kind, off, s) ->
      exec_store fr kind off s;
      dispatch fr xi xl xf inst code data (pc + 1)
    | OMemSize d ->
      Array.unsafe_set xi d (Memory.size_pages inst.memories.(0));
      dispatch fr xi xl xf inst code data (pc + 1)
    | OMemGrow s ->
      Array.unsafe_set xi s (Memory.grow inst.memories.(0) (Array.unsafe_get xi s));
      dispatch fr xi xl xf inst code (mem0_data inst) (pc + 1)
    | OCount n ->
      incr n;
      dispatch fr xi xl xf inst code data (pc + 1)

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
    (* Before the callee's entry charges fuel, as in {!Interp}. *)
    check_depth finst;
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
    finst.depth <- finst.depth + 1;
    (try exec fr fbody.cb_code
     with e ->
       finst.depth <- finst.depth - 1;
       if pooled then w.fbusy <- false;
       raise e);
    finst.depth <- finst.depth - 1;
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

let of_host (h : host) =
  FHost
    {
      fhtype = h.h_type;
      fh_params = Array.of_list h.h_type.params;
      fh_results = Array.of_list h.h_type.results;
      fimpl = h.h_impl;
    }

(** Link a compiled module for this tier ({!Instance.instantiate}). The
    start function, if any, is run by {!run_start} (call it explicitly,
    as the embedder controls timing measurements around it). *)
let instantiate ?imports (cm : cmodule) : finstance =
  Instance.instantiate ~of_host ~n_own:(Array.length cm.cm_bodies)
    ~own:(fun inst i ->
      let fbody = cm.cm_bodies.(i) in
      FWasm
        {
          fftype = cm.cm_func_types.(cm.cm_n_imported + i);
          fbody;
          finst = inst;
          fframe0 = make_frame inst fbody;
          fbusy = false;
        })
    ?imports cm.cm_module

(* ------------------------------------------------------------------ *)
(* Invocation *)

(** Call a flattened or host function with boxed values. *)
let invoke_funcinst (fi : ffuncinst) (args : value list) : value list =
  let ft = type_of_ffuncinst fi in
  check_args ft args;
  match fi with
  | FHost h -> h.fimpl (Array.of_list args)
  | FWasm { fbody; finst; _ } ->
    check_depth finst;
    let fr = make_frame finst fbody in
    List.iteri
      (fun i v ->
        match v with
        | VI32 x -> fr.xi.(i) <- Int32.to_int x
        | VI64 x -> fr.xl.(i) <- x
        | VF32 x | VF64 x -> fr.xf.(i) <- x)
      args;
    finst.depth <- finst.depth + 1;
    (try exec fr fbody.cb_code
     with e ->
       finst.depth <- finst.depth - 1;
       raise e);
    finst.depth <- finst.depth - 1;
    List.mapi (fun i t -> read_slot fr t (fbody.cb_nloc + i)) ft.results

(** Invoke an exported function by name. Raises [Not_found] if the
    export is missing or not a function. *)
let invoke (inst : finstance) name args =
  match export_func inst name with
  | Some f -> invoke_funcinst f args
  | None -> raise Not_found

(** Run the module's start function, if any. *)
let run_start (inst : finstance) =
  match inst.module_.start with
  | None -> ()
  | Some f -> ignore (invoke_funcinst inst.funcs.(f) [])
