(** Execution-tier selection: one front door to the two Wasm engines.

    WAMR spans "interpreted is the simplest yet slowest" to LLVM AOT
    (§III); our reproduction mirrors the two ends of that spectrum:

    - [Interp] — the tree-walking {!Watz_wasm.Interp} (slowest, no
      preparation cost beyond decode/validate); also the reference
      oracle of the differential fuzzer;
    - [Fast]   — the pre-decoded linear-bytecode {!Watz_wasm.Fastinterp}
      (flattened once at load, direct branch targets, typed register
      files). It stands in for the paper's AOT column and is the
      runtime default.

    [prepare] turns raw bytecode into a tier-specific, instance-free
    artifact; [instantiate] links it against WASI (and optionally
    WASI-RA) and attaches the exported memory to the WASI environment. *)

module Wasi = Watz_wasi.Wasi
module Wasi_ra = Watz_wasi.Wasi_ra
module W = Watz_wasm
module T = Watz_obs.Trace

type tier = Interp | Fast

let all_tiers = [ Interp; Fast ]
let tier_name = function Interp -> "interp" | Fast -> "fast"

let tier_of_string = function
  | "interp" -> Some Interp
  | "fast" -> Some Fast
  | _ -> None

(** A prepared module: decoded, validated, and (for the fast tier)
    flattened. Contains no instance state. *)
type prepared = P_interp of W.Ast.module_ | P_fast of W.Fastinterp.cmodule

type instance = I_interp of W.Interp.funcinst W.Instance.t | I_fast of W.Fastinterp.finstance

(** Decode + validate + tier-specific pre-compilation. The stages
    trace as secure-world spans (they run inside the runtime TA); pass
    the board's tracer to see them. The interp tier decodes to an AST
    ([engine.decode]) and validates it ([engine.validate]). The fast
    tier does all three in one pass over the bytes
    ({!Watz_wasm.Fastinterp.compile_bytes}), with no function body
    built as an AST, so it is one span, [engine.prepare]. Both raise
    the same [Malformed] or [Invalid] on the same bytes. *)
let prepare ?(trace = T.null) ?(sid = T.no_session) tier bytes : prepared =
  match tier with
  | Interp ->
    let m = T.span trace T.Secure ~session:sid "engine.decode" (fun () -> W.Decode.decode bytes) in
    T.span trace T.Secure ~session:sid "engine.validate" (fun () -> W.Validate.validate m);
    P_interp m
  | Fast ->
    P_fast
      (T.span trace T.Secure ~session:sid "engine.prepare" (fun () ->
           W.Fastinterp.compile_bytes bytes))

(** Link a prepared module against WASI (and WASI-RA when [ra_env] is
    given) and attach the exported linear memory to [wasi_env]. *)
let instantiate ?(trace = T.null) ?(sid = T.no_session) ?ra_env ~wasi_env (p : prepared) :
    instance =
  T.span trace T.Secure ~session:sid "engine.instantiate" @@ fun () ->
  let imports =
    Wasi.imports wasi_env @ (match ra_env with Some e -> Wasi_ra.imports e | None -> [])
  in
  match p with
  | P_interp m ->
    let inst = W.Interp.instantiate ~imports m in
    Wasi.attach_memory wasi_env inst;
    I_interp inst
  | P_fast cm ->
    let inst = W.Fastinterp.instantiate ~imports cm in
    Wasi.attach_memory wasi_env inst;
    I_fast inst

(** Invoke an exported function. Raises [Not_found] when the export is
    missing or not a function; traps propagate as
    [Watz_wasm.Instance.Trap]. *)
let invoke (i : instance) name args =
  match i with
  | I_interp inst -> (
    match W.Instance.export_func inst name with
    | Some f -> W.Interp.invoke f args
    | None -> raise Not_found)
  | I_fast inst -> W.Fastinterp.invoke inst name args

(** Like {!invoke}, but [None] when the export is absent (used for
    optional entry points such as [_start]). *)
let invoke_opt (i : instance) name args =
  match i with
  | I_interp inst -> (
    match W.Instance.export_func inst name with
    | Some f -> Some (W.Interp.invoke f args)
    | None -> None)
  | I_fast inst -> (
    match W.Instance.export_func inst name with
    | Some f -> Some (W.Fastinterp.invoke_funcinst f args)
    | None -> None)

(** The instance's exported "memory", if any. *)
let export_memory (i : instance) =
  match i with
  | I_interp inst -> W.Instance.export_memory inst "memory"
  | I_fast inst -> W.Instance.export_memory inst "memory"
