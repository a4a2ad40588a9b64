(** The WaTZ runtime: a trusted application hosting Wasm inside the
    secure world (§III, Fig. 1/2).

    Launch flow, as in the paper: a normal-world client places the
    Wasm binary in shared memory and invokes the (vendor-signed) WaTZ
    TA; the runtime copies the bytecode into secure memory, {e
    measures} it (the attestation claim), obtains executable pages via
    the kernel extension, loads and instantiates the module with WASI +
    WASI-RA bound to the GP API, and starts execution. Each phase is
    timed to regenerate the Fig. 4 startup breakdown.

    Every launch is cold, as in the paper: the bytecode is measured
    and prepared again each time, and the runtime keeps no state
    between launches. A launch that fails at any step gives back the
    shared memory and the TA session it took, so normal-world bytes
    cannot exhaust the TEE's pools.

    Execution runs on a selectable tier ({!Engine.tier}): the
    tree-walking interpreter, or the default fast tier (pre-decoded
    linear bytecode, standing in for the paper's AOT). *)

module Wasi = Watz_wasi.Wasi
module Wasi_ra = Watz_wasi.Wasi_ra

type exec_tier = Engine.tier = Interp | Fast

type config = {
  heap_bytes : int; (* TA heap reserved at session open (paper: per experiment) *)
  pump : unit -> unit; (* normal-world scheduling hook for WASI-RA *)
  tier : exec_tier;
}

let default_config = { heap_bytes = 2 * 1024 * 1024; pump = (fun () -> ()); tier = Fast }

(** Wall-clock phase breakdown of a launch (Fig. 4). [transition_ns]
    is the simulated world-switch cost; the others are measured. *)
type startup = {
  transition_ns : float;
  alloc_ns : float; (* secure buffers + executable pages *)
  hash_ns : float; (* bytecode measurement *)
  runtime_init_ns : float; (* runtime environment + native symbols *)
  load_ns : float; (* parsing + validation + pre-compilation *)
  instantiate_ns : float; (* linking + segments *)
  execute_ns : float; (* run to completion of the entry point *)
}

let total_ns s =
  s.transition_ns +. s.alloc_ns +. s.hash_ns +. s.runtime_init_ns +. s.load_ns
  +. s.instantiate_ns +. s.execute_ns

type app = {
  claim : string; (* SHA-256 measurement of the bytecode *)
  tier : exec_tier;
  invoke_label : string; (* static span name, so invoke never allocates for tracing *)
  instance : Engine.instance;
  wasi_env : Wasi.env;
  ra_env : Wasi_ra.env;
  output : Buffer.t;
  startup : startup;
  session : Watz_tz.Optee.session;
  soc : Watz_tz.Soc.t;
}

(** Measure the bytecode exactly as the runtime does at launch, without
    launching (verifiers use it to compute reference claims). *)
let measure wasm_bytes = Watz_crypto.Sha256.digest wasm_bytes

(* A no-op: every launch is cold. [benchsuite/workloads.ml] still calls
   it before each cold launch, from when the runtime kept a module
   cache; it goes once that caller does. *)
let cache_clear () = ()

let watz_ta_uuid = "a7c9e1f0-watz-runtime"

(** The WaTZ runtime TA descriptor; it must be vendor-signed to load,
    unlike the Wasm applications it hosts. *)
let runtime_ta ~config =
  {
    Watz_tz.Optee.ta_uuid = watz_ta_uuid;
    ta_code_id = Watz_crypto.Sha256.digest "watz-runtime-code-1.0";
    ta_signature = None;
    ta_heap_bytes = config.heap_bytes;
    ta_stack_bytes = 3 * 1024;
    ta_invoke = (fun _ ~cmd:_ _ -> "");
  }

(** A trap in the app, in the [_start] that {!load} runs or in an
    {!invoke}: the Wasm engine's own trap, under the runtime's name. *)
exception App_trap = Watz_wasm.Instance.Trap

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  ((Unix.gettimeofday () -. t0) *. 1e9, r)

(** [load soc ~config wasm_bytes] performs the full launch sequence
    and runs the module's exported [_start] if present (pass
    [~entry:None] to skip). Returns the running app for further
    invocations. If any step raises, the shared memory and the TA
    session are released before the exception is re-raised. *)
let load ?(config = default_config) ?(entry = Some "_start") soc wasm_bytes =
  let module T = Watz_obs.Trace in
  let trace = Watz_tz.Soc.tracer soc in
  let sid = T.no_session in
  T.begin_ trace T.Normal ~session:sid "runtime.load";
  let os = Watz_tz.Soc.optee soc in
  (* What the launch holds in the TEE until it returns. *)
  let staged = ref None and opened = ref None in
  try
    (* Normal world: stage the binary in shared memory (9 MB cap). *)
    let shm = Watz_tz.Optee.shm_alloc os (String.length wasm_bytes) in
    staged := Some shm;
    Watz_tz.Optee.shm_write_normal os shm ~off:0 wasm_bytes;
    (* Open the runtime TA session (signature check + heap reservation). *)
    let ta = Watz_tz.Soc.sign_ta soc (runtime_ta ~config) in
    let session = Watz_tz.Optee.open_session os ta in
    opened := Some session;
    let transition_ns = float_of_int Watz_tz.Simclock.smc_enter_ns in
    Watz_tz.Simclock.advance soc.Watz_tz.Soc.clock Watz_tz.Simclock.smc_enter_ns;
    (* Secure world: copy in, account heap, obtain executable pages. *)
    let alloc_ns, bytecode =
      time (fun () ->
          let code = Watz_tz.Optee.shm_read_secure os shm ~off:0 ~len:shm.Watz_tz.Optee.shm_size in
          Watz_tz.Optee.ta_malloc session (String.length code);
          Watz_tz.Optee.ta_mprotect_exec session (String.length code);
          code)
    in
    Watz_tz.Optee.shm_free os shm;
    let hash_ns, claim =
      T.span trace T.Secure ~session:sid "launch.measure" (fun () ->
          time (fun () -> measure bytecode))
    in
    let output = Buffer.create 256 in
    let runtime_init_ns, (wasi_env, ra_env) =
      T.span trace T.Secure ~session:sid "launch.runtime_init" @@ fun () ->
      time (fun () ->
          let wasi_env =
            Wasi.make_env ~args:[ "app.wasm" ]
              ~clock_ns:(fun () ->
                (* WASI clock_time_get: RPC to the normal world plus the
                   WASI dispatch overhead (Fig. 3a: ~13 us for Wasm). *)
                Watz_tz.Simclock.advance soc.Watz_tz.Soc.clock Watz_tz.Simclock.wasi_dispatch_ns;
                Watz_tz.Optee.ree_time_ns os)
              ~random:(Watz_tz.Optee.generate_random os)
              ~write_out:(Buffer.add_string output) ()
          in
          let ra_env =
            Wasi_ra.make_env ~os ~claim ~random:(Watz_tz.Optee.generate_random os)
              ~pump:config.pump wasi_env
          in
          (wasi_env, ra_env))
    in
    (* Load phase: decode + validate + tier pre-compilation. *)
    let load_ns, prepared =
      T.span trace T.Secure ~session:sid "launch.load" @@ fun () ->
      time (fun () -> Engine.prepare ~trace ~sid config.tier bytecode)
    in
    let instantiate_ns, instance =
      T.span trace T.Secure ~session:sid "launch.instantiate" @@ fun () ->
      time (fun () ->
          let inst = Engine.instantiate ~trace ~sid ~ra_env ~wasi_env prepared in
          (* Enforce the TA heap budget on the app's linear memory. *)
          (match wasi_env.Wasi.memory with
          | Some mem -> Watz_wasm.Instance.Memory.set_limit_bytes mem (Some config.heap_bytes)
          | None -> ());
          inst)
    in
    let execute_ns, () =
      T.span trace T.Secure ~session:sid "launch.execute" @@ fun () ->
      time (fun () ->
          match entry with
          | None -> ()
          | Some name -> (
            try ignore (Engine.invoke_opt instance name [])
            with Wasi.Proc_exit code -> wasi_env.Wasi.exit_code <- Some code))
    in
    Watz_tz.Simclock.advance soc.Watz_tz.Soc.clock Watz_tz.Simclock.smc_return_ns;
    T.end_ trace T.Normal ~session:sid "runtime.load";
    {
      claim;
      tier = config.tier;
      invoke_label = (match config.tier with Interp -> "invoke.interp" | Fast -> "invoke.fast");
      instance;
      wasi_env;
      ra_env;
      output;
      startup =
        { transition_ns; alloc_ns; hash_ns; runtime_init_ns; load_ns; instantiate_ns; execute_ns };
      session;
      soc;
    }
  with e ->
    (* Bytes from the normal world must not be able to exhaust the
       TEE's pools: give back what the launch took (both releases are
       idempotent) and re-raise. *)
    let bt = Printexc.get_raw_backtrace () in
    Option.iter (Watz_tz.Optee.shm_free os) !staged;
    Option.iter Watz_tz.Optee.close_session !opened;
    T.end_ trace T.Normal ~session:sid "runtime.load";
    Printexc.raise_with_backtrace e bt

(** Invoke an export of a loaded app (stays in the secure world; the
    caller is charged one world round trip). Raises [App_trap] when the
    app traps and [Not_found] when the export is missing. *)
let invoke app name args =
  Watz_tz.Soc.smc app.soc (fun () ->
      Watz_obs.Trace.span (Watz_tz.Soc.tracer app.soc) Watz_obs.Trace.Secure
        ~session:Watz_obs.Trace.no_session app.invoke_label (fun () ->
          Engine.invoke app.instance name args))

let output app = Buffer.contents app.output
let claim app = app.claim

(** The app's exported linear memory, if any. *)
let export_memory app = Engine.export_memory app.instance

let unload app = Watz_tz.Optee.close_session app.session
