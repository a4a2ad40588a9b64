(** The WaTZ runtime: a trusted application hosting Wasm inside the
    secure world (§III, Fig. 1/2).

    Launch flow, as in the paper: a normal-world client places the
    Wasm binary in shared memory and invokes the (vendor-signed) WaTZ
    TA; the runtime copies the bytecode into secure memory, {e
    measures} it (the attestation claim), obtains executable pages via
    the kernel extension, loads and instantiates the module with WASI +
    WASI-RA bound to the GP API, and starts execution. Each phase is
    timed to regenerate the Fig. 4 startup breakdown.

    Execution runs on a selectable tier ({!Engine.tier}): the
    tree-walking interpreter, or the default fast tier (pre-decoded
    linear bytecode, standing in for the paper's AOT). Prepared modules
    are cached keyed by the SHA-256 measurement the attestation path
    computes anyway: a second [load] of already-measured bytecode skips
    decode/validate (and, on the fast tier, the whole flattening pass)
    — the trusted-runtime analogue of Twine's in-enclave module cache. *)

module Wasi = Watz_wasi.Wasi
module Wasi_ra = Watz_wasi.Wasi_ra

type exec_tier = Engine.tier = Interp | Fast

type config = {
  heap_bytes : int; (* TA heap reserved at session open (paper: per experiment) *)
  stack_bytes : int;
  args : string list;
  pump : unit -> unit; (* normal-world scheduling hook for WASI-RA *)
  tier : exec_tier;
  use_cache : bool; (* measurement-keyed prepared-module cache *)
}

let default_config =
  {
    heap_bytes = 2 * 1024 * 1024;
    stack_bytes = 3 * 1024;
    args = [ "app.wasm" ];
    pump = (fun () -> ());
    tier = Fast;
    use_cache = true;
  }

(** Wall-clock phase breakdown of a launch (Fig. 4). [transition_ns]
    is the simulated world-switch cost; the others are measured.
    [cache_hit] records whether the prepared module came out of the
    measurement-keyed cache (in which case [load_ns] is just the
    lookup). *)
type startup = {
  transition_ns : float;
  alloc_ns : float; (* secure buffers + executable pages *)
  hash_ns : float; (* bytecode measurement *)
  runtime_init_ns : float; (* runtime environment + native symbols *)
  load_ns : float; (* parsing + validation + pre-compilation *)
  instantiate_ns : float; (* linking + segments *)
  execute_ns : float; (* run to completion of the entry point *)
  cache_hit : bool;
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

(* The prepared-module cache, keyed by (measurement, tier). Entries are
   instance-free (Engine.prepared), so sharing them across apps — and
   across SoCs — is safe; each load still links its own instance.

   The cache, the measurement memo and their hit/miss registry are the
   only process-wide mutable state in the runtime, shared by every
   fleet shard; [cache_lock] serialises all access (stdlib Hashtbl is
   not domain-safe). The critical sections never run Wasm or crypto —
   at most one module prepare under a cold miss — so contention is
   confined to cache bookkeeping. *)
let cache_lock = Mutex.create ()

let locked f = Mutex.protect cache_lock f

let module_cache : (string * exec_tier, Engine.prepared) Hashtbl.t = Hashtbl.create 16

(* Measurement memo: repeated loads of the same bytecode (attestation
   storms re-run one module per session) skip the SHA-256 pass. The
   lookup costs a sampled Hashtbl.hash plus one full String.equal —
   memcmp speed, well under a digest. Bounded so a parade of distinct
   modules cannot pin their bytecode strings forever. *)
let measure_cache : (string, string) Hashtbl.t = Hashtbl.create 16

(** Runtime-wide metrics: hit/miss counters for the measurement memo
    and the prepared-module cache, so cache behaviour is observable
    (and testable) instead of inferred from timing. Reset along with
    the caches by {!cache_clear}. *)
let metrics = Watz_obs.Metrics.create ()

let measure wasm_bytes =
  match locked (fun () -> Hashtbl.find_opt measure_cache wasm_bytes) with
  | Some claim ->
    locked (fun () -> Watz_obs.Metrics.incr metrics "measure_memo.hits");
    claim
  | None ->
    (* Digest outside the lock; a racing domain at worst re-digests the
       same bytes and stores the identical claim. *)
    let claim = Watz_crypto.Sha256.digest wasm_bytes in
    locked (fun () ->
        Watz_obs.Metrics.incr metrics "measure_memo.misses";
        if Hashtbl.length measure_cache >= 64 then Hashtbl.reset measure_cache;
        Hashtbl.replace measure_cache wasm_bytes claim);
    claim

let cache_clear () =
  locked (fun () ->
      Hashtbl.reset module_cache;
      Hashtbl.reset measure_cache;
      Watz_obs.Metrics.reset metrics)

let cache_size () = locked (fun () -> Hashtbl.length module_cache)

(** (hits, misses) of the prepared-module cache since the last
    {!cache_clear}. *)
let module_cache_stats () =
  locked (fun () ->
      ( Watz_obs.Metrics.Counter.get (Watz_obs.Metrics.counter metrics "module_cache.hits"),
        Watz_obs.Metrics.Counter.get (Watz_obs.Metrics.counter metrics "module_cache.misses") ))

(** (hits, misses) of the measurement memo since the last
    {!cache_clear}. *)
let measure_memo_stats () =
  locked (fun () ->
      ( Watz_obs.Metrics.Counter.get (Watz_obs.Metrics.counter metrics "measure_memo.hits"),
        Watz_obs.Metrics.Counter.get (Watz_obs.Metrics.counter metrics "measure_memo.misses") ))

let watz_ta_uuid = "a7c9e1f0-watz-runtime"

(** The WaTZ runtime TA descriptor; it must be vendor-signed to load,
    unlike the Wasm applications it hosts. *)
let runtime_ta ~config =
  {
    Watz_tz.Optee.ta_uuid = watz_ta_uuid;
    ta_code_id = Watz_crypto.Sha256.digest "watz-runtime-code-1.0";
    ta_signature = None;
    ta_heap_bytes = config.heap_bytes;
    ta_stack_bytes = config.stack_bytes;
    ta_invoke = (fun _ ~cmd:_ _ -> "");
  }

exception App_trap of string

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  ((Unix.gettimeofday () -. t0) *. 1e9, r)

(** [load soc ~config wasm_bytes] performs the full launch sequence
    and runs the module's exported [_start] if present (pass
    [~entry:None] to skip). Returns the running app for further
    invocations. *)
let load ?(config = default_config) ?(entry = Some "_start") soc wasm_bytes =
  let module T = Watz_obs.Trace in
  let trace = Watz_tz.Soc.tracer soc in
  let sid = T.no_session in
  T.begin_ trace T.Normal ~session:sid "runtime.load";
  let os = Watz_tz.Soc.optee soc in
  (* Normal world: stage the binary in shared memory (9 MB cap). *)
  let shm = Watz_tz.Optee.shm_alloc os (String.length wasm_bytes) in
  Watz_tz.Optee.shm_write_normal os shm ~off:0 wasm_bytes;
  (* Open the runtime TA session (signature check + heap reservation). *)
  let ta = Watz_tz.Soc.sign_ta soc (runtime_ta ~config) in
  let session = Watz_tz.Optee.open_session os ta in
  let transition_ns = float_of_int soc.Watz_tz.Soc.costs.Watz_tz.Simclock.smc_enter_ns in
  Watz_tz.Simclock.advance soc.Watz_tz.Soc.clock soc.Watz_tz.Soc.costs.Watz_tz.Simclock.smc_enter_ns;
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
          Wasi.make_env ~args:config.args
            ~clock_ns:(fun () ->
              (* WASI clock_time_get: RPC to the normal world plus the
                 WASI dispatch overhead (Fig. 3a: ~13 us for Wasm). *)
              Watz_tz.Simclock.advance soc.Watz_tz.Soc.clock
                soc.Watz_tz.Soc.costs.Watz_tz.Simclock.wasi_dispatch_ns;
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
  (* Load phase: decode + validate + tier pre-compilation, or a cache
     hit on the measurement computed above. *)
  let cache_key = (claim, config.tier) in
  let cache_hit =
    config.use_cache && locked (fun () -> Hashtbl.mem module_cache cache_key)
  in
  if config.use_cache then begin
    if cache_hit then begin
      locked (fun () -> Watz_obs.Metrics.incr metrics "module_cache.hits");
      T.instant trace T.Secure ~session:sid "module_cache.hit"
    end
    else begin
      locked (fun () -> Watz_obs.Metrics.incr metrics "module_cache.misses");
      T.instant trace T.Secure ~session:sid "module_cache.miss"
    end
  end;
  let load_ns, prepared =
    T.span trace T.Secure ~session:sid "launch.load" @@ fun () ->
    time (fun () ->
        match
          if config.use_cache then locked (fun () -> Hashtbl.find_opt module_cache cache_key)
          else None
        with
        | Some p -> p
        | None ->
          (* Prepare outside the lock (it is the expensive step); a
             concurrent miss on the same key prepares twice and the
             last store wins — both values are equivalent. *)
          let p = Engine.prepare ~trace ~sid config.tier bytecode in
          if config.use_cache then locked (fun () -> Hashtbl.replace module_cache cache_key p);
          p)
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
  Watz_tz.Simclock.advance soc.Watz_tz.Soc.clock soc.Watz_tz.Soc.costs.Watz_tz.Simclock.smc_return_ns;
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
      {
        transition_ns;
        alloc_ns;
        hash_ns;
        runtime_init_ns;
        load_ns;
        instantiate_ns;
        execute_ns;
        cache_hit;
      };
    session;
    soc;
  }

(** Invoke an export of a loaded app (stays in the secure world; the
    caller is charged one world round trip). *)
let invoke app name args =
  Watz_tz.Soc.smc app.soc (fun () ->
      Watz_obs.Trace.span (Watz_tz.Soc.tracer app.soc) Watz_obs.Trace.Secure
        ~session:Watz_obs.Trace.no_session app.invoke_label (fun () ->
          try Engine.invoke app.instance name args
          with Watz_wasm.Instance.Trap m -> raise (App_trap m)))

let output app = Buffer.contents app.output
let claim app = app.claim

(** The app's exported linear memory, if any. *)
let export_memory app = Engine.export_memory app.instance

let unload app = Watz_tz.Optee.close_session app.session

(** Measure the bytecode exactly as the runtime would, without
    launching (used by verifiers to compute reference values). *)
