(** The trusted OS of the secure world — an OP-TEE model.

    Reproduces the OP-TEE behaviours WaTZ depends on or had to extend
    (§III, §V): trusted applications must be vendor-signed to load; TA
    heaps come from a pool capped at 27 MB and shared buffers from a
    9 MB pool (the paper's patched limits); memory pages cannot be made
    executable unless the WaTZ [tee_mprotect]-style syscall extension
    is enabled; kernel modules (the attestation service) live below the
    TA API and are the only code that can reach the CAAM-derived key
    material; all socket traffic is relayed through the normal-world
    supplicant at a cost. *)

type pool = { pool_name : string; limit : int; mutable used : int }

exception Out_of_memory of string
exception Access_denied of string
exception Ta_rejected of string

let pool_alloc pool n =
  if n < 0 then invalid_arg "pool_alloc";
  if pool.used + n > pool.limit then
    raise (Out_of_memory (Printf.sprintf "%s pool: %d + %d > %d" pool.pool_name pool.used n pool.limit))
  else pool.used <- pool.used + n

let pool_free pool n = pool.used <- max 0 (pool.used - n)

type kernel_service = string -> string

type t = {
  clock : Simclock.t;
  mkvb : string; (* kernel-only; see Kernel submodule *)
  boot_measurement : string;
  version : string;
  heap_pool : pool;
  shm_pool : pool;
  net : Net.t;
  vendor_pub : Watz_crypto.Ecdsa.public_key;
  mutable exec_pages_syscall : bool;
  mutable kernel_services : (string * kernel_service) list;
  mutable next_session : int;
  rng : Watz_util.Prng.t; (* this board's TRNG *)
}

(* The paper's patched memory caps (§V). *)
let ta_heap_limit = 27 * 1024 * 1024
let shared_mem_limit = 9 * 1024 * 1024

let create ~clock ~mkvb ~boot_measurement ~net ~vendor_pub ~version =
  {
    clock;
    mkvb;
    boot_measurement;
    version;
    heap_pool = { pool_name = "ta-heap"; limit = ta_heap_limit; used = 0 };
    shm_pool = { pool_name = "shared-mem"; limit = shared_mem_limit; used = 0 };
    net;
    vendor_pub;
    exec_pages_syscall = true; (* the WaTZ kernel extension, on by default *)
    kernel_services = [];
    next_session = 1;
    rng = Watz_util.Prng.create 0x7a5e_1234_dead_beefL;
  }

(* ------------------------------------------------------------------ *)
(* Trusted applications *)

type ta = {
  ta_uuid : string;
  ta_code_id : string; (* hash stand-in for the TA binary *)
  ta_signature : string option;
  ta_heap_bytes : int;
  ta_stack_bytes : int;
  mutable ta_invoke : session -> cmd:int -> string -> string;
}

and session = {
  s_ta : ta;
  s_os : t;
  s_id : int;
  mutable s_heap_used : int;
  mutable s_exec_bytes : int;
  mutable s_open : bool;
}

let ta_signing_payload ta = "optee-ta:" ^ ta.ta_uuid ^ ":" ^ ta.ta_code_id

(** Sign a TA with the vendor key, as `sign_encrypt.py` does for real
    OP-TEE TAs. *)
let sign_ta (vk : Boot.vendor_key) ta =
  { ta with ta_signature = Some (Watz_crypto.Ecdsa.sign vk.Boot.vk_priv (ta_signing_payload ta)) }

(** Opening a session enforces OP-TEE's deployment model: unsigned or
    mis-signed TAs are rejected — precisely the restriction WaTZ lifts
    for {e Wasm} applications by hosting them inside a signed runtime
    TA. Reserves the TA's declared heap from the secure pool. *)
let open_session t ta =
  (match ta.ta_signature with
  | None -> raise (Ta_rejected (ta.ta_uuid ^ ": unsigned TA"))
  | Some signature ->
    if not (Watz_crypto.Ecdsa.verify t.vendor_pub ~msg:(ta_signing_payload ta) ~signature) then
      raise (Ta_rejected (ta.ta_uuid ^ ": signature verification failed")));
  pool_alloc t.heap_pool (ta.ta_heap_bytes + ta.ta_stack_bytes);
  let s =
    {
      s_ta = ta;
      s_os = t;
      s_id = t.next_session;
      s_heap_used = 0;
      s_exec_bytes = 0;
      s_open = true;
    }
  in
  t.next_session <- t.next_session + 1;
  s

let close_session s =
  if s.s_open then begin
    s.s_open <- false;
    pool_free s.s_os.heap_pool (s.s_ta.ta_heap_bytes + s.s_ta.ta_stack_bytes)
  end

let invoke_session s ~cmd param =
  if not s.s_open then invalid_arg "Optee.invoke_session: session closed";
  s.s_ta.ta_invoke s ~cmd param

(* ------------------------------------------------------------------ *)
(* TA-visible allocation (TEE_Malloc against the session's own heap) *)

let ta_malloc s n =
  if s.s_heap_used + n > s.s_ta.ta_heap_bytes then
    raise (Out_of_memory (Printf.sprintf "TA %s heap: %d + %d > %d" s.s_ta.ta_uuid s.s_heap_used n s.s_ta.ta_heap_bytes));
  s.s_heap_used <- s.s_heap_used + n

let ta_free s n = s.s_heap_used <- max 0 (s.s_heap_used - n)

(** The WaTZ kernel extension (§V): make [n] bytes of a TA's memory
    executable, as needed to run AOT-compiled Wasm. Stock OP-TEE has no
    such syscall — with the extension disabled this faults, which is
    exactly the GitHub-issue behaviour the paper describes. *)
let ta_mprotect_exec s n =
  if not s.s_os.exec_pages_syscall then
    raise (Access_denied "mprotect: cannot mark pages executable (stock OP-TEE)");
  s.s_exec_bytes <- s.s_exec_bytes + n

(* ------------------------------------------------------------------ *)
(* Shared memory with the normal world *)

type shm = { shm_size : int; mutable shm_data : Bytes.t; mutable shm_live : bool }

let shm_alloc t n =
  pool_alloc t.shm_pool n;
  { shm_size = n; shm_data = Bytes.make n '\000'; shm_live = true }

let shm_free t shm =
  if shm.shm_live then begin
    shm.shm_live <- false;
    pool_free t.shm_pool shm.shm_size
  end

(** Copy into the secure world; charged at the modelled bandwidth. *)
let shm_read_secure t shm ~off ~len =
  let module T = Watz_obs.Trace in
  let trace = Simclock.tracer t.clock in
  T.begin_ trace T.Secure ~session:T.no_session "shm.copy_in";
  Simclock.charge_copy t.clock len;
  let data = Bytes.sub_string shm.shm_data off len in
  T.end_ trace T.Secure ~session:T.no_session "shm.copy_in";
  data

let shm_write_normal _t shm ~off data =
  Bytes.blit_string data 0 shm.shm_data off (String.length data)

(* ------------------------------------------------------------------ *)
(* Time (GP API + the paper's nanosecond extension) *)

(** Stock OP-TEE time for TAs: millisecond resolution. *)
let ree_time_ms t =
  Simclock.advance t.clock Simclock.time_query_rpc_ns;
  Int64.div (Simclock.now_ns t.clock) 1_000_000L

(** The paper's driver extension: the normal world's monotonic clock at
    nanosecond resolution, still one RPC away. *)
let ree_time_ns t =
  Simclock.advance t.clock Simclock.time_query_rpc_ns;
  Simclock.now_ns t.clock

(* ------------------------------------------------------------------ *)
(* Sockets via the supplicant *)

(* The supplicant relays on behalf of the secure world but runs in the
   normal world: its spans carry the normal-world tag. *)
let supplicant_span t name f =
  Watz_obs.Trace.span (Simclock.tracer t.clock) Watz_obs.Trace.Normal
    ~session:Watz_obs.Trace.no_session name f

let socket_connect t ~port =
  supplicant_span t "supplicant.connect" (fun () ->
      Simclock.advance t.clock Simclock.supplicant_rpc_ns;
      Net.connect t.net ~port)

let socket_send t conn data =
  supplicant_span t "supplicant.send" (fun () ->
      Simclock.advance t.clock Simclock.supplicant_rpc_ns;
      Simclock.charge_copy t.clock (String.length data);
      Net.send_frame conn data)

let socket_recv t conn =
  supplicant_span t "supplicant.recv" (fun () ->
      Simclock.advance t.clock Simclock.supplicant_rpc_ns;
      match Net.recv_frame conn with
      | None -> None
      | Some data ->
        Simclock.charge_copy t.clock (String.length data);
        Some data)

(* ------------------------------------------------------------------ *)
(* Kernel modules *)

module Kernel = struct
  (** Facilities reserved for kernel modules (the attestation service):
      TAs never see the MKVB or its subkeys. *)

  let derive_subkey t ~label =
    Watz_obs.Trace.span (Simclock.tracer t.clock) Watz_obs.Trace.Secure
      ~session:Watz_obs.Trace.no_session "caam.subkey_derive" (fun () ->
        Caam.huk_subkey_derive ~mkvb:t.mkvb ~label)
  let boot_measurement t = t.boot_measurement
  let version t = t.version

  let register_service t ~name f =
    if List.mem_assoc name t.kernel_services then
      invalid_arg ("Optee.Kernel.register_service: duplicate " ^ name);
    t.kernel_services <- (name, f) :: t.kernel_services
end

(** TA-side entry point to kernel services (system call). *)
let kernel_call t ~service request =
  match List.assoc_opt service t.kernel_services with
  | Some f ->
    Watz_obs.Trace.span (Simclock.tracer t.clock) Watz_obs.Trace.Secure
      ~session:Watz_obs.Trace.no_session "optee.kernel_call" (fun () -> f request)
  | None -> raise (Access_denied ("no kernel service " ^ service))

(* ------------------------------------------------------------------ *)
(* Random (hardware TRNG behind the GP API) *)

(** [n] bytes from this board's random source. Each board owns its
    generator, so what one board's apps draw never depends on another
    board in the same process, and boards on different domains share
    no state. *)
let generate_random t n = Watz_util.Prng.bytes t.rng n
