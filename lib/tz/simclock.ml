(** Simulated nanosecond clock and the SoC cost model.

    Latency-shaped results in the paper (Fig. 3: ~86 µs to enter the
    secure world, ~20 µs to return, ~10 µs to fetch the time from a TA)
    are architectural costs of the hardware, not of our OCaml code, so
    they are modelled: every world switch, supplicant RPC and
    shared-memory copy advances this deterministic counter. *)

type t = {
  mutable now_ns : int64;
  mutable trace : Watz_obs.Trace.t; (* observability sink; {!Watz_obs.Trace.null} when off *)
}

let create () = { now_ns = 0L; trace = Watz_obs.Trace.null }
let now_ns t = t.now_ns
let advance t ns = t.now_ns <- Int64.add t.now_ns (Int64.of_int ns)

(** The tracer riding on this clock. Everything that already threads
    the clock (the SoC, the trusted OS, the runtime) reaches the
    tracer through it; the default is the disabled {!Watz_obs.Trace.null}. *)
let tracer t = t.trace

(** [attach_tracer t trace] points [trace]'s timestamps at this clock
    and starts delivering instrumentation events to it. *)
let attach_tracer t trace =
  Watz_obs.Trace.set_now trace (fun () -> t.now_ns);
  t.trace <- trace

(** Costs in nanoseconds, calibrated to the paper's NXP i.MX 8MQ
    measurements (§VI-A). *)
let smc_enter_ns = 86_000 (* normal -> secure transition (86 us) *)
let smc_return_ns = 20_000 (* secure -> normal return (20 us) *)
let time_query_rpc_ns = 10_000 (* monotonic-clock RPC from a native TA (10 us) *)
let wasi_dispatch_ns = 3_000 (* extra WASI indirection for Wasm apps (3 us) *)
let normal_clock_read_ns = 400 (* clock_gettime in the normal world (<1 us) *)
let supplicant_rpc_ns = 12_000 (* secure -> supplicant round trip per message *)
let shm_copy_ns_per_kb = 90 (* shared-memory copy bandwidth model *)

let charge_copy t bytes = advance t (shm_copy_ns_per_kb * ((bytes + 1023) / 1024))
