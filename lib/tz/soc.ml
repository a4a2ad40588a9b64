(** The simulated system-on-chip: fuses, two worlds, the secure
    monitor, and the boot story that ties them together.

    Lifecycle: {!manufacture} burns the fuses (OTPMK + vendor boot key
    hash), {!boot} walks the secure-boot chain and, on success, brings
    up the trusted OS with the CAAM-derived secure-world MKVB. All
    world transitions are charged on the simulated clock. *)

type state =
  | Powered_off
  | Boot_failed of Boot.boot_error
  | Running of Optee.t

type t = {
  clock : Simclock.t;
  fuses : Fuses.t;
  net : Net.t;
  vendor : Boot.vendor_key;
  mutable state : state;
}

(** [manufacture ~seed] builds a board: generates the device-unique
    OTPMK and the vendor key, and burns the fuses. Deterministic in
    [seed] so experiments are reproducible. *)
let manufacture ~seed () =
  let rng = Watz_util.Prng.create (Int64.of_int (Hashtbl.hash seed)) in
  let otpmk = Watz_util.Prng.bytes rng 32 in
  let vendor = Boot.vendor_key_of_seed seed in
  let fuses = Fuses.blank () in
  Fuses.program_otpmk fuses otpmk;
  Fuses.program_boot_pubkey_hash fuses (Boot.vendor_pubkey_hash vendor);
  {
    clock = Simclock.create ();
    fuses;
    net = Net.create ();
    vendor;
    state = Powered_off;
  }

let watz_version = "watz-1.0/optee-3.13"

(** Boot the board through the secure-boot chain. On success the
    trusted OS is running; on failure the secure world stays down (and
    with it, everything keyed off the root of trust). *)
let boot ?(version = watz_version) ?chain t =
  let module T = Watz_obs.Trace in
  let trace = Simclock.tracer t.clock in
  let chain = match chain with Some c -> c | None -> Boot.standard_chain t.vendor in
  T.begin_ trace T.Monitor ~session:T.no_session "boot.verify_chain";
  let verified = Boot.verify ~fuses:t.fuses ~vendor_pub:t.vendor.Boot.vk_pub chain in
  T.end_ trace T.Monitor ~session:T.no_session "boot.verify_chain";
  match verified with
  | Error e ->
    t.state <- Boot_failed e;
    Error e
  | Ok measurement ->
    T.instant trace T.Secure ~session:T.no_session "caam.mkvb";
    let mkvb = Caam.mkvb t.fuses Caam.Secure_world in
    let os =
      Optee.create ~clock:t.clock ~mkvb ~boot_measurement:measurement
        ~net:t.net ~vendor_pub:t.vendor.Boot.vk_pub ~version
    in
    t.state <- Running os;
    Ok os

let optee t =
  match t.state with
  | Running os -> os
  | Powered_off -> failwith "Soc: not booted"
  | Boot_failed e -> Format.kasprintf failwith "Soc: boot failed: %a" Boot.pp_boot_error e

(** What the {e normal} world sees when it asks the CAAM for the master
    key blob — a different value than the secure world's (so no
    normal-world code can reconstruct attestation keys). *)
let mkvb_as_seen_from_normal_world t = Caam.mkvb t.fuses Caam.Normal_world

(* ------------------------------------------------------------------ *)
(* Secure monitor: world transitions *)

(** [smc t f] runs [f] in the secure world, charging the enter/return
    transition costs on the simulated clock (Fig. 3b). The transition
    is traced as a monitor-world "smc" span enclosing a secure-world
    "smc.secure" span, so trace viewers show the switch overhead as
    the gap between the two. On an escaping exception the spans close
    but — as before — the return cost is not charged. *)
let smc t f =
  let module T = Watz_obs.Trace in
  let trace = Simclock.tracer t.clock in
  T.begin_ trace T.Monitor ~session:T.no_session "smc";
  Simclock.advance t.clock Simclock.smc_enter_ns;
  T.begin_ trace T.Secure ~session:T.no_session "smc.secure";
  match f () with
  | result ->
    T.end_ trace T.Secure ~session:T.no_session "smc.secure";
    Simclock.advance t.clock Simclock.smc_return_ns;
    T.end_ trace T.Monitor ~session:T.no_session "smc";
    result
  | exception e ->
    T.end_ trace T.Secure ~session:T.no_session "smc.secure";
    T.end_ trace T.Monitor ~session:T.no_session "smc";
    raise e

(** Sign a trusted application with this device's vendor key (the
    OP-TEE deployment step WaTZ's Wasm hosting makes unnecessary for
    third-party code). *)
let sign_ta t ta = Optee.sign_ta t.vendor ta

(** Attach an observability tracer to this board: its timestamps come
    from the simulated clock, so traces are deterministic in the run's
    seed. Every layer holding the clock (OP-TEE, the runtime, the
    protocol drivers) starts emitting into it. *)
let attach_tracer t trace = Simclock.attach_tracer t.clock trace

let tracer t = Simclock.tracer t.clock

(** Normal-world monotonic clock read (sub-microsecond, Fig. 3a). *)
let normal_world_clock_ns t =
  Simclock.advance t.clock Simclock.normal_clock_read_ns;
  Simclock.now_ns t.clock

let now_ns t = Simclock.now_ns t.clock
