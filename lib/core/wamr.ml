(** The normal-world baseline runtime — the paper's stock WAMR.

    Runs exactly the same Wasm binaries as {!Runtime}, with WASI bound
    to rich-OS facilities: no world switches, no shared-memory staging,
    no measurement, no attestation. Benchmarks compare this against
    WaTZ to show the TEE adds no execution-speed penalty (Figs. 5/6/8).

    Like the trusted runtime it accepts an execution tier, which is how
    the §III interpreter-vs-AOT ablation is driven: [Interp] against
    the default [Fast] tier, which stands in for AOT. *)

module Wasi = Watz_wasi.Wasi

type app = {
  tier : Engine.tier;
  instance : Engine.instance;
  wasi_env : Wasi.env;
  output : Buffer.t;
  startup_ns : float;
}

exception App_trap of string

(** Load and optionally run [_start] in the normal world. *)
let load ?(tier = Engine.Fast) ?(args = [ "app.wasm" ]) ?(entry = Some "_start") soc wasm_bytes =
  let t0 = Unix.gettimeofday () in
  let output = Buffer.create 256 in
  let rng = Watz_util.Prng.create 0x77414d52L in
  let wasi_env =
    Wasi.make_env ~args
      ~clock_ns:(fun () -> Watz_tz.Soc.normal_world_clock_ns soc)
      ~random:(Watz_util.Prng.bytes rng)
      ~write_out:(Buffer.add_string output) ()
  in
  let prepared = Engine.prepare tier wasm_bytes in
  let instance = Engine.instantiate ~wasi_env prepared in
  (match entry with
  | None -> ()
  | Some name -> (
    try ignore (Engine.invoke_opt instance name [])
    with Wasi.Proc_exit code -> wasi_env.Wasi.exit_code <- Some code));
  let startup_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  { tier; instance; wasi_env; output; startup_ns }

let invoke app name args =
  try Engine.invoke app.instance name args with
  | Watz_wasm.Instance.Trap m -> raise (App_trap m)
  | Not_found -> raise (App_trap ("no export " ^ name))

let output app = Buffer.contents app.output

(** The app's exported linear memory, if any. *)
let export_memory app = Engine.export_memory app.instance
