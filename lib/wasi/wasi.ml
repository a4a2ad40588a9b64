(** WASI snapshot-preview1 for WaTZ (§III, §V).

    The adaptation layer between Wasm applications and the trusted OS:
    WASI calls are mapped onto the GP-API facilities of the simulated
    OP-TEE (or onto plain normal-world facilities when the same module
    runs under the WAMR-equivalent runtime). Mirroring the paper's
    prototype, {e all 45} preview1 entry points are registered; the
    ones the experiments do not need return [ENOSYS] ("we first
    manually coded dummy functions for all 45 WASI API functions").

    The environment is engine-agnostic: {!bindings} produces neutral
    host-function specs that adapt to both the interpreter and the fast
    engine. *)

module T = Watz_wasm.Types
module A = Watz_wasm.Ast
module Mem = Watz_wasm.Instance.Memory

exception Proc_exit of int

(* WASI errno values (subset). *)
let errno_success = 0
let errno_badf = 8
let errno_inval = 28
let errno_nosys = 52

type env = {
  mutable memory : Mem.t option; (* wired post-instantiation *)
  args : string list;
  environ : (string * string) list;
  clock_ns : unit -> int64;
  random : int -> string;
  write_out : string -> unit;
  mutable exit_code : int option;
}

let make_env ?(args = [ "app.wasm" ]) ?(environ = []) ~clock_ns ~random ~write_out () =
  { memory = None; args; environ; clock_ns; random; write_out; exit_code = None }

let memory env =
  match env.memory with
  | Some m -> m
  | None -> raise (Watz_wasm.Instance.Trap "WASI: no memory attached")

let i32_arg args i =
  match args.(i) with
  | A.VI32 v -> Int32.to_int v land 0xffffffff
  | A.VI64 _ | A.VF32 _ | A.VF64 _ -> raise (Watz_wasm.Instance.Trap "WASI: expected i32")

let ok = [ A.VI32 0l ]
let errno e = [ A.VI32 (Int32.of_int e) ]

type spec = {
  fn_name : string;
  fn_params : T.valtype list;
  fn_results : T.valtype list;
  fn_impl : env -> A.value array -> A.value list;
}

let environ_strings env = List.map (fun (k, v) -> k ^ "=" ^ v) env.environ

let write_string_list env ~ptrs_at ~buf_at strings =
  let mem = memory env in
  let buf = ref buf_at in
  List.iteri
    (fun i s ->
      Mem.store32 mem (ptrs_at + (4 * i)) (Int32.of_int !buf);
      Mem.store_string mem !buf (s ^ "\000");
      buf := !buf + String.length s + 1)
    strings

let sizes_impl strings env args =
  let mem = memory env in
  let count_ptr = i32_arg args 0 and size_ptr = i32_arg args 1 in
  let ss = strings env in
  Mem.store32 mem count_ptr (Int32.of_int (List.length ss));
  Mem.store32 mem size_ptr
    (Int32.of_int (List.fold_left (fun a s -> a + String.length s + 1) 0 ss));
  ok

let get_impl strings env args =
  write_string_list env ~ptrs_at:(i32_arg args 0) ~buf_at:(i32_arg args 1) (strings env);
  ok

let clock_time_get env args =
  let mem = memory env in
  (* arg 0: clock id; arg 1: precision (i64); arg 2: out pointer *)
  let out = i32_arg args 2 in
  Mem.store64 mem out (env.clock_ns ());
  ok

let clock_res_get env args =
  let mem = memory env in
  Mem.store64 mem (i32_arg args 1) 1L;
  ok

let fd_write env args =
  let mem = memory env in
  let fd = i32_arg args 0 in
  if fd <> 1 && fd <> 2 then errno errno_badf
  else begin
    let iovs = i32_arg args 1 and iovs_len = i32_arg args 2 and nwritten = i32_arg args 3 in
    let total = ref 0 in
    for k = 0 to iovs_len - 1 do
      let ptr = Int32.to_int (Mem.load32 mem (iovs + (8 * k))) land 0xffffffff in
      let len = Int32.to_int (Mem.load32 mem (iovs + (8 * k) + 4)) land 0xffffffff in
      env.write_out (Mem.load_string mem ptr len);
      total := !total + len
    done;
    Mem.store32 mem nwritten (Int32.of_int !total);
    ok
  end

let fd_read env args =
  let mem = memory env in
  let fd = i32_arg args 0 in
  if fd <> 0 then errno errno_badf
  else begin
    (* Empty stdin: report zero bytes read. *)
    Mem.store32 mem (i32_arg args 3) 0l;
    ok
  end

let random_get env args =
  let mem = memory env in
  let buf = i32_arg args 0 and len = i32_arg args 1 in
  Mem.store_string mem buf (env.random len);
  ok

let proc_exit _env args = raise (Proc_exit (i32_arg args 0))

let fd_fdstat_get env args =
  let mem = memory env in
  let out = i32_arg args 1 in
  (* filetype = character_device(2), flags 0, rights all. *)
  Mem.store8 mem out 2;
  Mem.store8 mem (out + 1) 0;
  Mem.store16 mem (out + 2) 0;
  Mem.store32 mem (out + 4) 0l;
  Mem.store64 mem (out + 8) (-1L);
  Mem.store64 mem (out + 16) (-1L);
  ok

let i = T.I32
let l = T.I64

let implemented =
  [
    ("args_sizes_get", [ i; i ], [ i ], sizes_impl (fun env -> env.args));
    ("args_get", [ i; i ], [ i ], get_impl (fun env -> env.args));
    ("environ_sizes_get", [ i; i ], [ i ], sizes_impl environ_strings);
    ("environ_get", [ i; i ], [ i ], get_impl environ_strings);
    ("clock_time_get", [ i; l; i ], [ i ], clock_time_get);
    ("clock_res_get", [ i; i ], [ i ], clock_res_get);
    ("fd_write", [ i; i; i; i ], [ i ], fd_write);
    ("fd_read", [ i; i; i; i ], [ i ], fd_read);
    ("fd_close", [ i ], [ i ], fun _ _ -> ok);
    ("fd_fdstat_get", [ i; i ], [ i ], fd_fdstat_get);
    ("fd_seek", [ i; l; i; i ], [ i ], fun _ _ -> errno errno_badf);
    ("fd_prestat_get", [ i; i ], [ i ], fun _ _ -> errno errno_badf);
    ("fd_prestat_dir_name", [ i; i; i ], [ i ], fun _ _ -> errno errno_badf);
    ("random_get", [ i; i ], [ i ], random_get);
    ("proc_exit", [ i ], [], proc_exit);
    ("sched_yield", [], [ i ], fun _ _ -> ok);
  ]

(* The remaining preview1 surface: registered, unsupported, ENOSYS —
   the paper's "dummy functions throwing exceptions", softened to the
   WASI-idiomatic errno. *)
let stubs =
  [
    ("fd_advise", [ i; l; l; i ], [ i ]);
    ("fd_allocate", [ i; l; l ], [ i ]);
    ("fd_datasync", [ i ], [ i ]);
    ("fd_fdstat_set_flags", [ i; i ], [ i ]);
    ("fd_fdstat_set_rights", [ i; l; l ], [ i ]);
    ("fd_filestat_get", [ i; i ], [ i ]);
    ("fd_filestat_set_size", [ i; l ], [ i ]);
    ("fd_filestat_set_times", [ i; l; l; i ], [ i ]);
    ("fd_pread", [ i; i; i; l; i ], [ i ]);
    ("fd_pwrite", [ i; i; i; l; i ], [ i ]);
    ("fd_readdir", [ i; i; i; l; i ], [ i ]);
    ("fd_renumber", [ i; i ], [ i ]);
    ("fd_sync", [ i ], [ i ]);
    ("fd_tell", [ i; i ], [ i ]);
    ("path_create_directory", [ i; i; i ], [ i ]);
    ("path_filestat_get", [ i; i; i; i; i ], [ i ]);
    ("path_filestat_set_times", [ i; i; i; i; l; l; i ], [ i ]);
    ("path_link", [ i; i; i; i; i; i; i ], [ i ]);
    ("path_open", [ i; i; i; i; i; l; l; i; i ], [ i ]);
    ("path_readlink", [ i; i; i; i; i; i ], [ i ]);
    ("path_remove_directory", [ i; i; i ], [ i ]);
    ("path_rename", [ i; i; i; i; i; i ], [ i ]);
    ("path_symlink", [ i; i; i; i; i ], [ i ]);
    ("path_unlink_file", [ i; i; i ], [ i ]);
    ("poll_oneoff", [ i; i; i; i ], [ i ]);
    ("proc_raise", [ i ], [ i ]);
    ("sock_recv", [ i; i; i; i; i; i ], [ i ]);
    ("sock_send", [ i; i; i; i; i ], [ i ]);
    ("sock_shutdown", [ i; i ], [ i ]);
  ]

let module_name = "wasi_snapshot_preview1"

(** All registered entry points as neutral specs. *)
let bindings : spec list =
  List.map
    (fun (fn_name, fn_params, fn_results, fn_impl) -> { fn_name; fn_params; fn_results; fn_impl })
    implemented
  @ List.map
      (fun (fn_name, fn_params, fn_results) ->
        { fn_name; fn_params; fn_results; fn_impl = (fun _ _ -> errno errno_nosys) })
      stubs

let registered_count = List.length bindings

(* Engine adapters. *)

let interp_imports env =
  List.map
    (fun s ->
      ( module_name,
        s.fn_name,
        Watz_wasm.Instance.Extern_func
          (Watz_wasm.Instance.host_func ~name:s.fn_name ~params:s.fn_params
             ~results:s.fn_results (s.fn_impl env)) ))
    bindings

let fast_imports env : Watz_wasm.Fastinterp.import_binding list =
  List.map
    (fun s ->
      Watz_wasm.Fastinterp.host ~module_:module_name ~name:s.fn_name ~params:s.fn_params
        ~results:s.fn_results (s.fn_impl env))
    bindings

(** Attach the instance's exported memory to the environment (must run
    before the first WASI call). *)
let attach_interp_memory env inst =
  env.memory <- Watz_wasm.Instance.export_memory inst "memory"

let attach_fast_memory env inst =
  env.memory <- Watz_wasm.Fastinterp.export_memory inst "memory"
