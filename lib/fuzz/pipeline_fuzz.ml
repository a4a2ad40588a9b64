(** End-to-end pipeline fuzzing: random MiniC programs through
    compile → measure → attest → execute.

    The generator emits well-typed, terminating MiniC (constant-bounded
    [for] loops, calls only to earlier functions, fresh variable names)
    — a [Type_error] from the compiler is therefore a finding, as is a
    validation failure of the emitted Wasm. The compiled bytes then
    travel the real runtime path:

    - {b measure}: {!Watz.Runtime.measure} must be stable and equal to
      the claim the loaded app reports;
    - {b attest}: a protocol run whose policy's reference claim is that
      measurement must accept — and must reject a policy expecting a
      different program;
    - {b execute}: the app is loaded on both tiers and every exported
      function invoked with the same generated arguments; the tiers
      must agree on results and trap messages.

    Division, remainder and float→int casts are generated freely, so
    traps are common — and must be common {e identically} on every
    tier. *)

module Prng = Watz_util.Prng
module M = Watz_wasmc.Minic
module Runtime = Watz.Runtime
open Watz_wasm.Ast

(* ------------------------------------------------------------------ *)
(* Typed MiniC generation *)

type ty = M.ty

type fsig = { fs_name : string; fs_params : ty list; fs_ret : ty }

type genv = {
  rng : Prng.t;
  mutable vars : (string * ty) list; (* in-scope, innermost first *)
  mutable loop_vars : string list; (* induction vars: readable, never assigned *)
  funs : fsig list; (* earlier functions, callable *)
  mutable fresh : int;
  mutable budget : int;
  in_loop : bool;
}

let fresh_name env prefix =
  env.fresh <- env.fresh + 1;
  Printf.sprintf "%s%d" prefix env.fresh

let tys = [| M.I32; M.F64 |]
let pick_ty rng = tys.(Prng.int rng 2)

let i32_consts = [| 0; 1; -1; 7; 255; 65535; max_int lsr 33; -128 |]
let f64_consts = [| 0.0; 1.0; -1.0; 0.5; 1e9; -1e9; 3.14159; 1e-9 |]

let spend env = env.budget <- env.budget - 1

let rec gen_expr env depth (ty : ty) : M.expr =
  spend env;
  let rng = env.rng in
  let const () =
    match ty with
    | M.I32 ->
      if Prng.bool rng then M.IntE i32_consts.(Prng.int rng (Array.length i32_consts))
      else M.IntE (Prng.int rng 10000 - 5000)
    | M.F64 ->
      if Prng.bool rng then M.FloatE f64_consts.(Prng.int rng (Array.length f64_consts))
      else M.FloatE (Prng.float rng 100.0 -. 50.0)
    | _ -> assert false
  in
  let leaf () =
    let vs = List.filter (fun (_, t) -> t = ty) env.vars in
    if vs <> [] && Prng.int rng 3 > 0 then M.VarE (fst (List.nth vs (Prng.int rng (List.length vs))))
    else const ()
  in
  if depth <= 0 || env.budget <= 0 then leaf ()
  else
    match Prng.int rng 10 with
    | 0 | 1 -> leaf ()
    | 2 | 3 ->
      let ops =
        match ty with
        | M.I32 -> [| M.Add; M.Sub; M.Mul; M.Div; M.Rem; M.BAnd; M.BOr; M.BXor; M.Shl; M.Shr; M.ShrU |]
        | _ -> [| M.Add; M.Sub; M.Mul; M.Div |]
      in
      M.BinE (ops.(Prng.int rng (Array.length ops)), gen_expr env (depth - 1) ty, gen_expr env (depth - 1) ty)
    | 4 when ty = M.I32 ->
      let src = pick_ty rng in
      let ops = [| M.Eq; M.Ne; M.Lt; M.Le; M.Gt; M.Ge |] in
      M.CmpE (ops.(Prng.int rng 6), gen_expr env (depth - 1) src, gen_expr env (depth - 1) src)
    | 5 ->
      (* cast, including trapping f64 → i32 truncation *)
      let src = pick_ty rng in
      M.CastE (ty, gen_expr env (depth - 1) src)
    | 6 -> (
      (* abs/min/max/sqrt are float-only in MiniC; neg works on both *)
      match (ty, Prng.int rng 4) with
      | M.F64, 0 -> M.AbsE (gen_expr env (depth - 1) ty)
      | M.F64, 1 -> M.MinE (gen_expr env (depth - 1) ty, gen_expr env (depth - 1) ty)
      | M.F64, 2 -> M.SqrtE (gen_expr env (depth - 1) ty)
      | M.F64, _ -> M.MaxE (gen_expr env (depth - 1) ty, gen_expr env (depth - 1) ty)
      | _, _ -> M.NegE (gen_expr env (depth - 1) ty))
    | 7 ->
      M.TernE (gen_expr env (depth - 1) M.I32, gen_expr env (depth - 1) ty, gen_expr env (depth - 1) ty)
    | 8 -> (
      (* memory read at a bounded address (one 64 KiB page) *)
      let addr = M.BinE (M.BAnd, gen_expr env (depth - 1) M.I32, M.IntE 0xfff8) in
      match ty with
      | M.I32 -> M.LoadE (M.I32, addr)
      | _ -> M.LoadE (M.F64, addr))
    | _ -> (
      (* call an earlier function returning [ty] *)
      match List.filter (fun f -> f.fs_ret = ty) env.funs with
      | [] -> leaf ()
      | fs ->
        let f = List.nth fs (Prng.int rng (List.length fs)) in
        M.CallE (f.fs_name, List.map (fun pt -> gen_expr env (depth - 1) pt) f.fs_params))

let rec gen_stmt env depth : M.stmt list =
  spend env;
  let rng = env.rng in
  if env.budget <= 0 then []
  else
    match Prng.int rng 10 with
    | 0 | 1 ->
      let ty = pick_ty rng in
      let name = fresh_name env "v" in
      let s = M.DeclS (name, ty, Some (gen_expr env depth ty)) in
      env.vars <- (name, ty) :: env.vars;
      [ s ]
    | 2 when List.exists (fun (n, _) -> not (List.mem n env.loop_vars)) env.vars ->
      (* assignment — but never to a loop induction variable, which
         would let the body defeat the constant iteration bound *)
      let assignable = List.filter (fun (n, _) -> not (List.mem n env.loop_vars)) env.vars in
      let name, ty = List.nth assignable (Prng.int rng (List.length assignable)) in
      [ M.AssignS (name, gen_expr env depth ty) ]
    | 3 ->
      let ty = pick_ty rng in
      let addr = M.BinE (M.BAnd, gen_expr env (depth - 1) M.I32, M.IntE 0xfff8) in
      [ M.StoreS ((match ty with M.I32 -> M.I32 | _ -> M.F64), addr, gen_expr env depth ty) ]
    | 4 when depth > 0 ->
      (* generate cond/then/else in program order with block-scoped
         declarations: a branch must never reference the other
         branch's variables *)
      let cond = gen_expr env (depth - 1) M.I32 in
      let saved = env.vars in
      let then_ = gen_block env (depth - 1) in
      env.vars <- saved;
      let else_ = gen_block env (depth - 1) in
      env.vars <- saved;
      [ M.IfS (cond, then_, else_) ]
    | 5 when depth > 0 ->
      (* constant-bounded for loop: terminating by construction *)
      let var = fresh_name env "i" in
      let hi = 1 + Prng.int rng 8 in
      let saved_vars = env.vars and saved_loops = env.loop_vars in
      let body =
        let env' = { env with in_loop = true } in
        env'.vars <- (var, M.I32) :: env'.vars;
        env'.loop_vars <- var :: env'.loop_vars;
        let b = gen_block env' (depth - 1) in
        env.fresh <- env'.fresh;
        env.budget <- env'.budget;
        b
      in
      env.vars <- saved_vars;
      env.loop_vars <- saved_loops;
      [ M.ForS (var, M.IntE 0, M.IntE hi, body) ]
    | 6 when env.in_loop && depth > 0 ->
      [ M.IfS (gen_expr env (depth - 1) M.I32, [ (if Prng.bool rng then M.BreakS else M.ContinueS) ], []) ]
    | 7 -> [ M.ExprS (gen_expr env depth (pick_ty rng)) ]
    | _ ->
      let ty = pick_ty rng in
      let name = fresh_name env "v" in
      let s = M.DeclS (name, ty, Some (gen_expr env depth ty)) in
      env.vars <- (name, ty) :: env.vars;
      [ s ]

and gen_block env depth =
  let n = 1 + Prng.int env.rng 3 in
  List.concat (List.init n (fun _ -> gen_stmt env depth))

let gen_fun rng funs idx : M.fundef * fsig =
  let n_params = Prng.int rng 3 in
  let params = List.init n_params (fun i -> (Printf.sprintf "p%d" i, pick_ty rng)) in
  let ret = pick_ty rng in
  let name = Printf.sprintf "g%d" idx in
  let env =
    { rng; vars = params; loop_vars = []; funs; fresh = 0;
      budget = 25 + Prng.int rng 40; in_loop = false }
  in
  (* explicit order: the trailing return may use block-level decls *)
  let blk = gen_block env 3 in
  let body = blk @ [ M.ReturnS (Some (gen_expr env 2 ret)) ] in
  ( { M.f_name = name; f_params = params; f_ret = Some ret; f_body = body; f_export = true },
    { fs_name = name; fs_params = List.map snd params; fs_ret = ret } )

type prog_case = { program : M.program; calls : (string * value list) list }

let gen_program rng : prog_case =
  let n_funs = 1 + Prng.int rng 4 in
  let funs = ref [] and sigs = ref [] in
  for i = 0 to n_funs - 1 do
    let fd, fs = gen_fun rng !sigs i in
    funs := !funs @ [ fd ];
    sigs := !sigs @ [ fs ]
  done;
  let program = M.Dsl.program ~mem_pages:1 ~mem_max:2 !funs in
  let gen_arg = function
    | M.I32 -> VI32 (Int64.to_int32 (Prng.next64 rng))
    | _ -> VF64 (Prng.float rng 2000.0 -. 1000.0)
  in
  let calls =
    List.map (fun fs -> (fs.fs_name, List.map gen_arg fs.fs_params)) !sigs
  in
  { program; calls }

(* ------------------------------------------------------------------ *)
(* The pipeline oracle *)

(** One pipeline round. [soc] is a booted board shared across rounds
    (manufacturing one per program would dominate the run time). *)
let round soc ~policy ~service rng : (unit, string) result =
  let { program; calls } = gen_program rng in
  match M.compile_to_bytes program with
  | exception M.Type_error m ->
    Error ("generator emitted ill-typed MiniC: " ^ m)
  | exception e -> Error ("MiniC compilation crashed: " ^ Printexc.to_string e)
  | bytes -> (
    (* measure: stable and 32 bytes *)
    let m1 = Runtime.measure bytes in
    let m2 = Runtime.measure bytes in
    if String.length m1 <> 32 then Error "measurement is not a SHA-256 digest"
    else if not (String.equal m1 m2) then Error "measurement not stable across calls"
    else
      (* attest: the verifier accepts exactly this measurement *)
      let random =
        let arng = Prng.create (Prng.next64 rng) in
        fun n -> Prng.bytes arng n
      in
      let issue ~anchor =
        Watz_attest.Service.request_issue (Watz_tz.Soc.optee soc) ~anchor ~claim:m1
      in
      let policy = policy ~claim:m1 in
      match
        Watz_attest.Protocol.run_local ~random ~policy ~issue
          ~expected_verifier:policy.Watz_attest.Protocol.Verifier.identity_pub ()
      with
      | Error e ->
        Error
          (Format.asprintf "attestation of a genuine program failed: %a"
             Watz_attest.Protocol.pp_error e)
      | exception e -> Error ("attestation crashed: " ^ Printexc.to_string e)
      | Ok _ -> (
        ignore service;
        (* execute on both tiers *)
        let run_tier tier =
          let config = { Runtime.default_config with Runtime.tier } in
          let app = Runtime.load ~config ~entry:None soc bytes in
          let claim_ok = String.equal (Runtime.claim app) m1 in
          let outs =
            List.map
              (fun (name, args) ->
                match Runtime.invoke app name args with
                | vs -> Ok (Diff.Values vs)
                | exception Runtime.App_trap m -> Ok (Diff.Trap m)
                | exception e ->
                  Error
                    (Printf.sprintf "tier %s crashed invoking %s: %s" (Watz.Engine.tier_name tier) name
                       (Printexc.to_string e)))
              calls
          in
          Runtime.unload app;
          (claim_ok, outs)
        in
        match
          let interp = run_tier Runtime.Interp in
          (interp, run_tier Runtime.Fast)
        with
        | exception e -> Error ("tier load crashed: " ^ Printexc.to_string e)
        | (c_i, o_i), (c_f, o_f) -> (
          if not (c_i && c_f) then Error "loaded app reports a claim different from Runtime.measure"
          else
            let first_err = List.find_map (function Error e -> Some e | Ok _ -> None) (o_i @ o_f) in
            match first_err with
            | Some e -> Error e
            | None ->
              let get = List.map (function Ok o -> o | Error _ -> assert false) in
              let rec cmp names xs ys =
                match (names, xs, ys) with
                | [], [], [] -> Ok ()
                | n :: ns, x :: xs', y :: ys' ->
                  if Diff.outcome_equal x y then cmp ns xs' ys'
                  else
                    Error
                      (Printf.sprintf "pipeline divergence at %s: interp=%s fast=%s" n
                         (Diff.outcome_to_string x) (Diff.outcome_to_string y))
                | _ -> Error "tier outcome arity mismatch"
              in
              cmp (List.map fst calls) (get o_i) (get o_f))))
