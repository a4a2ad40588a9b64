(** Differential execution across the two tiers.

    The oracle is agreement: the tree-walking interpreter (the
    reference) and the pre-decoded fast interpreter must produce the
    same outcome — same values (bit-identical, modulo any-NaN ==
    any-NaN), same trap message, and, after the full call sequence, the
    same reading of the module's fuel global. Equal fuel certifies the
    tiers agreed on the whole dynamic path (every loop back-edge and
    function entry), not just on final values.

    Both tiers load a module as a launch does ({!Watz.Engine.prepare}):
    from its bytes, interp through [Decode.decode] and
    [Validate.validate], fast through {!Fastinterp.compile_bytes}.

    Any exception that is not a [Trap] / [Exhaustion] / [Link_error]
    escaping a tier is a crash and always a finding, whether or not the
    tiers agree on it. *)

open Watz_wasm
open Watz_wasm.Ast

type outcome =
  | Values of value list
  | Trap of string
  | Exhausted of string
  | Crash of string

let outcome_to_string = function
  | Values vs ->
    "values ["
    ^ String.concat "; "
        (List.map
           (function
             | VI32 v -> Printf.sprintf "i32:%ld" v
             | VI64 v -> Printf.sprintf "i64:%Ld" v
             | VF32 v -> Printf.sprintf "f32:%h" v
             | VF64 v -> Printf.sprintf "f64:%h" v)
           vs)
    ^ "]"
  | Trap m -> "trap: " ^ m
  | Exhausted m -> "exhaustion: " ^ m
  | Crash m -> "CRASH: " ^ m

let value_equal a b =
  match (a, b) with
  | VI32 x, VI32 y -> Int32.equal x y
  | VI64 x, VI64 y -> Int64.equal x y
  | VF32 x, VF32 y | VF64 x, VF64 y ->
    (Float.is_nan x && Float.is_nan y)
    || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let outcome_equal a b =
  match (a, b) with
  | Values xs, Values ys -> List.length xs = List.length ys && List.for_all2 value_equal xs ys
  | Trap x, Trap y -> String.equal x y
  | Exhausted _, Exhausted _ -> true
  | Crash _, _ | _, Crash _ -> false (* a crash never matches anything *)
  | _ -> false

let catching f =
  match f () with
  | vs -> Values vs
  | exception Instance.Trap m -> Trap m
  | exception Instance.Exhaustion m -> Exhausted m
  | exception Instance.Link_error m -> Crash ("link error during execution: " ^ m)
  | exception Stack_overflow -> Crash "stack overflow"
  | exception e -> Crash (Printexc.to_string e)

(* One tier = instantiate once, then run the whole call sequence
   against that instance (so fuel and memory effects accumulate), and
   finally read the fuel export. *)
type tier_run = { t_name : string; t_outcomes : outcome list; t_fuel : outcome }

let run_interp (c : Gen.case) m =
  let run () =
    let inst = Interp.instantiate m in
    let invoke name args =
      catching (fun () ->
          match Instance.export_func inst name with
          | Some f -> Interp.invoke f args
          | None -> raise (Instance.Link_error ("no export " ^ name)))
    in
    let outs = List.map (fun (name, args) -> invoke name args) c.Gen.calls in
    (outs, invoke c.Gen.fuel_export [])
  in
  match run () with
  | outs, fuel -> { t_name = "interp"; t_outcomes = outs; t_fuel = fuel }
  | exception e ->
    let o = Crash ("instantiate: " ^ Printexc.to_string e) in
    { t_name = "interp"; t_outcomes = [ o ]; t_fuel = o }

let run_fast (c : Gen.case) bytes =
  let run () =
    let finst = Fastinterp.instantiate (Fastinterp.compile_bytes bytes) in
    let invoke name args = catching (fun () -> Fastinterp.invoke finst name args) in
    let outs = List.map (fun (name, args) -> invoke name args) c.Gen.calls in
    (outs, invoke c.Gen.fuel_export [])
  in
  match run () with
  | outs, fuel -> { t_name = "fast"; t_outcomes = outs; t_fuel = fuel }
  | exception e ->
    let o = Crash ("compile/instantiate: " ^ Printexc.to_string e) in
    { t_name = "fast"; t_outcomes = [ o ]; t_fuel = o }

type verdict =
  | Agree
  | Invalid_module of string (* generator bug: produced an invalid module *)
  | Diverged of { call : string; tier_a : string; tier_b : string; a : string; b : string }
  | Crashed of { tier : string; call : string; detail : string }

let crash_of (r : tier_run) =
  let calls_and_fuel = r.t_outcomes @ [ r.t_fuel ] in
  let rec find i = function
    | [] -> None
    | Crash m :: _ -> Some (i, m)
    | _ :: rest -> find (i + 1) rest
  in
  find 0 calls_and_fuel

let compare_runs (c : Gen.case) (a : tier_run) (b : tier_run) =
  let names = List.map fst c.Gen.calls @ [ c.Gen.fuel_export ] in
  let oa = a.t_outcomes @ [ a.t_fuel ] and ob = b.t_outcomes @ [ b.t_fuel ] in
  if List.length oa <> List.length ob then
    Some
      (Diverged
         { call = "<sequence>"; tier_a = a.t_name; tier_b = b.t_name;
           a = Printf.sprintf "%d outcomes" (List.length oa);
           b = Printf.sprintf "%d outcomes" (List.length ob) })
  else
    let rec go names oa ob =
      match (names, oa, ob) with
      | [], [], [] -> None
      | n :: ns, x :: xs, y :: ys ->
        if outcome_equal x y then go ns xs ys
        else
          Some
            (Diverged
               { call = n; tier_a = a.t_name; tier_b = b.t_name;
                 a = outcome_to_string x; b = outcome_to_string y })
      | _ -> assert false
    in
    go names oa ob

(** Encode a generated case once, load both tiers from its bytes, run
    it on both and compare. *)
let run_case (c : Gen.case) : verdict =
  let load () =
    let bytes = Encode.encode c.Gen.module_ in
    let m = Decode.decode bytes in
    Validate.validate m;
    (bytes, m)
  in
  match load () with
  | exception Validate.Invalid m -> Invalid_module m
  | exception e -> Invalid_module (Printexc.to_string e)
  | bytes, m -> (
    let interp = run_interp c m in
    let fast = run_fast c bytes in
    (* a crash in either tier is a finding on its own *)
    let crash =
      List.find_map
        (fun r ->
          match crash_of r with
          | Some (i, m) ->
            let names = List.map fst c.Gen.calls @ [ c.Gen.fuel_export ] in
            Some (Crashed { tier = r.t_name; call = List.nth names (min i (List.length names - 1)); detail = m })
          | None -> None)
        [ interp; fast ]
    in
    match crash with
    | Some v -> v
    | None -> Option.value (compare_runs c interp fast) ~default:Agree)

(* A verdict worth shrinking: the module is valid and the tiers
   disagreed or crashed. [Invalid_module] is a finding too (a generator
   bug) but body-level shrinking must never walk into it. *)
let is_failure = function Agree | Invalid_module _ -> false | Diverged _ | Crashed _ -> true

let verdict_to_string = function
  | Agree -> "agree"
  | Invalid_module m -> "generator produced invalid module: " ^ m
  | Diverged { call; tier_a; tier_b; a; b } ->
    Printf.sprintf "divergence at %s: %s=%s vs %s=%s" call tier_a a tier_b b
  | Crashed { tier; call; detail } -> Printf.sprintf "crash in %s at %s: %s" tier call detail

(* ------------------------------------------------------------------ *)
(* Decoder/validator byte-level oracle: any byte string must map to a
   decoded module or a typed [Decode.Malformed]; a decoded module must
   validate or raise a typed [Validate.Invalid]. Nothing else — no
   [Invalid_argument], no [Stack_overflow], no reader exceptions. The
   fast tier's one-pass loader ({!Fastinterp.compile_bytes}) is a
   second front door to the same verdict: it must raise the same
   exception with the same message, or accept too; any difference is
   a finding. A
   module that decodes AND validates must also survive a re-encode →
   re-decode → re-validate roundtrip (the verdict every execution tier
   consumes is the same front door, so verdict stability is what keeps
   the tiers fed identically). Accepted mutants can additionally be
   {e executed} differentially under {!Instance.Fuel} ([~exec]): a
   byte flip can turn a bounded loop into an unbounded one, so each
   exported nullary call runs under an engine-fuel budget, both tiers
   charge the same edges (loop iterations, function entries), and
   [Exhausted ≡ Exhausted] — a mutant that terminates nowhere still
   compares tier-identically. *)

type decode_verdict =
  | Rejected (* typed rejection: fine *)
  | Accepted
  | Decoder_crash of string (* a front door broke the contract, or the two disagree *)
  | Exec_diverged of string (* accepted mutant executed differently across tiers *)

(* ---- Fuel-limited execution of accepted mutants. Unlike {!run_case}
   these modules come from the byte mutator, so nothing bounds their
   loops (engine fuel does), their memories (a page cap and a TEE-style
   byte limit do) or their call surface (only nullary exports, capped). *)

let exec_fuel_budget = 25_000 (* per start function / exported call *)
let max_exec_calls = 8
let max_exec_mem_pages = 64 (* skip modules declaring > 4 MiB up front *)
let exec_mem_limit_bytes = 16 * 1024 * 1024 (* memory.grow ceiling, as in a TEE heap *)

(* Own memories only: a memory import fails to link before anything is
   allocated. *)
let mem_too_big (m : module_) =
  List.exists (fun (l : Types.limits) -> l.min > max_exec_mem_pages) m.memories

(* Exported functions of type [] -> *, in export order. *)
let nullary_exports (m : module_) =
  let types = Array.of_list m.types in
  let imported =
    List.filter_map
      (fun (imp : import) ->
        match imp.idesc with
        | ImportFunc tidx -> Some types.(tidx)
        | ImportTable _ | ImportMemory _ | ImportGlobal _ -> None)
      m.imports
  in
  let all = Array.of_list (imported @ List.map (fun (f : func) -> types.(f.ftype)) m.funcs) in
  let nullary =
    List.filter_map
      (fun (e : export) ->
        match e.edesc with
        | ExportFunc i when i < Array.length all && all.(i).params = [] -> Some e.exp_name
        | _ -> None)
      m.exports
  in
  List.filteri (fun i _ -> i < max_exec_calls) nullary

(* Both tiers link through {!Instance.instantiate}, so a link failure
   must carry the same message on each; exhaustion and traps outside a
   call compare by kind. *)
type exec_result =
  | X_outs of outcome list (* start outcome :: call outcomes *)
  | X_reject of string (* instantiate rejection: kind, with the message for links *)
  | X_crash of string

let exec_result_equal a b =
  match (a, b) with
  | X_outs xs, X_outs ys -> List.length xs = List.length ys && List.for_all2 outcome_equal xs ys
  | X_reject x, X_reject y -> String.equal x y
  | _ -> false

let exec_result_to_string = function
  | X_outs outs -> "[" ^ String.concat "; " (List.map outcome_to_string outs) ^ "]"
  | X_reject k -> "reject: " ^ k
  | X_crash m -> "CRASH: " ^ m

let under_fuel f = Instance.Fuel.with_fuel exec_fuel_budget f

let exec_tier (go : unit -> outcome list) : exec_result =
  match go () with
  | outs -> X_outs outs
  | exception Instance.Link_error m -> X_reject ("link: " ^ m)
  | exception Instance.Exhaustion _ -> X_reject "exhausted"
  | exception Instance.Trap _ -> X_reject "trap"
  | exception Stack_overflow -> X_crash "stack overflow"
  | exception e -> X_crash (Printexc.to_string e)

let limit_memories mems =
  Array.iter (fun mem -> Instance.Memory.set_limit_bytes mem (Some exec_mem_limit_bytes)) mems

(** Differentially execute a validated mutant: [m] is [bytes] decoded,
    for interp, and fast loads [bytes] itself. [None] = tiers agree and
    nothing crashed; [Some detail] is a finding. *)
let exec_mutant (m : module_) bytes : string option =
  let calls = nullary_exports m in
  let tiers =
    [
      ( "interp",
        fun () ->
          let inst = Interp.instantiate m in
          limit_memories inst.Instance.memories;
          let start = catching (fun () -> under_fuel (fun () -> Interp.run_start inst); []) in
          start
          :: List.map
               (fun name ->
                 catching (fun () ->
                     match Instance.export_func inst name with
                     | Some f -> under_fuel (fun () -> Interp.invoke f [])
                     | None -> raise (Instance.Link_error ("no export " ^ name))))
               calls );
      ( "fast",
        fun () ->
          let finst = Fastinterp.instantiate (Fastinterp.compile_bytes ~fuel:true bytes) in
          limit_memories finst.Instance.memories;
          let start = catching (fun () -> under_fuel (fun () -> Fastinterp.run_start finst); []) in
          start
          :: List.map
               (fun name -> catching (fun () -> under_fuel (fun () -> Fastinterp.invoke finst name [])))
               calls );
    ]
  in
  let results = List.map (fun (name, go) -> (name, exec_tier go)) tiers in
  let crash =
    List.find_map
      (fun (name, r) ->
        match r with
        | X_crash d -> Some (Printf.sprintf "crash in %s: %s" name d)
        | X_outs outs ->
          List.find_map
            (function
              | Crash d -> Some (Printf.sprintf "crash in %s: %s" name d) | _ -> None)
            outs
        | X_reject _ -> None)
      results
  in
  match (crash, results) with
  | Some d, _ -> Some d
  | None, (na, a) :: rest ->
    List.find_map
      (fun (nb, b) ->
        if exec_result_equal a b then None
        else
          Some
            (Printf.sprintf "exec divergence: %s=%s vs %s=%s" na (exec_result_to_string a) nb
               (exec_result_to_string b)))
      rest
  | None, [] -> None

(* The two front doors must agree on every byte string: the same typed
   rejection with the same message, or acceptance. *)
let same_rejection a b =
  match (a, b) with
  | Decode.Malformed x, Decode.Malformed y | Validate.Invalid x, Validate.Invalid y ->
    String.equal x y
  | _ -> false

let run_bytes ?(exec = false) (bytes : string) : decode_verdict =
  let onepass = match Fastinterp.compile_bytes bytes with cm -> Ok cm | exception e -> Error e in
  let disagree ast =
    Decoder_crash
      (Printf.sprintf "front doors disagree: decode+validate %s, one-pass %s" ast
         (match onepass with Ok _ -> "accepts" | Error e -> Printexc.to_string e))
  in
  let rejected e =
    match onepass with
    | Error e' when same_rejection e e' -> Rejected
    | _ -> disagree (Printexc.to_string e)
  in
  match Decode.decode bytes with
  | exception (Decode.Malformed _ as e) -> rejected e
  | exception e -> Decoder_crash ("decode: " ^ Printexc.to_string e)
  | m -> (
    match Validate.validate m with
    | exception (Validate.Invalid _ as e) -> rejected e
    | exception e -> Decoder_crash ("validate: " ^ Printexc.to_string e)
    | () -> (
      match onepass with
      | Error _ -> disagree "accepts"
      | Ok _ -> (
        match Encode.encode m with
        | exception e -> Decoder_crash ("re-encode of accepted module: " ^ Printexc.to_string e)
        | bytes' -> (
          match Decode.decode bytes' with
          | exception e ->
            Decoder_crash ("re-decode of accepted module: " ^ Printexc.to_string e)
          | m' -> (
            match Validate.validate m' with
            | exception e ->
              Decoder_crash ("re-validate of accepted module: " ^ Printexc.to_string e)
            | () ->
              if exec && not (mem_too_big m) then
                match exec_mutant m bytes with
                | Some detail -> Exec_diverged detail
                | None -> Accepted
              else Accepted)))))
