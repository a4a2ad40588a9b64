(** The fuzz campaign driver.

    Five targets, every case a pure function of [seed]:

    - [Modgen]: structured modules from {!Gen} through the two-tier
      differential oracle {!Diff.run_case} (results, traps and fuel);
    - [Decode]: byte mutations of encoded modules (and raw garbage)
      through {!Diff.run_bytes} (typed-verdict-or-crash, roundtrip);
    - [Crypto]: {!Crypto_diff.round} ({!Watz_crypto} vs the frozen
      reference stack);
    - [Proto]: {!Proto_fuzz.round} (attestation handlers, MITM
      transport sessions, boot chains);
    - [Pipeline]: {!Pipeline_fuzz.round} (random MiniC through
      compile → measure → attest → execute).

    Case [i] of a target runs from [Prng.create (case_seed seed tgt i)]
    — findings are replayable from that derived seed alone, independent
    of timing, of other targets, and of how the budget was split.
    Failing byte inputs are shrunk (ddmin) and failing module cases
    have their call sequences minimized before being written to the
    corpus directory. *)

module Prng = Watz_util.Prng

type target = Modgen | Decode | Crypto | Proto | Pipeline

let all_targets = [ Modgen; Decode; Crypto; Proto; Pipeline ]

let target_name = function
  | Modgen -> "modgen"
  | Decode -> "decode"
  | Crypto -> "crypto"
  | Proto -> "proto"
  | Pipeline -> "pipeline"

let target_of_string = function
  | "modgen" -> Some Modgen
  | "decode" -> Some Decode
  | "crypto" -> Some Crypto
  | "proto" -> Some Proto
  | "pipeline" -> Some Pipeline
  | _ -> None

(* Derived per-case seed: mix the campaign seed, a target tag and the
   case index through the PRNG itself (two rounds of its output
   function), so neighbouring indices land far apart. *)
let case_seed seed target i =
  let tag = Int64.of_int (Hashtbl.hash (target_name target)) in
  let r = Prng.create (Int64.logxor seed (Int64.mul tag 0x9e3779b97f4a7c15L)) in
  let _ = Prng.next64 r in
  Int64.logxor (Prng.next64 r) (Int64.mul (Int64.of_int (i + 1)) 0xbf58476d1ce4e5b9L)

type finding = {
  f_target : target;
  f_case_seed : int64; (* replays the case: Prng.create f_case_seed *)
  f_desc : string;
  f_payload : string; (* shrunk bytes where the input is bytes; else "" *)
}

type target_stats = {
  t_target : target;
  t_execs : int;
  t_elapsed_s : float;
  t_findings : int;
}

type report = {
  r_seed : int64;
  r_budget : int;
  r_stats : target_stats list;
  r_findings : finding list;
}

(* ------------------------------------------------------------------ *)
(* Per-target case runners: [case_seed -> finding option] *)

(* [shrink:false] skips minimization — corpus replay only needs to know
   whether the historical case still fires, and shrinking a reproducing
   finding costs thousands of two-tier runs. *)
let modgen_case ?(shrink = true) cs =
  let rng = Prng.create cs in
  let case = Gen.generate rng in
  match Diff.run_case case with
  | Diff.Agree -> None
  | Diff.Invalid_module _ as verdict ->
    (* a generator bug: report as-is, body-shrinking has no valid
       failure to preserve *)
    Some
      { f_target = Modgen; f_case_seed = cs; f_desc = Diff.verdict_to_string verdict;
        f_payload = "" }
  | Diff.Diverged _ | Diff.Crashed _ as verdict ->
    (* minimize calls, arguments, then instruction bodies while the
       tiers still disagree on a *valid* module *)
    let shrunk =
      if shrink then Shrink.deep_case (fun c -> Diff.is_failure (Diff.run_case c)) case
      else case
    in
    let desc =
      if shrink then Diff.verdict_to_string (Diff.run_case shrunk)
      else Diff.verdict_to_string verdict
    in
    let payload = try Watz_wasm.Encode.encode shrunk.Gen.module_ with _ -> "" in
    Some { f_target = Modgen; f_case_seed = cs; f_desc = desc; f_payload = payload }

let decode_case cs =
  let rng = Prng.create cs in
  let bytes =
    if Prng.int rng 8 = 0 then
      (* raw garbage, occasionally with a genuine magic prefix *)
      let body = Prng.bytes rng (Prng.int rng 200) in
      if Prng.bool rng then "\x00asm\x01\x00\x00\x00" ^ body else body
    else begin
      (* mutate a real encoded module *)
      let case = Gen.generate ~config:{ Gen.default_config with Gen.max_funcs = 3 } rng in
      Mutate.mutate rng (Watz_wasm.Encode.encode case.Gen.module_)
    end
  in
  match Diff.run_bytes ~exec:true bytes with
  | Diff.Rejected | Diff.Accepted -> None
  | Diff.Decoder_crash _ ->
    let crashes b =
      match Diff.run_bytes b with Diff.Decoder_crash _ -> true | _ -> false
    in
    let shrunk = Shrink.bytes crashes bytes in
    let desc =
      match Diff.run_bytes shrunk with
      | Diff.Decoder_crash d -> d
      | _ -> "crash (unstable under shrinking)"
    in
    Some { f_target = Decode; f_case_seed = cs; f_desc = desc; f_payload = shrunk }
  | Diff.Exec_diverged _ ->
    (* Shrink while the mutant still executes differently across tiers
       (any divergence — chasing one specific message over-constrains
       the shrinker). *)
    let diverges b =
      match Diff.run_bytes ~exec:true b with Diff.Exec_diverged _ -> true | _ -> false
    in
    let shrunk = Shrink.bytes diverges bytes in
    let desc =
      match Diff.run_bytes ~exec:true shrunk with
      | Diff.Exec_diverged d -> d
      | _ -> "exec divergence (unstable under shrinking)"
    in
    Some { f_target = Decode; f_case_seed = cs; f_desc = desc; f_payload = shrunk }

let crypto_case cs =
  match Crypto_diff.round (Prng.create cs) with
  | Ok () -> None
  | Error desc -> Some { f_target = Crypto; f_case_seed = cs; f_desc = desc; f_payload = "" }
  | exception e ->
    Some
      { f_target = Crypto; f_case_seed = cs;
        f_desc = "crypto round crashed: " ^ Printexc.to_string e; f_payload = "" }

let proto_case ctx cs =
  match Proto_fuzz.round ctx cs (Prng.create cs) with
  | Ok () -> None
  | Error desc -> Some { f_target = Proto; f_case_seed = cs; f_desc = desc; f_payload = "" }
  | exception e ->
    Some
      { f_target = Proto; f_case_seed = cs;
        f_desc = "proto round crashed: " ^ Printexc.to_string e; f_payload = "" }

(* The pipeline target shares one booted board across cases; boards are
   deterministic (manufactured from the campaign seed), so case
   isolation comes from the per-case PRNG, not the board. *)
type pipeline_ctx = {
  p_soc : Watz_tz.Soc.t;
  p_service : Watz_attest.Service.t;
  p_policy : claim:string -> Watz_attest.Protocol.Verifier.policy;
}

let make_pipeline_ctx seed =
  let soc = Watz_tz.Soc.manufacture ~seed:(Printf.sprintf "pipeline-board-%Ld" seed) () in
  (match Watz_tz.Soc.boot soc with Ok _ -> () | Error _ -> failwith "pipeline board failed to boot");
  let service = Watz_attest.Service.install (Watz_tz.Soc.optee soc) in
  let policy ~claim =
    Watz_attest.Protocol.Verifier.make_policy ~identity_seed:"pipeline-relying-party"
      ~endorsed_keys:[ Watz_attest.Service.public_key service ]
      ~reference_claims:[ claim ] ~secret_blob:"pipeline secret" ()
  in
  { p_soc = soc; p_service = service; p_policy = policy }

let pipeline_case pctx cs =
  match
    Pipeline_fuzz.round pctx.p_soc ~policy:pctx.p_policy ~service:pctx.p_service
      (Prng.create cs)
  with
  | Ok () -> None
  | Error desc -> Some { f_target = Pipeline; f_case_seed = cs; f_desc = desc; f_payload = "" }
  | exception e ->
    Some
      { f_target = Pipeline; f_case_seed = cs;
        f_desc = "pipeline round crashed: " ^ Printexc.to_string e; f_payload = "" }

(* ------------------------------------------------------------------ *)
(* Campaign *)

(* Budget shares, in tenths: cheap targets get the bulk, the end-to-end
   targets enough to matter without dominating wall-clock. *)
let share budget = function
  | Modgen -> budget * 3 / 10
  | Decode -> budget * 4 / 10
  | Crypto -> budget * 2 / 10
  | Proto -> max 1 (budget / 20)
  | Pipeline -> max 1 (budget / 20)

(** [run ~seed ~budget ~targets ()] executes the campaign. [budget] is
    the total case count, split across [targets] with fixed weights (so
    findings stay replayable however the budget changes: a case's seed
    depends only on its target and index). [on_finding] fires as
    findings are discovered (already shrunk). *)
let run ?(targets = all_targets) ?(on_finding = fun (_ : finding) -> ()) ~seed ~budget () :
    report =
  let lazy_proto = lazy (Proto_fuzz.make_ctx seed) in
  let lazy_pipeline = lazy (make_pipeline_ctx seed) in
  let run_target target =
    let n = max 1 (share budget target) in
    let case =
      match target with
      | Modgen -> modgen_case ~shrink:true
      | Decode -> decode_case
      | Crypto -> crypto_case
      | Proto -> fun cs -> proto_case (Lazy.force lazy_proto) cs
      | Pipeline -> fun cs -> pipeline_case (Lazy.force lazy_pipeline) cs
    in
    let t0 = Unix.gettimeofday () in
    let findings = ref [] in
    for i = 0 to n - 1 do
      match case (case_seed seed target i) with
      | None -> ()
      | Some f ->
        findings := f :: !findings;
        on_finding f
    done;
    let elapsed = Unix.gettimeofday () -. t0 in
    ( { t_target = target; t_execs = n; t_elapsed_s = elapsed;
        t_findings = List.length !findings },
      List.rev !findings )
  in
  let results = List.map run_target targets in
  {
    r_seed = seed;
    r_budget = budget;
    r_stats = List.map fst results;
    r_findings = List.concat_map snd results;
  }

(* ------------------------------------------------------------------ *)
(* Corpus integration *)

let entry_of_finding (f : finding) : Corpus.entry =
  {
    Corpus.target = target_name f.f_target;
    seed = f.f_case_seed;
    desc = f.f_desc;
    payload = f.f_payload;
  }

let write_findings ~dir (r : report) =
  List.map (fun f -> Corpus.write_entry ~dir (entry_of_finding f)) r.r_findings

(** Replay one corpus entry. [Ok ()] means the historical finding no
    longer reproduces (the regression stayed fixed); [Error desc] means
    it fired again. Unknown targets are errors, not skips, so corpus
    rot is loud. *)
let replay_entry (e : Corpus.entry) : (unit, string) result =
  match target_of_string e.Corpus.target with
  | None -> Error ("unknown corpus target: " ^ e.Corpus.target)
  | Some Decode -> (
    (* the payload bytes are the reproducer *)
    match Diff.run_bytes ~exec:true e.Corpus.payload with
    | Diff.Rejected | Diff.Accepted -> Ok ()
    | Diff.Decoder_crash d | Diff.Exec_diverged d -> Error d)
  | Some Modgen -> (
    match modgen_case ~shrink:false e.Corpus.seed with None -> Ok () | Some f -> Error f.f_desc)
  | Some Crypto -> (
    match crypto_case e.Corpus.seed with None -> Ok () | Some f -> Error f.f_desc)
  | Some Proto -> (
    let ctx = Proto_fuzz.make_ctx e.Corpus.seed in
    match proto_case ctx e.Corpus.seed with None -> Ok () | Some f -> Error f.f_desc)
  | Some Pipeline -> (
    let pctx = make_pipeline_ctx e.Corpus.seed in
    match pipeline_case pctx e.Corpus.seed with None -> Ok () | Some f -> Error f.f_desc)

let replay_dir dir : (string * (unit, string) result) list =
  List.map (fun (name, e) -> (name, replay_entry e)) (Corpus.load_dir dir)
