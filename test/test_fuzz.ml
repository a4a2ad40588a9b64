(* Tests for the fuzzing & differential-verification harness:
   golden decoder error messages, deterministic small-budget campaigns,
   corpus file round-trips, shrinker behaviour, and replay of
   historical findings pinned as regressions. *)

open Watz_fuzz
module Prng = Watz_util.Prng

(* ------------------------------------------------------------------ *)
(* Golden decoder errors: malformed inputs must raise [Decode.Malformed]
   with a stable, typed message — never a reader exception or a crash. *)

let expect_malformed bytes fragment =
  match Watz_wasm.Decode.decode bytes with
  | _ -> Alcotest.failf "expected Malformed %S, input decoded" fragment
  | exception Watz_wasm.Decode.Malformed msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S in %S" fragment msg)
      true
      (Astring.String.is_infix ~affix:fragment msg)
  | exception e ->
    Alcotest.failf "expected Malformed %S, got %s" fragment (Printexc.to_string e)

let magic = "\x00asm\x01\x00\x00\x00"

let test_decode_golden_truncation () =
  expect_malformed "" "truncated magic";
  expect_malformed "\x00as" "truncated magic";
  expect_malformed "\x00asm" "truncated version";
  expect_malformed "\x00asm\x01\x00" "truncated version";
  (* type section claims 5 payload bytes, none follow *)
  expect_malformed (magic ^ "\x01\x05") "unexpected end of input";
  (* code section with a truncated function body *)
  expect_malformed (magic ^ "\x0a\x04\x01\x10\x00\x41") "unexpected end of input"

let test_decode_golden_magic_and_version () =
  expect_malformed "Xasm\x01\x00\x00\x00" "bad magic";
  expect_malformed "\x00asM\x01\x00\x00\x00" "bad magic";
  expect_malformed "\x00asm\x02\x00\x00\x00" "unsupported version"

let test_decode_golden_leb128 () =
  (* section size as an overlong LEB128 run: 6 continuation bytes can
     never encode a u32 *)
  expect_malformed (magic ^ "\x01\x80\x80\x80\x80\x80\x80\x00") "malformed LEB128 integer";
  (* same shape inside a section payload (vec length) *)
  expect_malformed (magic ^ "\x01\x07\x80\x80\x80\x80\x80\x80\x00") "malformed LEB128 integer"

let test_decode_golden_sections () =
  expect_malformed (magic ^ "\x0c\x00") "unknown section id";
  (* two type sections: out of order *)
  expect_malformed (magic ^ "\x01\x01\x00\x01\x01\x00") "out of order";
  (* function section declares one function, no code section follows *)
  expect_malformed (magic ^ "\x03\x02\x01\x00") "lengths disagree"

let test_decode_golden_deep_nesting () =
  (* a body of 300 nested blocks overruns the decoder's nesting bound;
     build it structurally and encode, then check the decoder refuses
     its own encoder's output rather than blowing the stack *)
  let open Watz_wasm in
  let body = List.fold_left (fun acc _ -> [ Ast.Block (Ast.BlockEmpty, acc) ]) [] (List.init 300 Fun.id) in
  let b = Builder.create () in
  let f = Builder.func b ~params:[] ~results:[] ~locals:[] body in
  Builder.export_func b "f" f;
  let bytes = Encode.encode (Builder.build b) in
  expect_malformed bytes "nesting deeper than"

let test_validate_golden_out_of_range () =
  let open Watz_wasm in
  let expect_invalid m fragment =
    match Validate.validate m with
    | () -> Alcotest.failf "expected Invalid %S" fragment
    | exception Validate.Invalid msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S in %S" fragment msg)
        true
        (Astring.String.is_infix ~affix:fragment msg)
  in
  let single body =
    let b = Builder.create () in
    let f = Builder.func b ~params:[] ~results:[] ~locals:[] body in
    Builder.export_func b "f" f;
    Builder.build b
  in
  expect_invalid (single [ Ast.Call 99 ]) "out of range";
  expect_invalid (single [ Ast.GlobalGet 7 ]) "out of range";
  expect_invalid (single [ Ast.LocalGet 3; Ast.Drop ]) "out of range"

(* ------------------------------------------------------------------ *)
(* Campaign determinism and structure *)

let finding_key (f : Fuzz.finding) =
  Printf.sprintf "%s/%Ld/%s/%s" (Fuzz.target_name f.Fuzz.f_target) f.Fuzz.f_case_seed
    f.Fuzz.f_desc (Corpus.to_hex f.Fuzz.f_payload)

let test_campaign_deterministic () =
  let run () = Fuzz.run ~targets:[ Fuzz.Modgen; Fuzz.Decode ] ~seed:424242L ~budget:100 () in
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "no findings" 0 (List.length r1.Fuzz.r_findings);
  Alcotest.(check (list string))
    "identical findings across runs"
    (List.map finding_key r1.Fuzz.r_findings)
    (List.map finding_key r2.Fuzz.r_findings);
  Alcotest.(check (list (pair string int)))
    "identical exec counts"
    (List.map (fun s -> (Fuzz.target_name s.Fuzz.t_target, s.Fuzz.t_execs)) r1.Fuzz.r_stats)
    (List.map (fun s -> (Fuzz.target_name s.Fuzz.t_target, s.Fuzz.t_execs)) r2.Fuzz.r_stats)

let test_campaign_smoke_all_targets () =
  (* tiny budget across every target: campaign must end clean and
     exercise each target at least once *)
  let r = Fuzz.run ~seed:9L ~budget:60 () in
  Alcotest.(check int) "five targets" 5 (List.length r.Fuzz.r_stats);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Fuzz.target_name s.Fuzz.t_target ^ " ran")
        true (s.Fuzz.t_execs >= 1))
    r.Fuzz.r_stats;
  List.iter
    (fun (f : Fuzz.finding) ->
      Alcotest.failf "finding in %s (seed %Ld): %s" (Fuzz.target_name f.Fuzz.f_target)
        f.Fuzz.f_case_seed f.Fuzz.f_desc)
    r.Fuzz.r_findings

let test_case_seed_mixing () =
  (* derived case seeds: deterministic, and distinct across targets and
     neighbouring indices *)
  Alcotest.(check int64)
    "stable" (Fuzz.case_seed 1L Fuzz.Modgen 0) (Fuzz.case_seed 1L Fuzz.Modgen 0);
  Alcotest.(check bool)
    "targets differ" true
    (Fuzz.case_seed 1L Fuzz.Modgen 0 <> Fuzz.case_seed 1L Fuzz.Decode 0);
  Alcotest.(check bool)
    "indices differ" true
    (Fuzz.case_seed 1L Fuzz.Modgen 0 <> Fuzz.case_seed 1L Fuzz.Modgen 1)

let test_generator_termination_and_validity () =
  (* every generated module validates and runs to a verdict (no hangs,
     no generator-invalid modules) on a spread of seeds *)
  for i = 0 to 30 do
    let cs = Fuzz.case_seed 77L Fuzz.Modgen i in
    let case = Gen.generate (Prng.create cs) in
    match Diff.run_case case with
    | Diff.Agree -> ()
    | v -> Alcotest.failf "seed %Ld: %s" cs (Diff.verdict_to_string v)
  done

(* ------------------------------------------------------------------ *)
(* Corpus round-trips *)

let temp_dir () =
  let f = Filename.temp_file "watz-corpus" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let test_corpus_roundtrip () =
  let dir = temp_dir () in
  let e =
    { Corpus.target = "decode"; seed = -5L; desc = "multi\nline desc";
      payload = "\x00\xff\x7f raw bytes" }
  in
  let path = Corpus.write_entry ~dir e in
  let e' = Corpus.read_entry path in
  Alcotest.(check string) "target" e.Corpus.target e'.Corpus.target;
  Alcotest.(check int64) "seed" e.Corpus.seed e'.Corpus.seed;
  Alcotest.(check string) "payload" e.Corpus.payload e'.Corpus.payload;
  Alcotest.(check string) "desc flattened" "multi line desc" e'.Corpus.desc;
  (* idempotent naming *)
  let path2 = Corpus.write_entry ~dir e in
  Alcotest.(check string) "same path" path path2;
  (* distinct seeds with empty payloads must not collide *)
  let n1 = Corpus.name_of { e with Corpus.seed = 1L; payload = "" } in
  let n2 = Corpus.name_of { e with Corpus.seed = 2L; payload = "" } in
  Alcotest.(check bool) "no name collision" true (n1 <> n2);
  let entries = Corpus.load_dir dir in
  Alcotest.(check int) "one entry" 1 (List.length entries);
  Sys.remove path;
  Sys.rmdir dir

let test_corpus_rejects_garbage () =
  (match Corpus.parse "not a corpus file" with
  | _ -> Alcotest.fail "expected Bad_entry"
  | exception Corpus.Bad_entry _ -> ());
  match Corpus.parse "watz-fuzz-corpus v1\ntarget: x\nseed: 1\ndesc: d\npayload-hex: zz\n" with
  | _ -> Alcotest.fail "expected Bad_entry on bad hex"
  | exception Corpus.Bad_entry _ -> ()

(* ------------------------------------------------------------------ *)
(* Shrinker and mutator *)

let test_shrink_bytes_minimizes () =
  let pred s = String.contains s 'X' in
  Alcotest.(check string) "shrinks to the witness" "X" (Shrink.bytes pred "aaaaXbbbbccccdddd");
  (* predicate on length: shrinks down to the threshold *)
  let pred5 s = String.length s >= 5 in
  Alcotest.(check int) "shrinks to threshold" 5 (String.length (Shrink.bytes pred5 (String.make 64 'q')))

let test_mutate_deterministic () =
  let s = String.init 64 (fun i -> Char.chr (i * 7 land 0xff)) in
  let a = Mutate.mutate (Prng.create 7L) s in
  let b = Mutate.mutate (Prng.create 7L) s in
  Alcotest.(check string) "same seed, same mutant" a b;
  Alcotest.(check bool) "bounded size" true (String.length a <= 1_048_576)

(* ------------------------------------------------------------------ *)
(* Historical findings, pinned.

   These five modgen case seeds produced interp-vs-fastinterp
   divergences before the branch-compare fusion guard landed in
   fastinterp's [absorb] (a retargeted producer writing a *local* was
   folded into the branch, deleting the store). Replaying them must
   stay clean forever. *)

let fusion_regression_seeds =
  [ -3176979823670531423L;
    5040717550922241876L;
    3554728262558152991L;
    1012545724445512518L;
    -220012218418710536L ]

let test_fastinterp_fusion_replays () =
  List.iter
    (fun seed ->
      let e =
        { Corpus.target = "modgen"; seed;
          desc = "historical interp/fast divergence (branch-compare fusion)"; payload = "" }
      in
      match Fuzz.replay_entry e with
      | Ok () -> ()
      | Error d -> Alcotest.failf "seed %Ld reproduces: %s" seed d)
    fusion_regression_seeds

(* ------------------------------------------------------------------ *)
(* Fuel-limited execution: the decode target's exec stage runs mutants
   under a fuel budget, so both tiers must charge identically — a
   fuel trap that fires at different points would masquerade as a
   divergence. *)

let spin_module () =
  let open Watz_wasm in
  let b = Builder.create () in
  let f =
    Builder.func b ~params:[] ~results:[] ~locals:[]
      [ Ast.Loop (Ast.BlockEmpty, [ Ast.Br 0 ]) ]
  in
  Builder.export_func b "spin" f;
  Builder.build b

(* Counts to [iters] in a local: 1 function-entry charge plus one
   charge per loop iteration, on every tier. *)
let bounded_module iters =
  let open Watz_wasm in
  let body =
    [ Ast.Loop
        ( Ast.BlockEmpty,
          [ Ast.LocalGet 0; Ast.Const (Ast.VI32 1l); Ast.IBinop (Types.I32, Ast.Add);
            Ast.LocalTee 0; Ast.Const (Ast.VI32 (Int32.of_int iters));
            Ast.IRelop (Types.I32, Ast.LtS); Ast.BrIf 0 ] ) ]
  in
  let b = Builder.create () in
  let f = Builder.func b ~params:[] ~results:[] ~locals:[ Types.I32 ] body in
  Builder.export_func b "run" f;
  Builder.build b

let interp_invoke m name =
  let open Watz_wasm in
  let inst = Instance.instantiate m in
  match Instance.export_func inst name with
  | Some f -> ignore (Interp.invoke f [])
  | None -> Alcotest.failf "no export %s" name

let fast_invoke m name =
  let open Watz_wasm in
  ignore (Fastinterp.invoke (Fastinterp.instantiate (Fastinterp.compile ~fuel:true m)) name [])

let test_fuel_trap_tier_identical () =
  let open Watz_wasm in
  let m = spin_module () in
  Validate.validate m;
  let exhausts tier f =
    Instance.Fuel.with_fuel 10_000 (fun () ->
        match f m "spin" with
        | () -> Alcotest.failf "%s: infinite loop returned under fuel" tier
        | exception Instance.Exhaustion _ -> ())
  in
  exhausts "interp" interp_invoke;
  exhausts "fastinterp" fast_invoke;
  (* the differential harness calls exhaustion-everywhere agreement *)
  match Diff.run_bytes ~exec:true (Encode.encode m) with
  | Diff.Accepted -> ()
  | Diff.Rejected -> Alcotest.fail "spin module rejected"
  | Diff.Decoder_crash d | Diff.Exec_diverged d -> Alcotest.failf "spin module: %s" d

let test_fuel_charge_parity () =
  let open Watz_wasm in
  let m = bounded_module 100 in
  Validate.validate m;
  let budget = 10_000 in
  let remaining f =
    Instance.Fuel.with_fuel budget (fun () ->
        f m "run";
        !Instance.Fuel.cell)
  in
  let r_interp = remaining interp_invoke in
  Alcotest.(check int) "interp = fastinterp fuel charge" r_interp (remaining fast_invoke);
  Alcotest.(check bool) "fuel was charged" true (r_interp < budget);
  (* without a budget, fuel is free: same module, no charging *)
  interp_invoke m "run";
  Alcotest.(check bool) "fuel off outside with_fuel" false (Instance.Fuel.enabled ())

(* The checked-in corpus (test/corpus/) replays clean. Runs against the
   dune-declared copy when present; an empty/missing dir is vacuous. *)
let test_checked_in_corpus_replays () =
  List.iter
    (fun (name, result) ->
      match result with
      | Ok () -> ()
      | Error d -> Alcotest.failf "%s reproduces: %s" name d)
    (Fuzz.replay_dir "corpus")

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "fuzz.decode_golden",
      [
        case "truncation" test_decode_golden_truncation;
        case "magic and version" test_decode_golden_magic_and_version;
        case "overlong LEB128" test_decode_golden_leb128;
        case "section structure" test_decode_golden_sections;
        case "deep nesting" test_decode_golden_deep_nesting;
        case "validator out-of-range" test_validate_golden_out_of_range;
      ] );
    ( "fuzz.campaign",
      [
        case "deterministic" test_campaign_deterministic;
        case "smoke all targets" test_campaign_smoke_all_targets;
        case "case seed mixing" test_case_seed_mixing;
        case "generator termination+validity" test_generator_termination_and_validity;
      ] );
    ( "fuzz.corpus",
      [
        case "roundtrip" test_corpus_roundtrip;
        case "rejects garbage" test_corpus_rejects_garbage;
        case "checked-in corpus replays clean" test_checked_in_corpus_replays;
      ] );
    ( "fuzz.shrink",
      [
        case "bytes ddmin" test_shrink_bytes_minimizes;
        case "mutator deterministic" test_mutate_deterministic;
      ] );
    ( "fuzz.fuel",
      [
        case "fuel trap is tier-identical" test_fuel_trap_tier_identical;
        case "fuel charge parity across tiers" test_fuel_charge_parity;
      ] );
    ("fuzz.regressions", [ case "fastinterp fusion seeds" test_fastinterp_fusion_replays ]);
  ]
