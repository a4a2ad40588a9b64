(* The five workloads. Each [setup] builds, from the seed alone,
   everything its ops need (boards, keys, compiled modules, datasets,
   tickets, native reference results) and returns a runner for the next
   [n] ops. Ops go through the public functions of lib/; every call into
   a layer is wrapped in a {!Span} so a traced run can attribute op wall
   time to layers. Output checks record into [violations]. *)

module Soc = Watz_tz.Soc
module Net = Watz_tz.Net
module P = Watz_attest.Protocol
module Service = Watz_attest.Service
module Prng = Watz_util.Prng
module Stats = Watz_util.Stats
module Runtime = Watz.Runtime
module Attester_app = Watz.Attester_app
module Verifier_app = Watz.Verifier_app
module Mesh_attester = Watz_mesh.Mesh_attester
module Mesh_verifier = Watz_mesh.Mesh_verifier
module Identity = Watz_mesh.Identity
module Histogram = Watz_obs.Metrics.Histogram
module PB = Watz_workloads.Polybench
module ST = Watz_workloads.Speedtest
module GW = Watz_workloads.Genann_wasm

type window = {
  lat_ms : float array; (* wall latency of every attempted op *)
  failed : int;
  counts : unit -> (string * float * string) list;
      (* per-layer counts over this window, computed after it closes and
         before the next [run]: the sort behind a median allocates by
         comparison outcomes, which would make the window's allocation
         depend on its timings *)
}

type instance = { run : int -> window; info : (string * string) list }

type t = {
  name : string;
  ops_per_second : float;
      (* a run of --seconds s does s * ops_per_second ops: a fixed count, so
         two commits always do the same work *)
  batch : int; (* op counts are rounded to a multiple of this *)
  setup : int64 -> instance;
}

let violations = ref []

let check ok what =
  if (not ok) && List.length !violations < 8 then violations := what :: !violations

let k_attester_start = Span.kind "core.attester_start"
let k_attester_step = Span.kind "core.attester_step"
let k_issue = Span.kind "attestation.issue"
let k_verifier_step = Span.kind "core.verifier_step"
let k_net_tick = Span.kind "tz.net_tick"
let k_mesh_start = Span.kind "mesh.attester_start"
let k_mesh_step = Span.kind "mesh.attester_step"
let k_mesh_verifier_step = Span.kind "mesh.verifier_step"
let k_invoke = Span.kind "core.invoke"
let k_cache_clear = Span.kind "core.cache_clear"
let k_load = Span.kind "core.load"
let k_unload = Span.kind "core.unload"

let booted name =
  let soc = Soc.manufacture ~seed:name () in
  (match Soc.boot soc with Ok _ -> () | Error _ -> failwith (name ^ ": boot failed"));
  soc

let ms_since t0 = (Span.now_s () -. t0) *. 1e3
let per n x = x /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Attestation sessions over the simulated link. *)

(* Sessions in flight per closed loop. One domain drives attesters and
   verifier alike, so more would only lengthen the verifier's queue. *)
let concurrency = 2
let quantum_ns = 1_000_000

(* Drive [n] sessions closed-loop, [concurrency] at a time, one tick at
   a time in Storm's order: launch into free slots, advance the link,
   run the verifier, step every live session, advance the simulated
   clock. [finish s ms] sees each session once, when it is terminal,
   with its wall latency. Returns the number of ticks. *)
let closed_loop soc ~n ~start ~step ~terminal ~finish ~server =
  let slots = Array.make concurrency None in
  let launched = ref 0 and finished = ref 0 and ticks = ref 0 in
  while !finished < n do
    incr ticks;
    Array.iteri
      (fun i slot ->
        if Option.is_none slot && !launched < n then begin
          incr launched;
          let t0 = Span.now_s () in
          slots.(i) <- Some (start (), t0)
        end)
      slots;
    Span.op := Span.shared;
    Span.span k_net_tick (fun () -> Net.tick soc.Soc.net);
    server ();
    Array.iteri
      (fun i slot ->
        match slot with
        | None -> ()
        | Some (s, t0) ->
          step s;
          if terminal s then begin
            finish s (ms_since t0);
            incr finished;
            slots.(i) <- None
          end)
      slots;
    Watz_tz.Simclock.advance soc.Soc.clock quantum_ns
  done;
  !ticks

let fault_total soc = List.fold_left (fun acc (_, v) -> acc + v) 0 (Net.fault_counts soc.Soc.net)

(* Simulated-clock op latency, in ticks of [quantum_ns] (1 ms). It is
   reported beside, never mixed into, the wall-clock metrics. *)
let sim_percentiles sim k =
  let sim = Array.sub sim 0 k in
  let pct p = if k = 0 then 0.0 else Stats.percentile sim p in
  [ ("tz.sim_op_ticks_p50", pct 50.0, "ticks"); ("tz.sim_op_ticks_p99", pct 99.0, "ticks") ]

let sim_ticks started finished =
  Int64.to_float (Int64.sub finished started) /. float_of_int quantum_ns

let attest_full =
  let setup seed =
    let soc = booted (Printf.sprintf "suite-attest-%Ld" seed) in
    let service = Service.install (Soc.optee soc) in
    let rng = Prng.create seed in
    let secret = Prng.bytes rng 1024 in
    let claim = Watz_crypto.Sha256.digest (Prng.bytes rng 64) in
    let policy =
      P.Verifier.make_policy
        ~identity_seed:(Printf.sprintf "suite-verifier-%Ld" seed)
        ~endorsed_keys:[ Service.public_key service ]
        ~reference_claims:[ claim ] ~secret_blob:secret ()
    in
    Net.configure soc.Soc.net ~seed ~profile:Net.lossy;
    let port = 7100 in
    let server = Verifier_app.start soc ~port ~policy in
    let issue ~anchor =
      Span.span k_issue (fun () ->
          Watz_attest.Evidence.encode (Service.issue_evidence service ~anchor ~claim))
    in
    let random = Prng.bytes rng in
    let expected_verifier = policy.P.Verifier.identity_pub in
    let batches = Watz_obs.Metrics.histogram (Verifier_app.metrics server) "verify_batch_size" in
    let sid = ref 0 in
    let run n =
      let lat = Array.make n 0.0 and sim = Array.make n 0.0 in
      let ops = ref 0 and completed = ref 0 and failed = ref 0 in
      let retries = ref 0 and live_max = ref 0 in
      let faults0 = fault_total soc in
      let bsum0 = Histogram.sum batches and bcount0 = Histogram.count batches in
      let start () =
        incr sid;
        Span.op := !sid;
        Span.span k_attester_start (fun () ->
            Attester_app.start ~sid:!sid soc ~port ~random ~expected_verifier ~issue)
      in
      let step (a : Attester_app.t) =
        Span.op := a.Attester_app.sid;
        Span.span k_attester_step (fun () -> Attester_app.step a)
      in
      let finish a ms =
        lat.(!ops) <- ms;
        incr ops;
        retries := !retries + Attester_app.retries a;
        match Attester_app.outcome a with
        | Attester_app.Done blob ->
          check (String.equal blob secret) "attest-full: blob differs from the policy secret";
          sim.(!completed) <- sim_ticks (Attester_app.started_ns a) (Attester_app.finished_ns a);
          incr completed
        | Attester_app.Aborted _ | Attester_app.Pending -> incr failed
      in
      let server () =
        Span.span k_verifier_step (fun () -> Verifier_app.step server);
        live_max := max !live_max (Verifier_app.live_sessions server)
      in
      let ticks =
        closed_loop soc ~n ~start ~step
          ~terminal:(fun a -> Attester_app.outcome a <> Attester_app.Pending)
          ~finish ~server
      in
      let bcount = Histogram.count batches - bcount0 in
      {
        lat_ms = lat;
        failed = !failed;
        counts =
          (fun () ->
          [
            ("tz.ticks_per_op", per n (float_of_int ticks), "count");
            ("tz.faults_per_op", per n (float_of_int (fault_total soc - faults0)), "count");
            ("core.retransmits_per_op", per n (float_of_int !retries), "count");
            ( "core.verify_batch_size_mean",
              (if bcount = 0 then 0.0
               else per bcount (float_of_int (Histogram.sum batches - bsum0))),
              "count" );
            ("core.verifier_live_sessions_max", float_of_int !live_max, "count");
          ]
          @ sim_percentiles sim !completed);
      }
    in
    ignore (run 4 : window);
    { run; info = [ ("profile", "lossy"); ("concurrency", string_of_int concurrency) ] }
  in
  { name = "attest-full"; ops_per_second = 150.0; batch = 2; setup }

let subclaims_per_op = 2
let identities = 16

let attest_resume =
  let setup seed =
    let soc = booted (Printf.sprintf "suite-mesh-%Ld" seed) in
    Net.configure soc.Soc.net ~seed ~profile:Net.perfect;
    let rng = Prng.create seed in
    let secret = Prng.bytes rng 1024 in
    let claim = Watz_crypto.Sha256.digest (Prng.bytes rng 64) in
    let ids =
      Array.init identities (fun i -> Identity.create ~seed:(Printf.sprintf "%Ld-a%d" seed i) ~claim)
    in
    let policy =
      P.Verifier.make_policy
        ~identity_seed:(Printf.sprintf "suite-mesh-verifier-%Ld" seed)
        ~endorsed_keys:(Array.to_list (Array.map Identity.public_key ids))
        ~reference_claims:[ claim ] ~secret_blob:secret ()
    in
    let port = 7300 in
    (* Tickets and cache entries outlive any run (about 11 simulated
       days), so no op falls back to a full handshake. *)
    let forever = 1_000_000_000_000_000L in
    let server =
      Mesh_verifier.start ~ticket_ttl_ns:forever ~cache_ttl_ns:forever
        ~sub_refs:(Watz_mesh.Mesh_storm.sub_refs ())
        ~stek_seed:(Printf.sprintf "suite-stek-%Ld" seed)
        soc ~port ~policy ()
    in
    let cache = Mesh_verifier.cache server in
    let random = Prng.bytes rng in
    let expected_verifier = policy.P.Verifier.identity_pub in
    let busy = Array.make identities false in
    let sid = ref 0 in
    (* Each session uses the identity [pick] names (or the next one not
       already in flight) and attests [subclaims_per_op] sub-modules
       once established. *)
    let drive n ~pick ~finish =
      let start () =
        incr sid;
        let i = ref (pick ()) in
        while busy.(!i) do
          i := (!i + 1) mod identities
        done;
        busy.(!i) <- true;
        let subclaims =
          List.init subclaims_per_op (fun k ->
              let j = (!sid + k) mod Watz_mesh.Mesh_storm.sub_ref_count in
              (Printf.sprintf "module-%d" j, Watz_mesh.Mesh_storm.sub_measurement j))
        in
        Span.op := !sid;
        let a =
          Span.span k_mesh_start (fun () ->
              Mesh_attester.start ~sid:!sid ~subclaims soc ~port ~random ~identity:ids.(!i)
                ~expected_verifier ())
        in
        (a, !i)
      in
      let step ((a : Mesh_attester.t), _) =
        Span.op := a.Mesh_attester.sid;
        Span.span k_mesh_step (fun () -> Mesh_attester.step a)
      in
      let finish (a, i) ms =
        busy.(i) <- false;
        finish a ms
      in
      closed_loop soc ~n ~start ~step
        ~terminal:(fun (a, _) -> Mesh_attester.outcome a <> Mesh_attester.Pending)
        ~finish
        ~server:(fun () -> Span.span k_mesh_verifier_step (fun () -> Mesh_verifier.step server))
    in
    (* Mint one ticket per identity with a full handshake. *)
    let minted = ref 0 in
    ignore
      (drive identities
         ~pick:(fun () ->
           incr minted;
           !minted - 1)
         ~finish:(fun a _ ->
           match Mesh_attester.outcome a with
           | Mesh_attester.Done { Mesh_attester.path = Mesh_attester.Full_handshake; _ } -> ()
           | _ -> failwith "attest-resume: ticket minting failed")
        : int);
    let run n =
      let lat = Array.make n 0.0 and sim = Array.make n 0.0 in
      let ops = ref 0 and resumed = ref 0 and failed = ref 0 and acked = ref 0 in
      let hits0 = Watz_mesh.Cache.hits cache and misses0 = Watz_mesh.Cache.misses cache in
      let finish a ms =
        lat.(!ops) <- ms;
        incr ops;
        match Mesh_attester.outcome a with
        | Mesh_attester.Done d ->
          check
            (String.equal d.Mesh_attester.blob secret)
            "attest-resume: blob differs from the policy secret";
          acked := !acked + d.Mesh_attester.subclaims_acked;
          if d.Mesh_attester.path = Mesh_attester.Resumed && not d.Mesh_attester.fell_back then begin
            sim.(!resumed) <- sim_ticks (Mesh_attester.started_ns a) (Mesh_attester.finished_ns a);
            incr resumed
          end
          else incr failed
        | Mesh_attester.Aborted _ | Mesh_attester.Pending -> incr failed
      in
      let ticks = drive n ~pick:(fun () -> Prng.int rng identities) ~finish in
      let hits = Watz_mesh.Cache.hits cache - hits0 in
      let lookups = hits + Watz_mesh.Cache.misses cache - misses0 in
      {
        lat_ms = lat;
        failed = !failed;
        counts =
          (fun () ->
          [
            ("tz.ticks_per_op", per n (float_of_int ticks), "count");
            ("mesh.resumed_ratio", per n (float_of_int !resumed), "ratio");
            ( "mesh.cache_hit_ratio",
              (if lookups = 0 then 0.0 else per lookups (float_of_int hits)),
              "ratio" );
            ("mesh.subclaims_per_op", per n (float_of_int !acked), "count");
          ]
          @ sim_percentiles sim !resumed);
      }
    in
    ignore (run 4 : window);
    {
      run;
      info =
        [ ("profile", "perfect"); ("concurrency", string_of_int concurrency);
          ("identities", string_of_int identities) ];
    }
  in
  { name = "attest-resume"; ops_per_second = 2000.0; batch = 2; setup }

(* ------------------------------------------------------------------ *)
(* Wasm execution on already-loaded apps. *)

(* Dense, stencil, integer-DP and short PolyBench kernels, and Speedtest
   reads beside writes on the same MiniDB-style code. *)
let kernels =
  List.map
    (fun name ->
      let k = PB.find name in
      (name, k.PB.program, k.PB.native))
    [ "gemm"; "jacobi-2d"; "floyd-warshall"; "cholesky"; "atax"; "durbin" ]
  @ List.map
      (fun id ->
        let e = List.find (fun e -> e.ST.id = id) ST.all in
        (Printf.sprintf "st-%d" id, e.ST.program, e.ST.native))
      [ 130; 160; 510; 110; 120; 190 ]

let f64_result what = function
  | [ Watz_wasm.Ast.VF64 x ] -> x
  | _ -> failwith (what ^ ": run did not return one f64")

let wasm_kernels =
  let setup seed =
    let soc = booted "suite-kernels" in
    let apps =
      Array.of_list
        (List.map
           (fun (name, program, native) ->
             let app = Runtime.load ~entry:None soc (Watz_wasmc.Minic.compile_to_bytes program) in
             let expected = native () in
             let got = f64_result name (Runtime.invoke app "run" []) in
             check (Float.equal got expected) (name ^ ": Wasm checksum differs from native");
             (name, app, expected, native))
           kernels)
    in
    let nk = Array.length apps in
    (* Seeded kernel order, then round-robin. *)
    let order = Array.init nk Fun.id in
    let rng = Prng.create seed in
    for i = nk - 1 downto 1 do
      let j = Prng.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    let next = ref 0 in
    let run n =
      let lat = Array.make n 0.0 and which = Array.make n 0 in
      for i = 0 to n - 1 do
        let k = order.(!next mod nk) in
        incr next;
        let name, app, expected, _ = apps.(k) in
        Span.op := !next;
        let t0 = Span.now_s () in
        let r = Span.span k_invoke (fun () -> Runtime.invoke app "run" []) in
        lat.(i) <- ms_since t0;
        which.(i) <- k;
        check (Float.equal (f64_result name r) expected) (name ^ ": Wasm checksum differs from native")
      done;
      let per_kernel () =
        List.concat
          (List.init nk (fun k ->
               let name, _, _, native = apps.(k) in
               let mine = List.filter (fun i -> which.(i) = k) (List.init n Fun.id) in
               if mine = [] then []
               else begin
                 let med = Stats.median (Array.of_list (List.map (fun i -> lat.(i)) mine)) in
                 let native_ms =
                   Stats.median
                     (Array.init 5 (fun _ -> fst (Stats.time_ns (fun () -> ignore (native ())))))
                   /. 1e6
                 in
                 [
                   ("wasm.kernel." ^ name ^ "_ms", med, "ms");
                   ("wasm.kernel." ^ name ^ "_x_native", med /. native_ms, "x");
                 ]
               end))
      in
      { lat_ms = lat; failed = 0; counts = per_kernel }
    in
    {
      run;
      info = [ ("tier", Watz.Engine.tier_name Runtime.default_config.Runtime.tier) ];
    }
  in
  { name = "wasm-kernels"; ops_per_second = 100.8; batch = List.length kernels; setup }

(* ------------------------------------------------------------------ *)
(* Cold launches. *)

(* A Wasm custom section (id 0): ignored by execution, covered by the
   measurement, so each seed launches different bytes. *)
let custom_section name payload =
  let uleb n =
    let b = Buffer.create 5 in
    let rec go n =
      if n < 0x80 then Buffer.add_char b (Char.chr n)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
        go (n lsr 7)
      end
    in
    go n;
    Buffer.contents b
  in
  let body = uleb (String.length name) ^ name ^ payload in
  "\x00" ^ uleb (String.length body) ^ body

(* Launch phases from the public startup record, summed over a window. *)
let startup_phases = [| 0.0; 0.0; 0.0; 0.0 |]

let cold_load ?config soc ?entry bytes =
  Span.span k_cache_clear Runtime.cache_clear;
  let app = Span.span k_load (fun () -> Runtime.load ?config ?entry soc bytes) in
  let s = app.Runtime.startup in
  List.iteri
    (fun i ns -> startup_phases.(i) <- startup_phases.(i) +. (ns /. 1e6))
    [ s.Runtime.alloc_ns; s.Runtime.hash_ns; s.Runtime.load_ns; s.Runtime.instantiate_ns ];
  app

let take_startup_phases n =
  let names = [| "alloc"; "hash"; "prepare"; "instantiate" |] in
  let rows =
    List.init 4 (fun i -> ("core.load." ^ names.(i) ^ "_ms_per_op", per n startup_phases.(i), "ms"))
  in
  Array.fill startup_phases 0 4 0.0;
  rows

let launch_cold =
  let setup seed =
    let soc = booted "suite-launch" in
    let bytes =
      Watz_workloads.Bigapp.generate ~mb:1
      ^ custom_section "suite-seed" (Printf.sprintf "%016Lx" seed)
    in
    (* The claim oracle comes from the independent reference SHA-256. *)
    let expected = Refcrypto.Sha256.digest bytes in
    let config = { Runtime.default_config with Runtime.heap_bytes = 4 * 1024 * 1024 } in
    let run n =
      let lat = Array.make n 0.0 in
      for i = 0 to n - 1 do
        Span.op := i;
        let t0 = Span.now_s () in
        let app = cold_load ~config soc bytes in
        check (String.equal app.Runtime.claim expected) "launch-cold: claim differs from reference SHA-256";
        Span.span k_unload (fun () -> Runtime.unload app);
        lat.(i) <- ms_since t0
      done;
      let phases = take_startup_phases n in
      { lat_ms = lat; failed = 0; counts = (fun () -> phases) }
    in
    ignore (run 1 : window);
    {
      run;
      info =
        [ ("bytes", string_of_int (String.length bytes));
          ("tier", Watz.Engine.tier_name config.Runtime.tier) ];
    }
  in
  { name = "launch-cold"; ops_per_second = 10.0; batch = 1; setup }

(* ------------------------------------------------------------------ *)
(* Secret provisioning through WASI-RA (the attested Genann scenario). *)

let dataset_bytes = 128 * 1024
let ra_calls = [ "ra_handshake"; "ra_collect"; "ra_send"; "ra_receive"; "ra_dispose" ]
let k_ra = List.map (fun c -> (c, Span.kind ("wasi." ^ c))) ra_calls

(* The Genann module plus exports driving WASI-RA: scratch cells at
   34000 (verifier key), 34100 (anchor), 34200 (context), 34204 (quote)
   and 34208 (received length), all below the dataset at 65536. *)
let ra_app ~verifier_key ~port ~mem_pages =
  let base = GW.program ~mem_pages () in
  let open Watz_wasmc.Minic in
  let open Watz_wasmc.Minic.Dsl in
  let extra =
    [
      fn "ra_handshake" [] (Some I32)
        [ ret (calle "net_handshake" [ i port; i 34000; i 34200; i 34100 ]) ];
      fn "ra_collect" [] (Some I32) [ ret (calle "collect_quote" [ i 34100; i 32; i 34204 ]) ];
      fn "ra_send" [] (Some I32)
        [ ret (calle "net_send_quote" [ LoadE (I32, i 34200); LoadE (I32, i 34204) ]) ];
      fn "ra_receive" [] (Some I32)
        [
          ret
            (calle "net_receive_data"
               [ LoadE (I32, i 34200); i GW.dataset_base; i 16000000; i 34208 ]);
        ];
      fn "ra_dispose" [] (Some I32) [ ret (calle "net_dispose" [ LoadE (I32, i 34200) ]) ];
      fn "blob_len" [] (Some I32) [ ret (LoadE (I32, i 34208)) ];
    ]
  in
  {
    base with
    p_imports = Watz_wasi.Wasi_ra.minic_imports @ base.p_imports;
    p_funs = base.p_funs @ extra;
    p_data = (34000, verifier_key) :: base.p_data;
  }

let i32_result = function [ Watz_wasm.Ast.VI32 rc ] -> Int32.to_int rc | _ -> -1

let ra_provision =
  let setup seed =
    let soc = booted (Printf.sprintf "suite-ra-%Ld" seed) in
    let service = Service.install (Soc.optee soc) in
    let dataset = Watz_workloads.Iris.replicated_bytes ~seed ~target_bytes:dataset_bytes in
    let policy0 =
      P.Verifier.make_policy
        ~identity_seed:(Printf.sprintf "suite-ra-verifier-%Ld" seed)
        ~endorsed_keys:[ Service.public_key service ]
        ~reference_claims:[] ~secret_blob:dataset ()
    in
    let port = 4433 in
    let bytes =
      Watz_wasmc.Minic.compile_to_bytes
        (ra_app
           ~verifier_key:(Watz_crypto.P256.encode policy0.P.Verifier.identity_pub)
           ~port
           ~mem_pages:(GW.pages_for_dataset dataset_bytes))
    in
    let policy = { policy0 with P.Verifier.reference_claims = [ Runtime.measure bytes ] } in
    Net.configure soc.Soc.net ~seed ~profile:Net.perfect;
    let server = Verifier_app.start soc ~port ~policy in
    let config =
      {
        Runtime.default_config with
        Runtime.pump =
          (fun () -> Span.span k_verifier_step (fun () -> Verifier_app.step server));
      }
    in
    let run n =
      let lat = Array.make n 0.0 and failed = ref 0 in
      for i = 0 to n - 1 do
        Span.op := i;
        let t0 = Span.now_s () in
        let app = cold_load ~config ~entry:None soc bytes in
        let ok =
          List.for_all
            (fun (call, k) -> Span.span k (fun () -> i32_result (Runtime.invoke app call [])) = 0)
            k_ra
        in
        if ok then begin
          let len = i32_result (Runtime.invoke app "blob_len" []) in
          let mem = Option.get (Runtime.export_memory app) in
          check
            (len = String.length dataset
            && String.equal (Watz_wasm.Instance.Memory.load_string mem GW.dataset_base len) dataset)
            "ra-provision: dataset in linear memory differs from the bytes sent"
        end
        else incr failed;
        Span.span k_unload (fun () -> Runtime.unload app);
        lat.(i) <- ms_since t0
      done;
      let phases = take_startup_phases n in
      { lat_ms = lat; failed = !failed; counts = (fun () -> phases) }
    in
    ignore (run 1 : window);
    { run; info = [ ("dataset_bytes", string_of_int dataset_bytes) ] }
  in
  { name = "ra-provision"; ops_per_second = 20.0; batch = 1; setup }

let all = [ attest_full; attest_resume; wasm_kernels; launch_cold; ra_provision ]
