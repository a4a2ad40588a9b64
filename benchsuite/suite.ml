(* One workload, end to end: timed set-up (repeated, median reported),
   a fixed number of ops, the metrics, and the one-line JSON result.

   An untraced run reports the end-to-end metrics. A traced run does
   half its ops untraced and half with spans on, and reports the
   per-layer metrics: the span table, the workload's own counts, the
   isolated layer calls of {!Micro}, GC rates and the tracing overhead.
   Which metrics go into the JSON line, and their units, come from
   BENCHMARK.json, so the file and the program cannot disagree. *)

module Stats = Watz_util.Stats
module W = Workloads

type metric = { name : string; value : float; unit : string; samples : int option }

let m ?samples name value unit = { name; value; unit; samples }

(* Set-up runs this many times: once in the measuring process, the rest
   each in a fresh process started after the measurement, so nothing
   another set-up did can shift the measured process's heap or GC
   state (allocation counts repeat exactly at a fixed seed). *)
let setup_repeats = 5

let ops (w : W.t) seconds =
  let b = w.W.batch in
  max b (b * int_of_float (Float.round (seconds *. w.W.ops_per_second /. float_of_int b)))

(* Wall seconds of one set-up, and the same rescaled by the mean of the
   paces taken right before and right after it. *)
let timed_setup (w : W.t) seed =
  let before = Pace.factor () in
  let t0 = Span.now_s () in
  let inst = w.W.setup seed in
  let wall = Span.now_s () -. t0 in
  ((wall, wall *. (before +. Pace.factor ()) /. 2.0), inst)

(* Entry point of those processes: time one set-up and print it. *)
let setup_only w seed =
  let (wall, norm), _ = timed_setup w seed in
  Printf.printf "%h %h\n" wall norm

let fresh_setup (w : W.t) seed =
  flush_all ();
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "suite"; "--workload"; w.W.name; "--seed"; Int64.to_string seed;
         "--setup-only" |]
  in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.map (String.split_on_char ' ') line) with
  | Unix.WEXITED 0, Some [ wall; norm ] -> (float_of_string wall, float_of_string norm)
  | _ -> failwith "set-up failed in a fresh process"

(* Untraced ops run in about this many blocks of whole batches. The
   pace is taken between blocks, and a block is rescaled by the mean of
   the paces on either side of it, so a slow spell that starts inside a
   block still counts. *)
let blocks = 40

type measured = {
  wins : W.window list; (* one per block *)
  lat_ms : float array; (* wall latency of every op *)
  norm_ms : float array; (* the same, each rescaled by its block's pace *)
  wall_s : float;
  norm_wall_s : float;
  failed : int;
  minor_words : float; (* inside the blocks only: exact at a fixed seed *)
  major_words : float;
  major_collections : int;
  top_heap_words : int; (* at the end *)
}

(* [Gc.minor_words] is exact; [Gc.quick_stat]'s copy only advances at
   minor collections. *)
let measure (w : W.t) (inst : W.instance) n ~split =
  let size = if split then w.W.batch * max 1 (n / w.W.batch / blocks) else n in
  let g0 = Gc.quick_stat () in
  let rec go left before acc =
    if left = 0 then List.rev acc
    else begin
      let k = min size left in
      let w0 = Gc.minor_words () in
      let t0 = Span.now_s () in
      let win = inst.W.run k in
      let wall = Span.now_s () -. t0 in
      let words = Gc.minor_words () -. w0 in
      let after = Pace.factor () in
      go (left - k) after ((win, wall, words, (before +. after) /. 2.0) :: acc)
    end
  in
  let parts = go n (Pace.factor ()) [] in
  let g1 = Gc.quick_stat () in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 parts in
  {
    wins = List.map (fun (win, _, _, _) -> win) parts;
    lat_ms = Array.concat (List.map (fun (win, _, _, _) -> win.W.lat_ms) parts);
    norm_ms =
      Array.concat (List.map (fun (win, _, _, pace) -> Array.map (( *. ) pace) win.W.lat_ms) parts);
    wall_s = sum (fun (_, wall, _, _) -> wall);
    norm_wall_s = sum (fun (_, wall, _, pace) -> wall *. pace);
    failed = List.fold_left (fun acc (win, _, _, _) -> acc + win.W.failed) 0 parts;
    minor_words = sum (fun (_, _, words, _) -> words);
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    top_heap_words = g1.Gc.top_heap_words;
  }

let completed x = float_of_int (Array.length x.lat_ms - x.failed)
let bytes_per_word = float_of_int (Sys.word_size / 8)

let geomean a = exp (Array.fold_left (fun acc v -> acc +. log v) 0.0 a /. float_of_int (Array.length a))

(* The bounded metrics first, then the raw wall-clock ones, which are
   printed but not bounded: they drift with the machine. *)
let end_to_end x ~setups =
  let n = Array.length x.lat_ms in
  let median f = Stats.median (Array.of_list (List.map f setups)) in
  [
    m "ops_per_s_norm" (completed x /. x.norm_wall_s) "1/s" ~samples:n;
    m "op_ms_p50_norm" (Stats.median x.norm_ms) "ms" ~samples:n;
    m "op_ms_geomean_norm" (geomean x.norm_ms) "ms" ~samples:n;
    m "alloc_mb_per_op" (x.minor_words *. bytes_per_word /. float_of_int n /. 1e6) "MB";
    m "peak_heap_mb" (float_of_int x.top_heap_words *. bytes_per_word /. 1e6) "MB";
    m "setup_s" (median snd) "s" ~samples:setup_repeats;
    m "ops_per_s" (completed x /. x.wall_s) "1/s" ~samples:n;
    m "op_ms_p50" (Stats.median x.lat_ms) "ms" ~samples:n;
    m "op_ms_p90" (Stats.percentile x.lat_ms 90.0) "ms" ~samples:n;
    m "op_ms_p99" (Stats.percentile x.lat_ms 99.0) "ms" ~samples:n;
    m "setup_s_wall" (median fst) "s" ~samples:setup_repeats;
    m "bench.pace" (x.norm_wall_s /. x.wall_s) "x";
  ]

let suffix s ~by =
  let n = String.length s and k = String.length by in
  if n >= k && String.sub s (n - k) k = by then Some (String.sub s 0 (n - k)) else None

let per_layer ~untraced ~traced ~rows ~top ~micro =
  let n = Array.length traced.lat_ms in
  let per_op v = v /. float_of_int n in
  let wall_ms = traced.wall_s *. 1e3 in
  let spans =
    List.concat_map
      (fun (r : Span.row) ->
        [
          m (r.Span.name ^ "_ms_per_op") (per_op (r.Span.self_s *. 1e3)) "ms";
          m (r.Span.name ^ "_minor_words_per_op") (per_op r.Span.self_words) "words";
        ])
      rows
  in
  let counts =
    List.concat_map
      (fun (win : W.window) -> List.map (fun (name, v, unit) -> m name v unit) (win.W.counts ()))
      traced.wins
  in
  (* Every per-op time gets a share-of-op-wall twin. *)
  let shares =
    List.filter_map
      (fun x ->
        Option.map
          (fun base -> m (base ^ "_share") (x.value *. float_of_int n /. wall_ms) "ratio")
          (suffix x.name ~by:"_ms_per_op"))
      (spans @ counts)
  in
  let un = float_of_int (Array.length untraced.lat_ms) in
  spans @ counts @ shares
  @ List.map (fun (name, v, unit) -> m name v unit) micro
  @ [
      m "gc.minor_words_per_op" (untraced.minor_words /. un) "words";
      m "gc.major_words_per_op" (untraced.major_words /. un) "words";
      m "gc.major_collections_per_kop" (float_of_int untraced.major_collections *. 1e3 /. un) "count";
      m "bench.residual_ratio" ((traced.wall_s -. top) /. traced.wall_s) "ratio";
      m "bench.trace_overhead_ratio"
        ((completed untraced /. untraced.norm_wall_s) /. (completed traced /. traced.norm_wall_s))
        "ratio";
    ]

let out_dir = Filename.concat "_build" "suite"

let layer_table path rows ~top ~wall_s ~n =
  let oc = open_out path in
  Printf.fprintf oc "%-32s %8s %12s %12s %12s %8s %16s\n" "span" "count" "total_ms" "self_ms"
    "self_ms/op" "share" "minor_words/op";
  List.iter
    (fun (r : Span.row) ->
      Printf.fprintf oc "%-32s %8d %12.3f %12.3f %12.5f %8.4f %16.1f\n" r.Span.name r.Span.count
        (r.Span.total_s *. 1e3) (r.Span.self_s *. 1e3)
        (r.Span.self_s *. 1e3 /. float_of_int n)
        (r.Span.self_s /. wall_s)
        (r.Span.self_words /. float_of_int n))
    rows;
  Printf.fprintf oc "%-32s %8s %12.3f %12s %12.5f %8.4f\n" "(not in any span)" ""
    ((wall_s -. top) *. 1e3) ""
    ((wall_s -. top) *. 1e3 /. float_of_int n)
    ((wall_s -. top) /. wall_s);
  close_out oc

let specs key =
  List.map
    (fun s -> (Json.to_string (Json.member_exn "name" s), Json.to_string (Json.member_exn "unit" s)))
    (Json.to_list (Json.member_exn key (Json.read_file "BENCHMARK.json")))

(* The metrics BENCHMARK.json lists for this kind of run. A per-layer
   metric of a layer the workload never calls reads 0; an end-to-end
   metric must always be measured. *)
let select ~trace computed =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun x -> x.name = name) computed with
      | Some x when x.unit = unit && Float.is_finite x.value -> x
      | Some x -> failwith (Printf.sprintf "%s: measured %g %s, BENCHMARK.json says %s" name x.value x.unit unit)
      | None when trace -> m name 0.0 unit
      | None -> failwith (name ^ ": not measured"))
    (specs (if trace then "per_layer" else "end_to_end"))

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.quote x.name) (Json.number x.value)
             (Json.quote x.unit))
         ms)
  ^ "}"

let run ~(w : W.t) ~seed ~seconds ~trace ~json_file =
  let own, inst = timed_setup w seed in
  Printf.printf "# workload %s seed %Ld%s\n" w.W.name seed
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s %s" k v) inst.W.info));
  let computed, attempted, failed =
    if not trace then begin
      let n = ops w seconds in
      let x = measure w inst n ~split:true in
      Printf.printf "# %d ops in %d blocks, %.3f s\n" n (List.length x.wins) x.wall_s;
      let others = List.init (setup_repeats - 1) (fun _ -> fresh_setup w seed) in
      (end_to_end x ~setups:(own :: others), n, x.failed)
    end
    else begin
      let n = ops w (seconds /. 2.0) in
      let untraced = measure w inst n ~split:false in
      Span.enabled := true;
      let traced = measure w inst n ~split:false in
      Span.enabled := false;
      let rows, top = Span.rows () in
      let micro = Micro.measure () in
      (try Sys.mkdir "_build" 0o755 with Sys_error _ -> ());
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      let base = Filename.concat out_dir (Printf.sprintf "%s-seed%Ld" w.W.name seed) in
      Span.write_chrome (base ^ ".trace.json");
      layer_table (base ^ ".layers.txt") rows ~top ~wall_s:traced.wall_s ~n;
      Printf.printf "# %d ops untraced, then %d traced; spans in %s.trace.json, table in %s.layers.txt\n"
        n n base base;
      (per_layer ~untraced ~traced ~rows ~top ~micro, 2 * n, untraced.failed + traced.failed)
    end
  in
  List.iter
    (fun x ->
      Printf.printf "%s %s %s %s%s\n" w.W.name x.name (Json.number x.value) x.unit
        (match x.samples with Some k -> Printf.sprintf " n=%d" k | None -> ""))
    computed;
  let wrong = List.rev !W.violations in
  List.iter (fun v -> Printf.printf "# INCORRECT: %s\n" v) wrong;
  let correct = wrong = [] in
  (match json_file with
  | None -> ()
  | Some path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Printf.fprintf oc
      "{\"workload\": %s, \"seed\": %Ld, \"trace\": %d, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
      (Json.quote w.W.name) seed (Bool.to_int trace) correct attempted failed (metrics_json computed);
    close_out oc);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n" correct
    attempted failed
    (metrics_json (select ~trace computed));
  correct
