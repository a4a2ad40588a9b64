(** Exporters: Chrome [trace_event] JSON and flat metrics dumps.

    The Chrome format is the "JSON array" flavour, one event object per
    line so both [about:tracing]/Perfetto and our own minimal
    line-oriented parser ({!parse_chrome_line}) can read it. Every
    number is printed with a fixed format and events are emitted in
    ring order, so the bytes are a pure function of the recorded
    events — the property the trace-replay differential test pins. *)

let world_tid w = 1 + (match w with Trace.Normal -> 0 | Trace.Secure -> 1 | Trace.Monitor -> 2)

(* Span/instant names are static ASCII identifiers, but guard the
   JSON encoding anyway. *)
let escape s =
  if
    String.for_all (fun c -> c >= ' ' && c <> '"' && c <> '\\' && Char.code c < 0x7f) s
  then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when c < ' ' || Char.code c >= 0x7f ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

(* Timestamps are microseconds in trace_event; keep nanosecond
   precision with a fixed three-decimal format. *)
let pp_ts buf ts_ns =
  Buffer.add_string buf (string_of_int (ts_ns / 1000));
  Buffer.add_char buf '.';
  Buffer.add_string buf (Printf.sprintf "%03d" (ts_ns mod 1000))

(* [pid] carries the shard tag in fleet exports; single-board traces
   keep the historical pid 1, so their bytes are unchanged. *)
let add_event ?(pid = 1) buf (e : Trace.event) =
  let ph = match e.Trace.kind with Trace.Begin -> "B" | Trace.End -> "E" | Trace.Instant -> "i" in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"watz\",\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":"
       (escape e.Trace.name) ph pid (world_tid e.Trace.world));
  pp_ts buf e.Trace.ts_ns;
  if e.Trace.kind = Trace.Instant then Buffer.add_string buf ",\"s\":\"t\"";
  Buffer.add_string buf (Printf.sprintf ",\"args\":{\"session\":%d}}" e.Trace.session)

let thread_meta ?(pid = 1) buf =
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s \
            world\"}},\n"
           pid (world_tid w) (Trace.world_name w)))
    [ Trace.Normal; Trace.Secure; Trace.Monitor ]

let process_meta buf ~pid ~name =
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}},\n"
       pid (escape name))

(** Render pid-tagged events as a complete Chrome-loadable JSON
    document. [pids] names each process track up front (trace viewers
    group threads under them); events carry their own pid so shards
    stay visually separate after a merge. *)
let chrome_of_tagged ~pids events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iter
    (fun (pid, name) ->
      process_meta buf ~pid ~name;
      thread_meta ~pid buf)
    pids;
  let n = List.length events in
  List.iteri
    (fun i (pid, e) ->
      add_event ~pid buf e;
      if i < n - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    events;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

(** Render events as a complete Chrome-loadable JSON document. *)
let chrome_of_events events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  thread_meta buf;
  let n = List.length events in
  List.iteri
    (fun i e ->
      add_event buf e;
      if i < n - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    events;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let trace_to_chrome t = chrome_of_events (Trace.events t)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Per-phase accounting over an event list *)

type phase = {
  phase_name : string;
  spans : int; (* completed begin/end pairs *)
  total_ns : int; (* inclusive time across those pairs *)
}

(** Aggregate matched begin/end pairs per span name. Pairing is per
    (name, session) with a LIFO stack, so re-entrant spans nest the
    way trace viewers draw them. Inclusive: nested spans also count
    toward their parents. Unclosed begins are ignored. *)
let phase_totals events =
  let open_spans : (string * int, int list ref) Hashtbl.t = Hashtbl.create 32 in
  let totals : (string, int * int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (e : Trace.event) ->
      let key = (e.Trace.name, e.Trace.session) in
      match e.Trace.kind with
      | Trace.Begin -> (
        match Hashtbl.find_opt open_spans key with
        | Some stack -> stack := e.Trace.ts_ns :: !stack
        | None -> Hashtbl.replace open_spans key (ref [ e.Trace.ts_ns ]))
      | Trace.End -> (
        match Hashtbl.find_opt open_spans key with
        | Some ({ contents = t0 :: rest } as stack) ->
          stack := rest;
          let spans, total = Option.value ~default:(0, 0) (Hashtbl.find_opt totals e.Trace.name) in
          Hashtbl.replace totals e.Trace.name (spans + 1, total + (e.Trace.ts_ns - t0))
        | _ -> ())
      | Trace.Instant -> ())
    events;
  Hashtbl.fold (fun name (spans, total) acc -> { phase_name = name; spans; total_ns = total } :: acc) totals []
  |> List.sort (fun a b -> String.compare a.phase_name b.phase_name)

(** Inclusive time of the outermost spans, those that begin while no
    span is open. The events must nest as one thread's spans do. *)
let outermost_total events =
  let depth = ref 0 and opened = ref 0 and total = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Begin ->
        if !depth = 0 then opened := e.Trace.ts_ns;
        incr depth
      | Trace.End ->
        decr depth;
        if !depth = 0 then total := !total + (e.Trace.ts_ns - !opened)
      | Trace.Instant -> ())
    events;
  !total

(** Instant-event counts per name, sorted. *)
let instant_counts events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.kind = Trace.Instant then
        Hashtbl.replace tbl e.Trace.name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.Trace.name)))
    events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Trace extent: (first, last) timestamp over all events; (0, 0) when
    empty. *)
let extent events =
  match events with
  | [] -> (0, 0)
  | (e : Trace.event) :: _ ->
    List.fold_left
      (fun (lo, hi) (e : Trace.event) -> (min lo e.Trace.ts_ns, max hi e.Trace.ts_ns))
      (e.Trace.ts_ns, e.Trace.ts_ns) events

(* ------------------------------------------------------------------ *)
(* Reading our own exports back (the [watz trace] subcommand) *)

(* A tiny substring finder so watz_obs depends on nothing. *)
let find_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  if nn = 0 then Some 0 else go 0

(* Minimal field extraction over the one-object-per-line layout we
   write; not a general JSON parser. *)
let field_string line key =
  let pat = "\"" ^ key ^ "\":\"" in
  match find_sub line pat with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    let j = ref start in
    while !j < String.length line && line.[!j] <> '"' do
      incr j
    done;
    Some (String.sub line start (!j - start))

let field_raw line key =
  let pat = "\"" ^ key ^ "\":" in
  match find_sub line pat with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    let j = ref start in
    while
      !j < String.length line
      && (match line.[!j] with '0' .. '9' | '-' | '.' -> true | _ -> false)
    do
      incr j
    done;
    if !j = start then None else Some (String.sub line start (!j - start))

(** Parse one exported line back into an event. Metadata lines and the
    array brackets return [None]. *)
let parse_chrome_line line =
  match (field_string line "ph", field_string line "name") with
  | Some ph, Some name when ph <> "M" ->
    let kind =
      match ph with "B" -> Some Trace.Begin | "E" -> Some Trace.End | "i" -> Some Trace.Instant | _ -> None
    in
    (match kind with
    | None -> None
    | Some kind ->
      let ts_ns =
        match field_raw line "ts" with
        | None -> 0
        | Some s -> (
          match String.index_opt s '.' with
          | None -> 1000 * int_of_string s
          | Some dot ->
            let us = int_of_string (String.sub s 0 dot) in
            let frac = String.sub s (dot + 1) (String.length s - dot - 1) in
            let frac = if String.length frac >= 3 then String.sub frac 0 3 else frac ^ String.make (3 - String.length frac) '0' in
            (1000 * us) + int_of_string frac)
      in
      let world =
        match field_raw line "tid" with
        | Some "2" -> Trace.Secure
        | Some "3" -> Trace.Monitor
        | _ -> Trace.Normal
      in
      let session =
        match field_raw line "session" with Some s -> int_of_string s | None -> Trace.no_session
      in
      Some { Trace.ts_ns; kind; world; session; name })
  | _ -> None

(** Parse a whole exported document (ignores unparsable lines). *)
let parse_chrome contents =
  String.split_on_char '\n' contents |> List.filter_map parse_chrome_line

(* ------------------------------------------------------------------ *)
(* Flat metrics dump *)

let metrics_to_json reg =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  let items = Metrics.dump reg in
  let n = List.length items in
  List.iteri
    (fun i (name, m) ->
      Buffer.add_string buf (Printf.sprintf "  \"%s\": " (escape name));
      (match m with
      | Metrics.Counter v | Metrics.Gauge v -> Buffer.add_string buf (string_of_int v)
      | Metrics.Histogram s ->
        Buffer.add_string buf
          (Printf.sprintf
             "{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}"
             s.Metrics.Histogram.count s.Metrics.Histogram.sum s.Metrics.Histogram.min
             s.Metrics.Histogram.max s.Metrics.Histogram.p50 s.Metrics.Histogram.p95
             s.Metrics.Histogram.p99));
      if i < n - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    items;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
