(* Outside-in span recorder. The suite wraps each call it makes into a
   layer's public functions in [span]; a span records its name, start,
   end, parent and op id, plus the minor words allocated inside it, in
   flat in-memory arrays. Nothing inside lib/ is instrumented: a span's
   time is the callee's whole cost as seen from the benchmark.

   Recording is off unless [enabled] is set; then [span k f] is [f ()]. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Span names, interned so the hot path stores an int. *)
let ids : (string, int) Hashtbl.t = Hashtbl.create 32
let names = ref [||]

let kind name =
  match Hashtbl.find_opt ids name with
  | Some k -> k
  | None ->
    let k = Array.length !names in
    Hashtbl.add ids name k;
    names := Array.append !names [| name |];
    k

let enabled = ref false

(* Op id given to spans opened from now on; [shared] marks work done for
   every op in flight at once (a network tick, a verifier pass). *)
let shared = -1
let op = ref shared

type buf = {
  mutable n : int;
  mutable kinds : int array;
  mutable parents : int array;
  mutable ops : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable w0 : float array;
  mutable w1 : float array;
}

let b =
  let cap = 1024 in
  {
    n = 0;
    kinds = Array.make cap 0;
    parents = Array.make cap 0;
    ops = Array.make cap 0;
    t0 = Array.make cap 0.0;
    t1 = Array.make cap 0.0;
    w0 = Array.make cap 0.0;
    w1 = Array.make cap 0.0;
  }

let grow () =
  let cap = 2 * Array.length b.kinds in
  let ints a = Array.init cap (fun i -> if i < b.n then a.(i) else 0) in
  let floats a = Array.init cap (fun i -> if i < b.n then a.(i) else 0.0) in
  b.kinds <- ints b.kinds;
  b.parents <- ints b.parents;
  b.ops <- ints b.ops;
  b.t0 <- floats b.t0;
  b.t1 <- floats b.t1;
  b.w0 <- floats b.w0;
  b.w1 <- floats b.w1

(* Index of the innermost open span, -1 at top level. *)
let current = ref (-1)

let close i parent =
  b.t1.(i) <- now_s ();
  b.w1.(i) <- Gc.minor_words ();
  current := parent

let span k f =
  if not !enabled then f ()
  else begin
    if b.n = Array.length b.kinds then grow ();
    let i = b.n in
    b.n <- i + 1;
    let parent = !current in
    b.kinds.(i) <- k;
    b.parents.(i) <- parent;
    b.ops.(i) <- !op;
    current := i;
    b.w0.(i) <- Gc.minor_words ();
    b.t0.(i) <- now_s ();
    match f () with
    | r ->
      close i parent;
      r
    | exception e ->
      close i parent;
      raise e
  end

(* Per-name totals over everything recorded. Self time and self words
   exclude the span's children; [top] sums the duration of top-level
   spans, so [window - top] is the time no layer span covers. *)
type row = { name : string; count : int; total_s : float; self_s : float; self_words : float }

let rows () =
  let nk = Array.length !names in
  let count = Array.make nk 0 and total = Array.make nk 0.0 in
  let self = Array.make nk 0.0 and words = Array.make nk 0.0 in
  let top = ref 0.0 in
  for i = 0 to b.n - 1 do
    let k = b.kinds.(i) in
    let d = b.t1.(i) -. b.t0.(i) and w = b.w1.(i) -. b.w0.(i) in
    count.(k) <- count.(k) + 1;
    total.(k) <- total.(k) +. d;
    self.(k) <- self.(k) +. d;
    words.(k) <- words.(k) +. w;
    let p = b.parents.(i) in
    if p < 0 then top := !top +. d
    else begin
      let pk = b.kinds.(p) in
      self.(pk) <- self.(pk) -. d;
      words.(pk) <- words.(pk) -. w
    end
  done;
  let rows =
    List.filter_map
      (fun k ->
        if count.(k) = 0 then None
        else
          Some
            { name = !names.(k); count = count.(k); total_s = total.(k); self_s = self.(k);
              self_words = words.(k) })
      (List.init nk Fun.id)
  in
  (rows, !top)

(* Chrome trace_event JSON (load in chrome://tracing or Perfetto). Only
   the first [chrome_limit] spans are written, which keeps the file
   under 10 MB; [rows] covers all of them. *)
let chrome_limit = 50_000

let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let base = if b.n > 0 then b.t0.(0) else 0.0 in
  let n = min b.n chrome_limit in
  for i = 0 to n - 1 do
    Printf.fprintf oc
      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"op\":%d,\"minor_words\":%.0f}}\n"
      (if i = 0 then "" else ",")
      !names.(b.kinds.(i))
      ((b.t0.(i) -. base) *. 1e6)
      ((b.t1.(i) -. b.t0.(i)) *. 1e6)
      i b.parents.(i) b.ops.(i)
      (b.w1.(i) -. b.w0.(i))
  done;
  Printf.fprintf oc "],\"otherData\":{\"spans_recorded\":%d,\"spans_written\":%d}}\n" b.n n;
  close_out oc
