(* suite-compare A B: each file holds result records appended by
   `suite --json FILE`, one run per line. For every end-to-end metric of
   BENCHMARK.json and every workload, compare B's median to A's and
   print one verdict row:

   - unresolved: the spread between runs of either side (quartile
     distance over median) is wider than the metric's bound, and B does
     not read better than A on every pair of runs;
   - regressed / improved: B's median is worse / better than A's by
     more than the bound;
   - unchanged: otherwise.

   Exits 1 when any row is regressed, unresolved or missing. *)

(* Python's statistics.quantiles(xs, n=4) ("exclusive" method), which
   is also what the benchmark's acceptance check uses. *)
let quartiles xs =
  let d = Array.of_list (List.sort compare xs) in
  let ld = Array.length d in
  if ld = 1 then (d.(0), d.(0))
  else begin
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
  end

let median xs = Watz_util.Stats.median (Array.of_list xs)

let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

type verdict = Improved | Unchanged | Regressed | Unresolved | Missing

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Missing -> "missing"

let judge ~lower ~bound a b =
  let better x y = if lower then x < y else x > y in
  let ma = median a and mb = median b in
  let worse = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
  if Float.max (spread a) (spread b) > bound then
    if List.for_all (fun y -> List.for_all (fun x -> better y x) a) b then Improved else Unresolved
  else if worse > bound then Regressed
  else if -.worse > bound then Improved
  else Unchanged

(* (workload, metric) -> values over the untraced, correct runs. *)
let load path =
  let tbl = Hashtbl.create 64 and workloads = ref [] in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         if String.trim line <> "" then begin
           let r = Json.parse line in
           let trace = Json.to_float (Json.member_exn "trace" r) in
           if trace = 0.0 && Json.member "correct" r = Some (Json.Bool true) then begin
             let w = Json.to_string (Json.member_exn "workload" r) in
             if not (List.mem w !workloads) then workloads := w :: !workloads;
             List.iter
               (fun (name, v) ->
                 match Json.member "value" v with
                 | Some (Json.Num x) ->
                   let key = (w, name) in
                   Hashtbl.replace tbl key (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
                 | _ -> ())
               (Json.to_assoc (Json.member_exn "metrics" r))
           end
         end);
  (tbl, List.rev !workloads)

let run a_path b_path =
  let a, wa = load a_path and b, wb = load b_path in
  let workloads = wa @ List.filter (fun w -> not (List.mem w wa)) wb in
  let specs = Json.to_list (Json.member_exn "end_to_end" (Json.read_file "BENCHMARK.json")) in
  Printf.printf "%-14s %-16s %14s %14s %8s %8s %8s %6s  %s\n" "workload" "metric" "median A"
    "median B" "change" "sprd A" "sprd B" "bound" "verdict";
  let bad = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun spec ->
          let name = Json.to_string (Json.member_exn "name" spec) in
          let lower = Json.to_string (Json.member_exn "better" spec) = "lower" in
          let bound = Json.to_float (Json.member_exn "bound" spec) in
          let get tbl = Option.value ~default:[] (Hashtbl.find_opt tbl (w, name)) in
          let va = get a and vb = get b in
          let v = if va = [] || vb = [] then Missing else judge ~lower ~bound va vb in
          if v = Regressed || v = Unresolved || v = Missing then incr bad;
          if v = Missing then
            Printf.printf "%-14s %-16s %14s %14s %8s %8s %8s %6.2f  %s\n" w name "-" "-" "-" "-" "-"
              bound (verdict_name v)
          else
            Printf.printf "%-14s %-16s %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %6.2f  %s\n" w name
              (median va) (median vb)
              (100.0 *. (median vb -. median va) /. Float.abs (median va))
              (100.0 *. spread va) (100.0 *. spread vb) bound (verdict_name v))
        specs)
    workloads;
  Printf.printf "%d of %d rows regressed, unresolved or missing\n" !bad
    (List.length workloads * List.length specs);
  !bad = 0
