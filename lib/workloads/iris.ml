(** A synthetic stand-in for the UCI Iris dataset (§VI-F).

    The real file cannot ship here, so records are drawn from per-class
    Gaussians matching the published per-class feature means and
    standard deviations: 3 classes (setosa, versicolor, virginica) ×
    50 records × 4 features — the same shape, size (~4.45 kB as CSV
    text) and separability structure the paper's benchmark relies on.
    Generation is deterministic in the seed. *)

type record = { features : float array; (* 4 *) cls : int (* 0..2 *) }

(* Published Iris per-class statistics: (means, stddevs) for
   sepal length, sepal width, petal length, petal width. *)
let class_stats =
  [|
    ([| 5.01; 3.42; 1.46; 0.24 |], [| 0.35; 0.38; 0.17; 0.11 |]);
    ([| 5.94; 2.77; 4.26; 1.33 |], [| 0.52; 0.31; 0.47; 0.20 |]);
    ([| 6.59; 2.97; 5.55; 2.03 |], [| 0.64; 0.32; 0.55; 0.27 |]);
  |]

let class_names = [| "setosa"; "versicolor"; "virginica" |]

let generate ~seed () =
  let rng = Watz_util.Prng.create seed in
  let records = ref [] in
  for cls = 0 to 2 do
    let means, stddevs = class_stats.(cls) in
    for _ = 1 to 50 do
      let features =
        Array.init 4 (fun k ->
            Float.max 0.05
              (Watz_util.Prng.gaussian rng ~mean:means.(k) ~stddev:stddevs.(k)))
      in
      records := { features; cls } :: !records
    done
  done;
  (* Shuffle deterministically. *)
  let arr = Array.of_list !records in
  for k = Array.length arr - 1 downto 1 do
    let j = Watz_util.Prng.int rng (k + 1) in
    let tmp = arr.(k) in
    arr.(k) <- arr.(j);
    arr.(j) <- tmp
  done;
  arr

(** Binary wire format shared with the Wasm side: per record, 4 f64
    features then 1 f64 class index (40 bytes). *)
let record_bytes = 40

let to_bytes records =
  let b = Bytes.create (record_bytes * Array.length records) in
  Array.iteri
    (fun r { features; cls } ->
      Array.iteri
        (fun k x -> Bytes.set_int64_le b ((record_bytes * r) + (8 * k)) (Int64.bits_of_float x))
        features;
      Bytes.set_int64_le b ((record_bytes * r) + 32) (Int64.bits_of_float (float_of_int cls)))
    records;
  Bytes.to_string b

let of_bytes s =
  let n = String.length s / record_bytes in
  Array.init n (fun r ->
      let f k = Int64.float_of_bits (Bytes.get_int64_le (Bytes.unsafe_of_string s) ((record_bytes * r) + (8 * k))) in
      { features = Array.init 4 f; cls = int_of_float (f 4) })

(** Replicate the base dataset until it reaches [target_bytes]
    (the paper scales 4.45 kB up to 100 kB–1 MB this way). *)
let replicated_bytes ~seed ~target_bytes =
  let base = to_bytes (generate ~seed ()) in
  let b = Buffer.create target_bytes in
  while Buffer.length b + String.length base <= target_bytes do
    Buffer.add_string b base
  done;
  let remainder = target_bytes - Buffer.length b in
  Buffer.add_string b (String.sub base 0 (remainder / record_bytes * record_bytes));
  Buffer.contents b

(** The CSV rendering (only used to document the ~4.45 kB base size). *)
let to_csv records =
  let b = Buffer.create 4096 in
  Array.iter
    (fun { features; cls } ->
      Buffer.add_string b
        (Printf.sprintf "%.1f,%.1f,%.1f,%.1f,%s\n" features.(0) features.(1) features.(2)
           features.(3) class_names.(cls)))
    records;
  Buffer.contents b
