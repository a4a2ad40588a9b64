(* Workload tests: PolyBench native/Wasm parity across all 30 kernels,
   Speedtest parity, Genann OCaml-vs-Wasm bit equality, Iris dataset
   shape, MiniDB SQL behaviour, and B-tree properties. *)

module PB = Watz_workloads.Polybench
module ST = Watz_workloads.Speedtest
module G = Watz_workloads.Genann
module GW = Watz_workloads.Genann_wasm
module Iris = Watz_workloads.Iris
module DB = Watz_workloads.Minidb
module BT = Watz_workloads.Btree

let run_wasm program name =
  let m = Watz_wasmc.Minic.compile program in
  Watz_wasm.Validate.validate m;
  let inst = Watz_wasm.Fastinterp.instantiate (Watz_wasm.Fastinterp.compile m) in
  match Watz_wasm.Fastinterp.invoke inst name [] with
  | [ Watz_wasm.Ast.VF64 x ] -> x
  | _ -> Alcotest.fail "expected one f64"

(* ------------------------------------------------------------------ *)
(* PolyBench *)

let test_polybench_count () =
  Alcotest.(check int) "all 30 kernels present" 30 (List.length PB.all);
  let names = List.map (fun k -> k.PB.name) PB.all in
  Alcotest.(check int) "names unique" 30 (List.length (List.sort_uniq compare names))

let polybench_parity_cases =
  List.map
    (fun k ->
      Alcotest.test_case k.PB.name `Quick (fun () ->
          let native = k.PB.native () in
          let wasm = run_wasm k.PB.program "run" in
          Alcotest.(check (float 0.0)) (k.PB.name ^ " native = wasm") native wasm))
    PB.all

(* Differential check: every kernel must produce a bit-identical f64
   checksum on the tree-walking interpreter and the pre-decoded fast
   interpreter. *)
let run_both_tiers program =
  let m = Watz_wasmc.Minic.compile program in
  Watz_wasm.Validate.validate m;
  let f64 = function
    | [ Watz_wasm.Ast.VF64 x ] -> x
    | _ -> Alcotest.fail "expected one f64"
  in
  let inst = Watz_wasm.Instance.instantiate m in
  let interp =
    f64 (Watz_wasm.Interp.invoke (Option.get (Watz_wasm.Instance.export_func inst "run")) [])
  in
  let fast =
    f64 (Watz_wasm.Fastinterp.invoke (Watz_wasm.Fastinterp.instantiate (Watz_wasm.Fastinterp.compile m)) "run" [])
  in
  (interp, fast)

let tier_differential_cases =
  let bits = Int64.bits_of_float in
  let check name program =
    Alcotest.test_case name `Quick (fun () ->
        let interp, fast = run_both_tiers program in
        Alcotest.(check int64) (name ^ ": interp = fast") (bits interp) (bits fast))
  in
  List.map (fun k -> check k.PB.name k.PB.program) PB.all
  @ List.map (fun e -> check (Printf.sprintf "st-%d" e.ST.id) e.ST.program) ST.all

let test_polybench_interp_agrees () =
  (* Spot-check the interpreter tier on a few kernels. *)
  List.iter
    (fun name ->
      let k = PB.find name in
      let m = Watz_wasmc.Minic.compile k.PB.program in
      Watz_wasm.Validate.validate m;
      let inst = Watz_wasm.Instance.instantiate m in
      match Watz_wasm.Interp.invoke (Option.get (Watz_wasm.Instance.export_func inst "run")) [] with
      | [ Watz_wasm.Ast.VF64 x ] -> Alcotest.(check (float 0.0)) name (k.PB.native ()) x
      | _ -> Alcotest.fail "bad result")
    [ "gemm"; "trisolv"; "jacobi-1d" ]

(* ------------------------------------------------------------------ *)
(* Speedtest *)

let speedtest_parity_cases =
  List.map
    (fun e ->
      Alcotest.test_case (Printf.sprintf "%d %s" e.ST.id e.ST.label) `Quick (fun () ->
          let native = e.ST.native () in
          let wasm = run_wasm e.ST.program "run" in
          Alcotest.(check (float 0.0)) "native = wasm" native wasm))
    ST.all

let test_speedtest_mix () =
  let reads = List.filter (fun e -> e.ST.kind = ST.Read) ST.all in
  let writes = List.filter (fun e -> e.ST.kind = ST.Write) ST.all in
  Alcotest.(check bool) "has both kinds" true (List.length reads >= 5 && List.length writes >= 5)

(* ------------------------------------------------------------------ *)
(* Genann *)

let test_genann_structure () =
  let rng = Watz_util.Prng.create 1L in
  let net = G.create ~inputs:4 ~hidden_layers:1 ~hidden:4 ~outputs:3 ~rng in
  Alcotest.(check int) "35 weights for 4-4-3" 35 (Array.length net.G.weights);
  let out = G.outputs net [| 0.1; 0.2; 0.3; 0.4 |] in
  Alcotest.(check int) "3 outputs" 3 (Array.length out);
  Array.iter
    (fun o -> Alcotest.(check bool) "sigmoid range" true (o >= 0.0 && o <= 1.0))
    out

let test_genann_learns_xor_shape () =
  (* Train on a separable 2-class toy problem and check accuracy. *)
  let rng = Watz_util.Prng.create 7L in
  let net = G.create ~inputs:2 ~hidden_layers:1 ~hidden:4 ~outputs:2 ~rng in
  let samples =
    [ ([| 0.0; 0.0 |], 0); ([| 0.0; 1.0 |], 1); ([| 1.0; 0.0 |], 1); ([| 1.0; 1.0 |], 0) ]
  in
  for _ = 1 to 4000 do
    List.iter
      (fun (x, cls) ->
        let desired = [| (if cls = 0 then 1.0 else 0.0); (if cls = 1 then 1.0 else 0.0) |] in
        G.train net x desired ~rate:3.0)
      samples
  done;
  let correct =
    List.length (List.filter (fun (x, cls) -> G.predict_class net x = cls) samples)
  in
  Alcotest.(check int) "xor learned" 4 correct

let test_genann_trains_on_iris () =
  let records = Iris.generate ~seed:11L () in
  let rng = Watz_util.Prng.create 3L in
  let net = G.create ~inputs:4 ~hidden_layers:1 ~hidden:4 ~outputs:3 ~rng in
  for _ = 1 to 60 do
    Array.iter
      (fun { Iris.features; cls } ->
        let desired = Array.init 3 (fun j -> if j = cls then 1.0 else 0.0) in
        G.train net features desired ~rate:0.5)
      records
  done;
  let hits =
    Array.fold_left
      (fun acc { Iris.features; cls } -> if G.predict_class net features = cls then acc + 1 else acc)
      0 records
  in
  let accuracy = float_of_int hits /. float_of_int (Array.length records) in
  Alcotest.(check bool)
    (Printf.sprintf "iris accuracy %.2f > 0.8" accuracy)
    true (accuracy > 0.8)

let test_genann_wasm_bit_identical () =
  (* Same initial weights, same data => bit-identical trained weights
     in OCaml and in the Wasm network. *)
  let records = Iris.generate ~seed:11L () in
  let data = Iris.to_bytes records in
  let n_records = Array.length records in
  let rng = Watz_util.Prng.create 3L in
  let net = G.create ~inputs:4 ~hidden_layers:1 ~hidden:4 ~outputs:3 ~rng in
  let initial = Array.copy net.G.weights in
  (* OCaml training: 3 epochs. *)
  for _ = 1 to 3 do
    Array.iter
      (fun { Iris.features; cls } ->
        let desired = Array.init 3 (fun j -> if j = cls then 1.0 else 0.0) in
        G.train net features desired ~rate:0.7)
      records
  done;
  (* Wasm training. *)
  let m = Watz_wasmc.Minic.compile (GW.program ~mem_pages:2 ()) in
  Watz_wasm.Validate.validate m;
  let inst = Watz_wasm.Fastinterp.instantiate (Watz_wasm.Fastinterp.compile m) in
  let invoke name args = Watz_wasm.Fastinterp.invoke inst name args in
  GW.seed_weights ~invoke initial;
  let mem = Option.get (Watz_wasm.Fastinterp.export_memory inst "memory") in
  GW.write_dataset mem data;
  GW.train ~invoke ~n_records ~epochs:3 ~rate:0.7;
  let wasm_weights = GW.read_weights ~invoke in
  Array.iteri
    (fun k w ->
      Alcotest.(check bool)
        (Printf.sprintf "weight %d bit-identical" k)
        true
        (Int64.equal (Int64.bits_of_float w) (Int64.bits_of_float net.G.weights.(k))))
    wasm_weights;
  (* And the accuracies agree. *)
  let acc_wasm = GW.accuracy ~invoke ~n_records in
  let hits =
    Array.fold_left
      (fun acc { Iris.features; cls } -> if G.predict_class net features = cls then acc + 1 else acc)
      0 records
  in
  Alcotest.(check (float 1e-12)) "accuracy agrees"
    (float_of_int hits /. float_of_int n_records)
    acc_wasm

let test_genann_tiers_bit_identical () =
  (* The same training run must produce bit-identical weights on both
     execution tiers. *)
  let records = Iris.generate ~seed:11L () in
  let data = Iris.to_bytes records in
  let n_records = Array.length records in
  let rng = Watz_util.Prng.create 3L in
  let net = G.create ~inputs:4 ~hidden_layers:1 ~hidden:4 ~outputs:3 ~rng in
  let initial = Array.copy net.G.weights in
  let m = Watz_wasmc.Minic.compile (GW.program ~mem_pages:2 ()) in
  Watz_wasm.Validate.validate m;
  let train_on ~invoke ~memory =
    GW.seed_weights ~invoke initial;
    GW.write_dataset memory data;
    GW.train ~invoke ~n_records ~epochs:1 ~rate:0.7;
    GW.read_weights ~invoke
  in
  let interp_w =
    let inst = Watz_wasm.Instance.instantiate m in
    let invoke name args =
      Watz_wasm.Interp.invoke (Option.get (Watz_wasm.Instance.export_func inst name)) args
    in
    train_on ~invoke ~memory:(Option.get (Watz_wasm.Instance.export_memory inst "memory"))
  in
  let fast_w =
    let inst = Watz_wasm.Fastinterp.instantiate (Watz_wasm.Fastinterp.compile m) in
    let invoke name args = Watz_wasm.Fastinterp.invoke inst name args in
    train_on ~invoke ~memory:(Option.get (Watz_wasm.Fastinterp.export_memory inst "memory"))
  in
  Array.iteri
    (fun k w ->
      let bits = Int64.bits_of_float in
      Alcotest.(check int64) (Printf.sprintf "weight %d interp = fast" k) (bits w) (bits fast_w.(k)))
    interp_w

(* ------------------------------------------------------------------ *)
(* Iris *)

let test_iris_shape () =
  let records = Iris.generate ~seed:1L () in
  Alcotest.(check int) "150 records" 150 (Array.length records);
  let per_class = Array.make 3 0 in
  Array.iter (fun r -> per_class.(r.Iris.cls) <- per_class.(r.Iris.cls) + 1) records;
  Alcotest.(check (array int)) "50 per class" [| 50; 50; 50 |] per_class;
  let csv = Iris.to_csv records in
  (* The paper quotes 4.45 kB for the CSV; ours lands in that band. *)
  Alcotest.(check bool) "csv ~4.5 kB" true
    (String.length csv > 3500 && String.length csv < 5500)

let test_iris_bytes_roundtrip () =
  let records = Iris.generate ~seed:2L () in
  let back = Iris.of_bytes (Iris.to_bytes records) in
  Alcotest.(check int) "count" (Array.length records) (Array.length back);
  Array.iteri
    (fun k r ->
      Alcotest.(check int) "class" r.Iris.cls back.(k).Iris.cls;
      Array.iteri
        (fun j x -> Alcotest.(check (float 0.0)) "feature" x back.(k).Iris.features.(j))
        r.Iris.features)
    records

let test_iris_replication () =
  let bytes = Iris.replicated_bytes ~seed:1L ~target_bytes:100_000 in
  Alcotest.(check bool) "close to target" true
    (String.length bytes <= 100_000 && String.length bytes > 95_000);
  Alcotest.(check int) "record-aligned" 0 (String.length bytes mod Iris.record_bytes)

(* ------------------------------------------------------------------ *)
(* B-tree *)

let test_btree_basics () =
  let t = BT.create ~order:4 () in
  for k = 0 to 999 do
    BT.insert t (BT.Kint ((k * 7919) mod 1000)) k
  done;
  BT.check_invariants t;
  Alcotest.(check int) "size" 1000 (BT.size t);
  (* every key findable *)
  for k = 0 to 999 do
    let key = BT.Kint ((k * 7919) mod 1000) in
    Alcotest.(check bool) "found" true (List.mem k (BT.find t key))
  done

let test_btree_range_and_remove () =
  let t = BT.create ~order:4 () in
  for k = 0 to 99 do
    BT.insert t (BT.Kint k) k
  done;
  let ids = BT.range t ~lo:(BT.Kint 10) ~hi:(BT.Kint 19) in
  Alcotest.(check int) "range size" 10 (List.length ids);
  BT.remove t (BT.Kint 15) 15;
  Alcotest.(check (list int)) "removed" [] (BT.find t (BT.Kint 15));
  BT.check_invariants t

let qcheck_btree_model =
  QCheck.Test.make ~name:"btree matches a sorted-assoc model" ~count:100
    QCheck.(list (pair small_int small_int))
    (fun pairs ->
      let t = BT.create ~order:4 () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun rowid (k, _) ->
          BT.insert t (BT.Kint k) rowid;
          Hashtbl.replace model k (rowid :: (try Hashtbl.find model k with Not_found -> [])))
        pairs;
      BT.check_invariants t;
      Hashtbl.fold
        (fun k ids acc ->
          acc && List.sort compare (BT.find t (BT.Kint k)) = List.sort compare ids)
        model true)

(* ------------------------------------------------------------------ *)
(* MiniDB *)

let fresh_db () = DB.create ()

let exec db sql = DB.exec db sql
let rows db sql = (DB.exec db sql).DB.rows_out

let test_sql_create_insert_select () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE users (id INT, name TEXT, score REAL)");
  ignore (exec db "INSERT INTO users VALUES (1, 'alice', 9.5), (2, 'bob', 7.25), (3, 'carol', 8.0)");
  let r = rows db "SELECT name FROM users WHERE score >= 8.0 ORDER BY score DESC" in
  Alcotest.(check int) "two rows" 2 (List.length r);
  (match r with
  | [ [| DB.Text first |]; [| DB.Text second |] ] ->
    Alcotest.(check string) "best first" "alice" first;
    Alcotest.(check string) "then carol" "carol" second
  | _ -> Alcotest.fail "unexpected shape")

let test_sql_aggregates_group_by () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (grp TEXT, x INT)");
  ignore (exec db "INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 10), ('b', 20), ('b', 30)");
  let r = rows db "SELECT *, COUNT(*), SUM(x), AVG(x) FROM t GROUP BY grp" in
  Alcotest.(check int) "two groups" 2 (List.length r);
  List.iter
    (fun row ->
      match row with
      | [| DB.Text "a"; DB.Int 2; DB.Int 3; DB.Real avg |] ->
        Alcotest.(check (float 1e-9)) "avg a" 1.5 avg
      | [| DB.Text "b"; DB.Int 3; DB.Int 60; DB.Real avg |] ->
        Alcotest.(check (float 1e-9)) "avg b" 20.0 avg
      | _ -> Alcotest.fail "unexpected group row")
    r

let test_sql_update_delete () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (id INT, x INT)");
  ignore (exec db "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  ignore (exec db "UPDATE t SET x = x + 5 WHERE id = 2");
  (match rows db "SELECT x FROM t WHERE id = 2" with
  | [ [| DB.Int 25 |] ] -> ()
  | _ -> Alcotest.fail "update failed");
  ignore (exec db "DELETE FROM t WHERE x > 24");
  match rows db "SELECT COUNT(*) FROM t" with
  | [ [| DB.Int 1 |] ] -> ()
  | _ -> Alcotest.fail "delete failed"

let test_sql_index_consistency () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (k INT, x INT)");
  ignore (exec db "CREATE INDEX ik ON t (k)");
  for batch = 0 to 9 do
    let values =
      String.concat ", "
        (List.init 50 (fun j ->
             let k = ((batch * 50) + j) * 7919 mod 1000 in
             Printf.sprintf "(%d, %d)" k j))
    in
    ignore (exec db (Printf.sprintf "INSERT INTO t VALUES %s" values))
  done;
  (* Indexed lookup must agree with a full scan. *)
  for key = 0 to 50 do
    let indexed = rows db (Printf.sprintf "SELECT COUNT(*) FROM t WHERE k = %d" key) in
    let scanned = rows db (Printf.sprintf "SELECT COUNT(*) FROM t WHERE k + 0 = %d" key) in
    match (indexed, scanned) with
    | [ [| DB.Int a |] ], [ [| DB.Int b |] ] ->
      Alcotest.(check int) (Printf.sprintf "key %d" key) b a
    | _ -> Alcotest.fail "bad count shape"
  done

let test_sql_join () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE emp (id INT, dept INT, name TEXT)");
  ignore (exec db "CREATE TABLE dept (did INT, dname TEXT)");
  ignore (exec db "INSERT INTO emp VALUES (1, 10, 'ann'), (2, 20, 'ben'), (3, 10, 'cyd')");
  ignore (exec db "INSERT INTO dept VALUES (10, 'science'), (20, 'ops')");
  let r = rows db "SELECT emp.name, dept.dname FROM emp JOIN dept ON emp.dept = dept.did WHERE dept.dname = 'science'" in
  Alcotest.(check int) "two science employees" 2 (List.length r)

let test_sql_like () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (s TEXT)");
  ignore (exec db "INSERT INTO t VALUES ('apple'), ('apricot'), ('banana'), ('grape')");
  (match rows db "SELECT COUNT(*) FROM t WHERE s LIKE 'ap%'" with
  | [ [| DB.Int 2 |] ] -> ()
  | _ -> Alcotest.fail "prefix LIKE");
  (match rows db "SELECT COUNT(*) FROM t WHERE s LIKE '%an%'" with
  | [ [| DB.Int 1 |] ] -> ()
  | _ -> Alcotest.fail "infix LIKE");
  match rows db "SELECT COUNT(*) FROM t WHERE s LIKE '%e'" with
  | [ [| DB.Int 2 |] ] -> ()
  | _ -> Alcotest.fail "suffix LIKE"

let test_sql_errors () =
  let db = fresh_db () in
  let expect_err sql =
    match DB.exec db sql with
    | _ -> Alcotest.failf "accepted: %s" sql
    | exception DB.Sql_error _ -> ()
  in
  expect_err "SELECT * FROM missing";
  ignore (exec db "CREATE TABLE t (a INT)");
  expect_err "CREATE TABLE t (a INT)";
  expect_err "INSERT INTO t VALUES (1, 2)";
  expect_err "SELECT nosuch FROM t";
  expect_err "BOGUS STATEMENT";
  expect_err "SELECT a FROM t WHERE a = "

let test_sql_limit_order () =
  let db = fresh_db () in
  ignore (exec db "CREATE TABLE t (x INT)");
  ignore (exec db "INSERT INTO t VALUES (5), (3), (9), (1), (7)");
  match rows db "SELECT x FROM t ORDER BY x LIMIT 3" with
  | [ [| DB.Int 1 |]; [| DB.Int 3 |]; [| DB.Int 5 |] ] -> ()
  | _ -> Alcotest.fail "order/limit failed"

(* ------------------------------------------------------------------ *)
(* Bigapp *)

let test_bigapp_size_and_runs () =
  let bytes = Watz_workloads.Bigapp.generate ~mb:1 in
  let size_mb = float_of_int (String.length bytes) /. 1048576.0 in
  Alcotest.(check bool) (Printf.sprintf "size %.2f MB in [0.9, 1.3]" size_mb) true
    (size_mb > 0.9 && size_mb < 1.3);
  let m = Watz_wasm.Decode.decode bytes in
  Watz_wasm.Validate.validate m;
  let inst = Watz_wasm.Fastinterp.instantiate (Watz_wasm.Fastinterp.compile m) in
  match Watz_wasm.Fastinterp.invoke inst "_start" [] with
  | [] -> ()
  | _ -> Alcotest.fail "_start should return nothing"

let case name f = Alcotest.test_case name `Quick f
let q = Seed_util.qcheck

let suite =
  [
    ("workloads.polybench",
      case "30 kernels" test_polybench_count
      :: case "interp tier agrees" test_polybench_interp_agrees
      :: polybench_parity_cases);
    ("workloads.speedtest", case "read/write mix" test_speedtest_mix :: speedtest_parity_cases);
    ("workloads.tier_differential", tier_differential_cases);
    ( "workloads.genann",
      [
        case "structure" test_genann_structure;
        case "learns xor" test_genann_learns_xor_shape;
        case "trains on iris" test_genann_trains_on_iris;
        case "wasm bit-identical training" test_genann_wasm_bit_identical;
        case "both tiers bit-identical" test_genann_tiers_bit_identical;
      ] );
    ( "workloads.iris",
      [
        case "shape and size" test_iris_shape;
        case "bytes roundtrip" test_iris_bytes_roundtrip;
        case "replication" test_iris_replication;
      ] );
    ( "workloads.btree",
      [
        case "insert/find/invariants" test_btree_basics;
        case "range and remove" test_btree_range_and_remove;
        q qcheck_btree_model;
      ] );
    ( "workloads.minidb",
      [
        case "create/insert/select" test_sql_create_insert_select;
        case "aggregates + group by" test_sql_aggregates_group_by;
        case "update/delete" test_sql_update_delete;
        case "index consistency" test_sql_index_consistency;
        case "join" test_sql_join;
        case "like" test_sql_like;
        case "errors" test_sql_errors;
        case "order by + limit" test_sql_limit_order;
      ] );
    ("workloads.bigapp", [ case "1 MB binary loads and runs" test_bigapp_size_and_runs ]);
  ]
