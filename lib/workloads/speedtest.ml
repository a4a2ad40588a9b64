(** Speedtest1-style experiments (§VI-D, Fig. 6).

    SQLite itself cannot be compiled by our MiniC toolchain, so each
    numbered Speedtest1 experiment is reproduced as the {e database
    kernel} it exercises — row appends, ordered inserts with shifting,
    B-tree-style index maintenance (sorted-array index), full-table
    scans with predicates, point lookups, range queries, aggregate
    grouping, ORDER BY sorting and index rebuilds — implemented
    identically in native OCaml and in MiniC→Wasm over the same
    LCG-generated data (31-bit arithmetic, so both sides compute
    bit-identical results). The experiment numbers follow the paper's
    Fig. 6 labels; [kind] records the read/write split the paper uses
    when reporting 2.04x (reads) vs 2.23x (writes).

    Both sides run the same kernel over the same data, which keeps the
    Wasm-vs-native comparison apples-to-apples. *)

module M = Watz_wasmc.Minic
open Watz_wasmc.Minic

type kind = Read | Write

type experiment = {
  id : int;
  label : string;
  kind : kind;
  native : unit -> float;
  program : M.program;
}

(* 31-bit LCG, identical on both sides. *)
let lcg_native x = ((1103515245 * x) + 12345) land 0x7fffffff

let lcg_wasm x =
  let open Dsl in
  BinE (BAnd, (i 1103515245 * x) + i 12345, i 0x7fffffff)

(* Common MiniC helper functions (declared per program as needed). *)

(* next_rand(): advances the LCG state stored at address [state_addr]. *)
let fn_next_rand ~state_addr =
  let open Dsl in
  fn ~export:false "next_rand" [] (Some I32)
    [
      DeclS ("x", I32, Some (lcg_wasm (LoadE (I32, i state_addr))));
      StoreS (I32, i state_addr, v "x");
      ret (v "x");
    ]

(* bsearch(base, n, key): index of first element >= key in the sorted
   i32 array at [base]. *)
let fn_bsearch =
  let open Dsl in
  fn ~export:false "bsearch" [ ("base", I32); ("n", I32); ("key", I32) ] (Some I32)
    [
      DeclS ("lo", I32, Some (i 0));
      DeclS ("hi", I32, Some (v "n"));
      while_ (v "lo" < v "hi")
        [
          DeclS ("mid", I32, Some ((v "lo" + v "hi") / i 2));
          if_
            (i32_get (v "base") (v "mid") < v "key")
            [ set "lo" (v "mid" + i 1) ]
            [ set "hi" (v "mid") ];
        ];
      ret (v "lo");
    ]

let bsearch_native a n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

(* Bottom-up merge sort over i32 arrays (same algorithm both sides). *)
let fn_msort ~aux_off =
  let open Dsl in
  fn ~export:false "msort" [ ("base", I32); ("n", I32) ] None
    [
      DeclS ("width", I32, Some (i 1));
      while_ (v "width" < v "n")
        [
          DeclS ("lo", I32, Some (i 0));
          set "lo" (i 0);
          while_ (v "lo" < v "n")
            [
              DeclS ("mid", I32, Some (v "lo" + v "width"));
              set "mid" (v "lo" + v "width");
              if_ (v "mid" > v "n") [ set "mid" (v "n") ] [];
              DeclS ("hi", I32, Some (v "lo" + (i 2 * v "width")));
              set "hi" (v "lo" + (i 2 * v "width"));
              if_ (v "hi" > v "n") [ set "hi" (v "n") ] [];
              DeclS ("a2", I32, Some (v "lo"));
              set "a2" (v "lo");
              DeclS ("b2", I32, Some (v "mid"));
              set "b2" (v "mid");
              DeclS ("o", I32, Some (v "lo"));
              set "o" (v "lo");
              while_ (AndE (v "a2" < v "mid", v "b2" < v "hi"))
                [
                  if_
                    (i32_get (v "base") (v "a2") <= i32_get (v "base") (v "b2"))
                    [
                      i32_set (i aux_off) (v "o") (i32_get (v "base") (v "a2"));
                      set "a2" (v "a2" + i 1);
                    ]
                    [
                      i32_set (i aux_off) (v "o") (i32_get (v "base") (v "b2"));
                      set "b2" (v "b2" + i 1);
                    ];
                  set "o" (v "o" + i 1);
                ];
              while_ (v "a2" < v "mid")
                [
                  i32_set (i aux_off) (v "o") (i32_get (v "base") (v "a2"));
                  set "a2" (v "a2" + i 1);
                  set "o" (v "o" + i 1);
                ];
              while_ (v "b2" < v "hi")
                [
                  i32_set (i aux_off) (v "o") (i32_get (v "base") (v "b2"));
                  set "b2" (v "b2" + i 1);
                  set "o" (v "o" + i 1);
                ];
              for_ "cp" (v "lo") (v "hi")
                [ i32_set (v "base") (v "cp") (i32_get (i aux_off) (v "cp")) ];
              set "lo" (v "lo" + (i 2 * v "width"));
            ];
          set "width" (i 2 * v "width");
        ];
      ret_void;
    ]

let msort_native a n =
  let aux = Array.make n 0 in
  let width = ref 1 in
  while !width < n do
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) in
      let hi = min n (!lo + (2 * !width)) in
      let a2 = ref !lo and b2 = ref mid and o = ref !lo in
      while !a2 < mid && !b2 < hi do
        if a.(!a2) <= a.(!b2) then begin
          aux.(!o) <- a.(!a2);
          incr a2
        end
        else begin
          aux.(!o) <- a.(!b2);
          incr b2
        end;
        incr o
      done;
      while !a2 < mid do
        aux.(!o) <- a.(!a2);
        incr a2;
        incr o
      done;
      while !b2 < hi do
        aux.(!o) <- a.(!b2);
        incr b2;
        incr o
      done;
      for cp = !lo to hi - 1 do
        a.(cp) <- aux.(cp)
      done;
      lo := !lo + (2 * !width)
    done;
    width := 2 * !width
  done

(* Memory layout shared by all experiments:
   0     : LCG state (i32)
   16    : keys  (i32 x cap)
   16+4c : vals  (i32 x cap)
   ...   : idx / aux *)
let state_addr = 0
let keys_off cap = ignore cap; 16
let vals_off cap = 16 + (4 * cap)
let idx_off cap = 16 + (8 * cap)
let aux_off cap = 16 + (12 * cap)
let total_bytes cap = 16 + (16 * cap)

let mk_program ~cap ~extra_fns body =
  let pages = (total_bytes cap / 65536) + 1 in
  let open Dsl in
  Dsl.program ~mem_pages:pages
    ([ fn_next_rand ~state_addr; fn_bsearch; fn_msort ~aux_off:(aux_off cap) ] @ extra_fns
    @ [ fn "run" [] (Some F64) (StoreS (I32, i state_addr, i 42) :: body) ])

let checksum_i32 arrays =
  List.fold_left (fun acc a -> Array.fold_left (fun s x -> s +. float_of_int x) acc a) 0.0 arrays

(* ------------------------------------------------------------------ *)

(* 100: INSERT n unindexed rows. *)
let exp_100 =
  let n = 4000 in
  let cap = n in
  let native () =
    let x = ref 42 in
    let keys = Array.make n 0 and vals = Array.make n 0 in
    for r = 0 to n - 1 do
      keys.(r) <- r;
      x := lcg_native !x;
      vals.(r) <- !x mod 100000
    done;
    checksum_i32 [ keys; vals ]
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      [
        for_ "r" (i 0) (i n)
          [
            i32_set (i (keys_off cap)) (v "r") (v "r");
            i32_set (i (vals_off cap)) (v "r") (calle "next_rand" [] % i 100000);
          ];
        DeclS ("cks", F64, Some (f 0.0));
        for_ "q" (i 0) (i n)
          [
            set "cks"
              (v "cks" + to_f64 (i32_get (i (keys_off cap)) (v "q"))
              + to_f64 (i32_get (i (vals_off cap)) (v "q")));
          ];
        ret (v "cks");
      ]
  in
  { id = 100; label = "INSERT rows"; kind = Write; native; program }

(* 110: ordered INSERT — insert random keys into a sorted array. *)
let exp_110 =
  let n = 1400 in
  let cap = n in
  let native () =
    let x = ref 42 in
    let arr = Array.make n 0 in
    let count = ref 0 in
    for _ = 1 to n do
      x := lcg_native !x;
      let key = !x mod 100000 in
      let pos = bsearch_native arr !count key in
      for k = !count downto pos + 1 do
        arr.(k) <- arr.(k - 1)
      done;
      arr.(pos) <- key;
      incr count
    done;
    checksum_i32 [ arr ]
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      [
        DeclS ("count", I32, Some (i 0));
        for_ "r" (i 0) (i n)
          [
            DeclS ("key", I32, Some (calle "next_rand" [] % i 100000));
            DeclS ("pos", I32, Some (calle "bsearch" [ i (keys_off cap); v "count"; v "key" ]));
            DeclS ("k", I32, Some (v "count"));
            while_ (v "k" > v "pos")
              [
                i32_set (i (keys_off cap)) (v "k") (i32_get (i (keys_off cap)) (v "k" - i 1));
                set "k" (v "k" - i 1);
              ];
            i32_set (i (keys_off cap)) (v "pos") (v "key");
            set "count" (v "count" + i 1);
          ];
        DeclS ("cks", F64, Some (f 0.0));
        for_ "q" (i 0) (i n) [ set "cks" (v "cks" + to_f64 (i32_get (i (keys_off cap)) (v "q"))) ];
        ret (v "cks");
      ]
  in
  { id = 110; label = "INSERT ordered"; kind = Write; native; program }

(* 120: INSERT with index maintenance — append rows, keep a sorted
   key index alongside. *)
let exp_120 =
  let n = 1400 in
  let cap = n in
  let native () =
    let x = ref 42 in
    let keys = Array.make n 0 and vals = Array.make n 0 and idx = Array.make n 0 in
    let count = ref 0 in
    for r = 0 to n - 1 do
      x := lcg_native !x;
      let key = !x mod 100000 in
      keys.(r) <- key;
      vals.(r) <- r;
      let pos = bsearch_native idx !count key in
      for k = !count downto pos + 1 do
        idx.(k) <- idx.(k - 1)
      done;
      idx.(pos) <- key;
      incr count
    done;
    checksum_i32 [ keys; vals; idx ]
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      [
        DeclS ("count", I32, Some (i 0));
        for_ "r" (i 0) (i n)
          [
            DeclS ("key", I32, Some (calle "next_rand" [] % i 100000));
            i32_set (i (keys_off cap)) (v "r") (v "key");
            i32_set (i (vals_off cap)) (v "r") (v "r");
            DeclS ("pos", I32, Some (calle "bsearch" [ i (idx_off cap); v "count"; v "key" ]));
            DeclS ("k", I32, Some (v "count"));
            while_ (v "k" > v "pos")
              [
                i32_set (i (idx_off cap)) (v "k") (i32_get (i (idx_off cap)) (v "k" - i 1));
                set "k" (v "k" - i 1);
              ];
            i32_set (i (idx_off cap)) (v "pos") (v "key");
            set "count" (v "count" + i 1);
          ];
        DeclS ("cks", F64, Some (f 0.0));
        for_ "q" (i 0) (i n)
          [
            set "cks"
              (v "cks" + to_f64 (i32_get (i (keys_off cap)) (v "q"))
              + to_f64 (i32_get (i (vals_off cap)) (v "q"))
              + to_f64 (i32_get (i (idx_off cap)) (v "q")));
          ];
        ret (v "cks");
      ]
  in
  { id = 120; label = "INSERT indexed"; kind = Write; native; program }

(* Shared setup for read experiments: fill keys/vals, sorted idx copy. *)
let fill_native n =
  let x = ref 42 in
  let keys = Array.make n 0 and vals = Array.make n 0 in
  for r = 0 to n - 1 do
    x := lcg_native !x;
    keys.(r) <- !x mod 100000;
    x := lcg_native !x;
    vals.(r) <- !x mod 1000
  done;
  (keys, vals)

let fill_wasm ~cap n =
  let open Dsl in
  [
    for_ "r" (i 0) (i n)
      [
        i32_set (i (keys_off cap)) (v "r") (calle "next_rand" [] % i 100000);
        i32_set (i (vals_off cap)) (v "r") (calle "next_rand" [] % i 1000);
      ];
  ]

(* 130: repeated COUNT/SUM full scans with varying predicates. *)
let exp_130 =
  let n = 4000 and scans = 24 in
  let cap = n in
  let native () =
    let keys, vals = fill_native n in
    let cks = ref 0.0 in
    for s = 0 to scans - 1 do
      let threshold = s * 4000 in
      let count = ref 0 and sum = ref 0 in
      for r = 0 to n - 1 do
        if keys.(r) < threshold then begin
          incr count;
          sum := !sum + vals.(r)
        end
      done;
      cks := !cks +. float_of_int !count +. float_of_int !sum
    done;
    !cks
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      (fill_wasm ~cap n
      @ [
          DeclS ("cks", F64, Some (f 0.0));
          for_ "s" (i 0) (i scans)
            [
              DeclS ("threshold", I32, Some (v "s" * i 4000));
              DeclS ("count", I32, Some (i 0));
              set "count" (i 0);
              DeclS ("sum", I32, Some (i 0));
              set "sum" (i 0);
              for_ "r" (i 0) (i n)
                [
                  if_
                    (i32_get (i (keys_off cap)) (v "r") < v "threshold")
                    [
                      set "count" (v "count" + i 1);
                      set "sum" (v "sum" + i32_get (i (vals_off cap)) (v "r"));
                    ]
                    [];
                ];
              set "cks" (v "cks" + to_f64 (v "count") + to_f64 (v "sum"));
            ];
          ret (v "cks");
        ])
  in
  { id = 130; label = "SELECT count/sum scans"; kind = Read; native; program }

(* 142: range queries over the sorted index. *)
let exp_142 =
  let n = 4000 and queries = 400 in
  let cap = n in
  let native () =
    let keys, _ = fill_native n in
    let idx = Array.copy keys in
    msort_native idx n;
    let x = ref 7 in
    let cks = ref 0.0 in
    for _ = 1 to queries do
      x := lcg_native !x;
      let lo = !x mod 100000 in
      let hi = lo + 500 in
      let a = bsearch_native idx n lo and b = bsearch_native idx n (hi + 1) in
      cks := !cks +. float_of_int (b - a)
    done;
    !cks
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      (fill_wasm ~cap n
      @ [
          for_ "c" (i 0) (i n)
            [ i32_set (i (idx_off cap)) (v "c") (i32_get (i (keys_off cap)) (v "c")) ];
          call "msort" [ i (idx_off cap); i n ];
          StoreS (I32, i state_addr, i 7);
          DeclS ("cks", F64, Some (f 0.0));
          for_ "q" (i 0) (i queries)
            [
              DeclS ("lo", I32, Some (calle "next_rand" [] % i 100000));
              DeclS ("hi", I32, Some (v "lo" + i 500));
              DeclS ("a", I32, Some (calle "bsearch" [ i (idx_off cap); i n; v "lo" ]));
              DeclS ("b", I32, Some (calle "bsearch" [ i (idx_off cap); i n; v "hi" + i 1 ]));
              set "cks" (v "cks" + to_f64 (v "b" - v "a"));
            ];
          ret (v "cks");
        ])
  in
  { id = 142; label = "SELECT range via index"; kind = Read; native; program }

(* 145: scans with a three-way predicate. *)
let exp_145 =
  let n = 4000 and scans = 20 in
  let cap = n in
  let native () =
    let keys, vals = fill_native n in
    let cks = ref 0.0 in
    for s = 0 to scans - 1 do
      let m = ref 0 in
      for r = 0 to n - 1 do
        if keys.(r) mod 10 = s mod 10 && vals.(r) > 100 && keys.(r) < 90000 then incr m
      done;
      cks := !cks +. float_of_int !m
    done;
    !cks
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      (fill_wasm ~cap n
      @ [
          DeclS ("cks", F64, Some (f 0.0));
          for_ "s" (i 0) (i scans)
            [
              DeclS ("m", I32, Some (i 0));
              set "m" (i 0);
              for_ "r" (i 0) (i n)
                [
                  if_
                    (AndE
                       ( AndE
                           ( i32_get (i (keys_off cap)) (v "r") % i 10 = v "s" % i 10,
                             i32_get (i (vals_off cap)) (v "r") > i 100 ),
                         i32_get (i (keys_off cap)) (v "r") < i 90000 ))
                    [ set "m" (v "m" + i 1) ]
                    [];
                ];
              set "cks" (v "cks" + to_f64 (v "m"));
            ];
          ret (v "cks");
        ])
  in
  { id = 145; label = "SELECT multi-predicate scans"; kind = Read; native; program }

(* 160: point lookups through the sorted index. *)
let exp_160 =
  let n = 4000 and lookups = 3000 in
  let cap = n in
  let native () =
    let keys, _ = fill_native n in
    let idx = Array.copy keys in
    msort_native idx n;
    let x = ref 99 in
    let hits = ref 0 in
    for _ = 1 to lookups do
      x := lcg_native !x;
      let key = !x mod 100000 in
      let pos = bsearch_native idx n key in
      if pos < n && idx.(pos) = key then incr hits
    done;
    float_of_int !hits
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      (fill_wasm ~cap n
      @ [
          for_ "c" (i 0) (i n)
            [ i32_set (i (idx_off cap)) (v "c") (i32_get (i (keys_off cap)) (v "c")) ];
          call "msort" [ i (idx_off cap); i n ];
          StoreS (I32, i state_addr, i 99);
          DeclS ("hits", I32, Some (i 0));
          for_ "q" (i 0) (i lookups)
            [
              DeclS ("key", I32, Some (calle "next_rand" [] % i 100000));
              DeclS ("pos", I32, Some (calle "bsearch" [ i (idx_off cap); i n; v "key" ]));
              if_
                (AndE (v "pos" < i n, i32_get (i (idx_off cap)) (v "pos") = v "key"))
                [ set "hits" (v "hits" + i 1) ]
                [];
            ];
          ret (to_f64 (v "hits"));
        ])
  in
  { id = 160; label = "SELECT point lookups"; kind = Read; native; program }

(* 180: UPDATE by full scan. *)
let exp_180 =
  let n = 4000 and passes = 16 in
  let cap = n in
  let native () =
    let keys, vals = fill_native n in
    for p = 0 to passes - 1 do
      for r = 0 to n - 1 do
        if keys.(r) mod 5 = p mod 5 then vals.(r) <- (vals.(r) + 7) land 0x7fffffff
      done
    done;
    checksum_i32 [ vals ]
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      (fill_wasm ~cap n
      @ [
          for_ "p" (i 0) (i passes)
            [
              for_ "r" (i 0) (i n)
                [
                  if_
                    (i32_get (i (keys_off cap)) (v "r") % i 5 = v "p" % i 5)
                    [
                      i32_set (i (vals_off cap)) (v "r")
                        (BinE (BAnd, i32_get (i (vals_off cap)) (v "r") + i 7, i 0x7fffffff));
                    ]
                    [];
                ];
            ];
          DeclS ("cks", F64, Some (f 0.0));
          for_ "q" (i 0) (i n) [ set "cks" (v "cks" + to_f64 (i32_get (i (vals_off cap)) (v "q"))) ];
          ret (v "cks");
        ])
  in
  { id = 180; label = "UPDATE scans"; kind = Write; native; program }

(* 190: indexed point UPDATEs. *)
let exp_190 =
  let n = 4000 and updates = 2500 in
  let cap = n in
  let native () =
    let keys, vals = fill_native n in
    let idx = Array.copy keys in
    msort_native idx n;
    let x = ref 5 in
    for _ = 1 to updates do
      x := lcg_native !x;
      let key = !x mod 100000 in
      let pos = bsearch_native idx n key in
      if pos < n then vals.(pos mod n) <- (vals.(pos mod n) + key) land 0x7fffffff
    done;
    checksum_i32 [ vals ]
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      (fill_wasm ~cap n
      @ [
          for_ "c" (i 0) (i n)
            [ i32_set (i (idx_off cap)) (v "c") (i32_get (i (keys_off cap)) (v "c")) ];
          call "msort" [ i (idx_off cap); i n ];
          StoreS (I32, i state_addr, i 5);
          for_ "q" (i 0) (i updates)
            [
              DeclS ("key", I32, Some (calle "next_rand" [] % i 100000));
              DeclS ("pos", I32, Some (calle "bsearch" [ i (idx_off cap); i n; v "key" ]));
              if_ (v "pos" < i n)
                [
                  DeclS ("slot", I32, Some (v "pos" % i n));
                  i32_set (i (vals_off cap)) (v "slot")
                    (BinE (BAnd, i32_get (i (vals_off cap)) (v "slot") + v "key", i 0x7fffffff));
                ]
                [];
            ];
          DeclS ("cks", F64, Some (f 0.0));
          for_ "q2" (i 0) (i n) [ set "cks" (v "cks" + to_f64 (i32_get (i (vals_off cap)) (v "q2"))) ];
          ret (v "cks");
        ])
  in
  { id = 190; label = "UPDATE via index"; kind = Write; native; program }

(* 260: grouped aggregation (GROUP BY bucket). *)
let exp_260 =
  let n = 4000 and buckets = 32 and passes = 16 in
  let cap = n in
  let native () =
    let keys, vals = fill_native n in
    let sums = Array.make buckets 0 in
    for _ = 1 to passes do
      Array.fill sums 0 buckets 0;
      for r = 0 to n - 1 do
        let b = keys.(r) mod buckets in
        sums.(b) <- sums.(b) + vals.(r)
      done
    done;
    checksum_i32 [ sums ]
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      (fill_wasm ~cap n
      @ [
          for_ "p" (i 0) (i passes)
            [
              for_ "z" (i 0) (i buckets) [ i32_set (i (aux_off cap)) (v "z") (i 0) ];
              for_ "r" (i 0) (i n)
                [
                  DeclS ("b", I32, Some (i32_get (i (keys_off cap)) (v "r") % i buckets));
                  i32_set (i (aux_off cap)) (v "b")
                    (i32_get (i (aux_off cap)) (v "b") + i32_get (i (vals_off cap)) (v "r"));
                ];
            ];
          DeclS ("cks", F64, Some (f 0.0));
          for_ "q" (i 0) (i buckets)
            [ set "cks" (v "cks" + to_f64 (i32_get (i (aux_off cap)) (v "q"))) ];
          ret (v "cks");
        ])
  in
  { id = 260; label = "GROUP BY aggregation"; kind = Read; native; program }

(* 310: ORDER BY — sort the values. *)
let exp_310 =
  let n = 4000 in
  let cap = n in
  let native () =
    let keys, _ = fill_native n in
    msort_native keys n;
    (* weighted checksum so order matters *)
    let cks = ref 0.0 in
    for r = 0 to n - 1 do
      cks := !cks +. (float_of_int keys.(r) *. float_of_int ((r mod 7) + 1))
    done;
    !cks
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      (fill_wasm ~cap n
      @ [
          call "msort" [ i (keys_off cap); i n ];
          DeclS ("cks", F64, Some (f 0.0));
          for_ "r" (i 0) (i n)
            [
              set "cks"
                (v "cks"
                + (to_f64 (i32_get (i (keys_off cap)) (v "r")) * to_f64 ((v "r" % i 7) + i 1)));
            ];
          ret (v "cks");
        ])
  in
  { id = 310; label = "ORDER BY sort"; kind = Read; native; program }

(* 500: index rebuild (REINDEX / DROP+CREATE INDEX). *)
let exp_500 =
  let n = 4000 and rebuilds = 6 in
  let cap = n in
  let n1 = n - 1 in
  let native () =
    let keys, _ = fill_native n in
    let cks = ref 0.0 in
    for _ = 1 to rebuilds do
      let idx = Array.copy keys in
      msort_native idx n;
      cks := !cks +. float_of_int idx.(0) +. float_of_int idx.(n - 1)
    done;
    !cks
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      (fill_wasm ~cap n
      @ [
          DeclS ("cks", F64, Some (f 0.0));
          for_ "p" (i 0) (i rebuilds)
            [
              for_ "c" (i 0) (i n)
                [ i32_set (i (idx_off cap)) (v "c") (i32_get (i (keys_off cap)) (v "c")) ];
              call "msort" [ i (idx_off cap); i n ];
              set "cks"
                (v "cks" + to_f64 (i32_get (i (idx_off cap)) (i 0))
                + to_f64 (i32_get (i (idx_off cap)) (i n1)));
            ];
          ret (v "cks");
        ])
  in
  { id = 500; label = "index rebuild"; kind = Write; native; program }

(* 510: join-style lookup loop (probe one table per row of another). *)
let exp_510 =
  let n = 3000 and probes = 3000 in
  let cap = n in
  let native () =
    let keys, vals = fill_native n in
    let idx = Array.copy keys in
    msort_native idx n;
    let hits = ref 0 in
    for r = 0 to probes - 1 do
      let key = vals.(r mod n) * 97 mod 100000 in
      let pos = bsearch_native idx n key in
      if pos < n && idx.(pos) = key then incr hits
    done;
    float_of_int !hits
  in
  let program =
    let open Dsl in
    mk_program ~cap ~extra_fns:[]
      (fill_wasm ~cap n
      @ [
          for_ "c" (i 0) (i n)
            [ i32_set (i (idx_off cap)) (v "c") (i32_get (i (keys_off cap)) (v "c")) ];
          call "msort" [ i (idx_off cap); i n ];
          DeclS ("hits", I32, Some (i 0));
          for_ "r" (i 0) (i probes)
            [
              DeclS ("key", I32, Some (i32_get (i (vals_off cap)) (v "r" % i n) * i 97 % i 100000));
              DeclS ("pos", I32, Some (calle "bsearch" [ i (idx_off cap); i n; v "key" ]));
              if_
                (AndE (v "pos" < i n, i32_get (i (idx_off cap)) (v "pos") = v "key"))
                [ set "hits" (v "hits" + i 1) ]
                [];
            ];
          ret (to_f64 (v "hits"));
        ])
  in
  { id = 510; label = "JOIN-style probes"; kind = Read; native; program }

let all =
  [ exp_100; exp_110; exp_120; exp_130; exp_142; exp_145; exp_160; exp_180; exp_190;
    exp_260; exp_310; exp_500; exp_510 ]
