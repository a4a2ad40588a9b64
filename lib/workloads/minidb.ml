(** MiniDB: an embeddable in-memory SQL database engine — the
    repository's stand-in for SQLite (§VI-D).

    A real engine, not a mock: SQL lexer and recursive-descent parser,
    B-tree secondary indexes with a small planner that uses them for
    equality and range predicates, expression evaluation, aggregates
    with GROUP BY, ORDER BY/LIMIT, inner joins, UPDATE/DELETE with
    index maintenance. It serves [watz_cli sql], the [secure_db]
    example (the paper's in-enclave database scenario) and its own
    tests; the Speedtest1-style experiments ({!Speedtest}) use plain
    OCaml and MiniC kernels instead.

    Supported statements:
    {v
    CREATE TABLE t (a INT, b REAL, c TEXT);
    CREATE INDEX i ON t (a);
    INSERT INTO t VALUES (1, 2.5, 'x'), (2, 3.5, 'y');
    SELECT a, b FROM t WHERE a >= 1 AND c LIKE 'x%' ORDER BY b DESC LIMIT 10;
    SELECT COUNT( * ), SUM(b), AVG(b), MIN(a), MAX(a) FROM t GROUP BY c;
    SELECT t.a, u.d FROM t JOIN u ON t.a = u.a;
    UPDATE t SET b = b + 1 WHERE a = 2;
    DELETE FROM t WHERE a < 0;
    DROP TABLE t;
    v} *)

type value = Int of int | Real of float | Text of string | Null

let value_to_key = function
  | Int n -> Btree.Kint n
  | Real x -> Btree.Kreal x
  | Text s -> Btree.Ktext s
  | Null -> Btree.Knull

let pp_value ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Real x -> Format.fprintf ppf "%g" x
  | Text s -> Format.fprintf ppf "'%s'" s
  | Null -> Format.fprintf ppf "NULL"

exception Sql_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Sql_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | Tident of string
  | Tint of int
  | Treal of float
  | Tstring of string
  | Tsym of string (* punctuation / operators *)
  | Teof

let keywords =
  [ "create"; "table"; "index"; "on"; "insert"; "into"; "values"; "select"; "from";
    "where"; "group"; "order"; "by"; "limit"; "join"; "update"; "set"; "delete";
    "drop"; "and"; "or"; "not"; "like"; "desc"; "asc"; "count"; "sum"; "avg";
    "min"; "max"; "int"; "integer"; "real"; "text"; "null"; "as"; "distinct" ]

let lex (input : string) : token list =
  let n = String.length input in
  let tokens = ref [] in
  let pos = ref 0 in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  while !pos < n do
    match input.[!pos] with
    | ' ' | '\t' | '\n' | '\r' -> advance ()
    | '\'' ->
      advance ();
      let b = Buffer.create 8 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string literal"
        | Some '\'' ->
          advance ();
          (* '' escapes a quote *)
          (match peek () with
          | Some '\'' ->
            Buffer.add_char b '\'';
            advance ();
            go ()
          | _ -> ())
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      tokens := Tstring (Buffer.contents b) :: !tokens
    | c when (c >= '0' && c <= '9') || (c = '-' && (match !tokens with Tsym _ :: _ | [] -> true | _ -> false) && !pos + 1 < n && input.[!pos + 1] >= '0' && input.[!pos + 1] <= '9') ->
      let start = !pos in
      if c = '-' then advance ();
      let is_real = ref false in
      while
        match peek () with
        | Some d when d >= '0' && d <= '9' ->
          advance ();
          true
        | Some '.' when not !is_real ->
          is_real := true;
          advance ();
          true
        | _ -> false
      do
        ()
      done;
      let s = String.sub input start (!pos - start) in
      tokens := (if !is_real then Treal (float_of_string s) else Tint (int_of_string s)) :: !tokens
    | c when is_ident_char c ->
      let start = !pos in
      while match peek () with Some d when is_ident_char d || d = '.' -> advance (); true | _ -> false do
        ()
      done;
      let s = String.lowercase_ascii (String.sub input start (!pos - start)) in
      tokens := Tident s :: !tokens
    | '<' | '>' | '!' when !pos + 1 < n && input.[!pos + 1] = '=' ->
      tokens := Tsym (String.sub input !pos 2) :: !tokens;
      advance ();
      advance ()
    | '<' when !pos + 1 < n && input.[!pos + 1] = '>' ->
      tokens := Tsym "<>" :: !tokens;
      advance ();
      advance ()
    | ('(' | ')' | ',' | ';' | '*' | '+' | '-' | '/' | '=' | '<' | '>') as c ->
      tokens := Tsym (String.make 1 c) :: !tokens;
      advance ()
    | c -> fail "unexpected character %C" c
  done;
  List.rev (Teof :: !tokens)

(* ------------------------------------------------------------------ *)
(* AST *)

type coltype = Cint | Creal | Ctext

type expr =
  | Elit of value
  | Ecol of string (* possibly qualified: "t.a" *)
  | Ebin of string * expr * expr (* +,-,*,/,=,<>,<,<=,>,>=,and,or *)
  | Enot of expr
  | Elike of expr * string

type agg = Count_star | Count of expr | Sum of expr | Avg of expr | Min of expr | Max of expr

type proj = Star | Pexpr of expr * string option | Pagg of agg * string option

type select = {
  projs : proj list;
  from_table : string;
  join : (string * expr) option; (* table, ON condition *)
  where : expr option;
  group_by : string option;
  order_by : (expr * bool) option; (* expr, descending *)
  limit : int option;
}

type stmt =
  | Create_table of string * (string * coltype) list
  | Create_index of string * string * string
  | Insert of string * value list list
  | Select_stmt of select
  | Update of string * (string * expr) list * expr option
  | Delete of string * expr option
  | Drop_table of string

(* ------------------------------------------------------------------ *)
(* Parser *)

type parser_state = { mutable toks : token list }

let peek_tok p = match p.toks with [] -> Teof | t :: _ -> t
let advance_tok p = match p.toks with [] -> () | _ :: rest -> p.toks <- rest

let expect_sym p s =
  match peek_tok p with
  | Tsym s' when String.equal s s' -> advance_tok p
  | t ->
    fail "expected %S, found %s" s
      (match t with
      | Tident x -> x
      | Tsym x -> x
      | Tint _ -> "<int>"
      | Treal _ -> "<real>"
      | Tstring _ -> "<string>"
      | Teof -> "<eof>")

let expect_kw p kw =
  match peek_tok p with
  | Tident x when String.equal x kw -> advance_tok p
  | _ -> fail "expected keyword %S" kw

let accept_kw p kw =
  match peek_tok p with
  | Tident x when String.equal x kw ->
    advance_tok p;
    true
  | _ -> false

let parse_ident p =
  match peek_tok p with
  | Tident x when not (List.mem x keywords) ->
    advance_tok p;
    x
  | Tident x ->
    (* allow keywords as identifiers where unambiguous *)
    advance_tok p;
    x
  | _ -> fail "expected identifier"

let rec parse_expr p = parse_or p

and parse_or p =
  let lhs = parse_and p in
  if accept_kw p "or" then Ebin ("or", lhs, parse_or p) else lhs

and parse_and p =
  let lhs = parse_cmp p in
  if accept_kw p "and" then Ebin ("and", lhs, parse_and p) else lhs

and parse_cmp p =
  let lhs = parse_add p in
  match peek_tok p with
  | Tsym (("=" | "<>" | "!=" | "<" | "<=" | ">" | ">=") as op) ->
    advance_tok p;
    let op = if String.equal op "!=" then "<>" else op in
    Ebin (op, lhs, parse_add p)
  | Tident "like" ->
    advance_tok p;
    (match peek_tok p with
    | Tstring pat ->
      advance_tok p;
      Elike (lhs, pat)
    | _ -> fail "LIKE expects a string literal")
  | _ -> lhs

and parse_add p =
  let rec go lhs =
    match peek_tok p with
    | Tsym (("+" | "-") as op) ->
      advance_tok p;
      go (Ebin (op, lhs, parse_mul p))
    | _ -> lhs
  in
  go (parse_mul p)

and parse_mul p =
  let rec go lhs =
    match peek_tok p with
    | Tsym (("*" | "/") as op) ->
      advance_tok p;
      go (Ebin (op, lhs, parse_atom p))
    | _ -> lhs
  in
  go (parse_atom p)

and parse_atom p =
  match peek_tok p with
  | Tint n ->
    advance_tok p;
    Elit (Int n)
  | Treal x ->
    advance_tok p;
    Elit (Real x)
  | Tstring s ->
    advance_tok p;
    Elit (Text s)
  | Tident "null" ->
    advance_tok p;
    Elit Null
  | Tident "not" ->
    advance_tok p;
    Enot (parse_atom p)
  | Tsym "(" ->
    advance_tok p;
    let e = parse_expr p in
    expect_sym p ")";
    e
  | Tident name ->
    advance_tok p;
    Ecol name
  | _ -> fail "expected expression"

let parse_agg_or_expr p : proj =
  let agg_of name =
    match name with
    | "count" -> Some (fun e -> Count e)
    | "sum" -> Some (fun e -> Sum e)
    | "avg" -> Some (fun e -> Avg e)
    | "min" -> Some (fun e -> Min e)
    | "max" -> Some (fun e -> Max e)
    | _ -> None
  in
  match p.toks with
  | Tident name :: Tsym "(" :: rest when agg_of name <> None ->
    p.toks <- rest;
    let mk = Option.get (agg_of name) in
    let agg =
      match peek_tok p with
      | Tsym "*" ->
        advance_tok p;
        if not (String.equal name "count") then fail "%s(*) is not valid" name;
        Count_star
      | _ -> mk (parse_expr p)
    in
    expect_sym p ")";
    let alias = if accept_kw p "as" then Some (parse_ident p) else None in
    Pagg (agg, alias)
  | Tsym "*" :: rest ->
    p.toks <- rest;
    Star
  | _ ->
    let e = parse_expr p in
    let alias = if accept_kw p "as" then Some (parse_ident p) else None in
    Pexpr (e, alias)

let parse_coltype p =
  match peek_tok p with
  | Tident ("int" | "integer") ->
    advance_tok p;
    Cint
  | Tident "real" ->
    advance_tok p;
    Creal
  | Tident "text" ->
    advance_tok p;
    Ctext
  | _ -> fail "expected column type"

let parse_value p =
  match peek_tok p with
  | Tint n ->
    advance_tok p;
    Int n
  | Treal x ->
    advance_tok p;
    Real x
  | Tstring s ->
    advance_tok p;
    Text s
  | Tident "null" ->
    advance_tok p;
    Null
  | Tsym "-" -> (
    advance_tok p;
    match peek_tok p with
    | Tint n ->
      advance_tok p;
      Int (-n)
    | Treal x ->
      advance_tok p;
      Real (-.x)
    | _ -> fail "expected number after '-'")
  | _ -> fail "expected literal value"

let parse_stmt_tokens p : stmt =
  match peek_tok p with
  | Tident "create" -> (
    advance_tok p;
    match peek_tok p with
    | Tident "table" ->
      advance_tok p;
      let name = parse_ident p in
      expect_sym p "(";
      let rec cols acc =
        let cname = parse_ident p in
        let ctype = parse_coltype p in
        if (match peek_tok p with Tsym "," -> true | _ -> false) then begin
          advance_tok p;
          cols ((cname, ctype) :: acc)
        end
        else List.rev ((cname, ctype) :: acc)
      in
      let columns = cols [] in
      expect_sym p ")";
      Create_table (name, columns)
    | Tident "index" ->
      advance_tok p;
      let iname = parse_ident p in
      expect_kw p "on";
      let tname = parse_ident p in
      expect_sym p "(";
      let col = parse_ident p in
      expect_sym p ")";
      Create_index (iname, tname, col)
    | _ -> fail "expected TABLE or INDEX after CREATE")
  | Tident "insert" ->
    advance_tok p;
    expect_kw p "into";
    let name = parse_ident p in
    expect_kw p "values";
    let rec rows acc =
      expect_sym p "(";
      let rec vals acc =
        let value = parse_value p in
        if (match peek_tok p with Tsym "," -> true | _ -> false) then begin
          advance_tok p;
          vals (value :: acc)
        end
        else List.rev (value :: acc)
      in
      let row = vals [] in
      expect_sym p ")";
      if (match peek_tok p with Tsym "," -> true | _ -> false) then begin
        advance_tok p;
        rows (row :: acc)
      end
      else List.rev (row :: acc)
    in
    Insert (name, rows [])
  | Tident "select" ->
    advance_tok p;
    ignore (accept_kw p "distinct");
    let rec projs acc =
      let proj = parse_agg_or_expr p in
      if (match peek_tok p with Tsym "," -> true | _ -> false) then begin
        advance_tok p;
        projs (proj :: acc)
      end
      else List.rev (proj :: acc)
    in
    let projections = projs [] in
    expect_kw p "from";
    let from_table = parse_ident p in
    let join =
      if accept_kw p "join" then begin
        let tname = parse_ident p in
        expect_kw p "on";
        Some (tname, parse_expr p)
      end
      else None
    in
    let where = if accept_kw p "where" then Some (parse_expr p) else None in
    let group_by =
      if accept_kw p "group" then begin
        expect_kw p "by";
        Some (parse_ident p)
      end
      else None
    in
    let order_by =
      if accept_kw p "order" then begin
        expect_kw p "by";
        let e = parse_expr p in
        let desc = if accept_kw p "desc" then true else (ignore (accept_kw p "asc"); false) in
        Some (e, desc)
      end
      else None
    in
    let limit =
      if accept_kw p "limit" then
        match peek_tok p with
        | Tint n ->
          advance_tok p;
          Some n
        | _ -> fail "LIMIT expects an integer"
      else None
    in
    Select_stmt { projs = projections; from_table; join; where; group_by; order_by; limit }
  | Tident "update" ->
    advance_tok p;
    let name = parse_ident p in
    expect_kw p "set";
    let rec sets acc =
      let col = parse_ident p in
      expect_sym p "=";
      let e = parse_expr p in
      if (match peek_tok p with Tsym "," -> true | _ -> false) then begin
        advance_tok p;
        sets ((col, e) :: acc)
      end
      else List.rev ((col, e) :: acc)
    in
    let assignments = sets [] in
    let where = if accept_kw p "where" then Some (parse_expr p) else None in
    Update (name, assignments, where)
  | Tident "delete" ->
    advance_tok p;
    expect_kw p "from";
    let name = parse_ident p in
    let where = if accept_kw p "where" then Some (parse_expr p) else None in
    Delete (name, where)
  | Tident "drop" ->
    advance_tok p;
    expect_kw p "table";
    Drop_table (parse_ident p)
  | _ -> fail "expected a statement"

let parse sql =
  let p = { toks = lex sql } in
  let stmt = parse_stmt_tokens p in
  (match peek_tok p with
  | Tsym ";" -> advance_tok p
  | _ -> ());
  (match peek_tok p with Teof -> () | _ -> fail "trailing tokens after statement");
  stmt

(* ------------------------------------------------------------------ *)
(* Storage *)

type table = {
  schema : (string * coltype) list;
  mutable rows : value array option array; (* None = deleted *)
  mutable row_count : int; (* high-water mark *)
  mutable live : int;
  indexes : (string, Btree.t) Hashtbl.t; (* column -> index *)
}

type t = { tables : (string, table) Hashtbl.t }

let create () = { tables = Hashtbl.create 8 }

let table_of t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> tbl
  | None -> fail "no such table: %s" name

let col_index tbl name =
  (* Accept both "a" and "t.a" shapes. *)
  let base = match String.rindex_opt name '.' with
    | Some k -> String.sub name (k + 1) (String.length name - k - 1)
    | None -> name
  in
  let rec go k = function
    | [] -> fail "no such column: %s" name
    | (c, _) :: rest -> if String.equal c base then k else go (k + 1) rest
  in
  go 0 tbl.schema

(* ------------------------------------------------------------------ *)
(* Expression evaluation *)

let is_truthy = function Int 0 | Null -> false | Int _ | Real _ | Text _ -> true
let bool_v b = Int (if b then 1 else 0)

let num_op name fi fr a b =
  match (a, b) with
  | Int x, Int y -> Int (fi x y)
  | (Int _ | Real _), (Int _ | Real _) ->
    let fx = function Int n -> float_of_int n | Real r -> r | _ -> 0.0 in
    Real (fr (fx a) (fx b))
  | Null, _ | _, Null -> Null
  | _ -> fail "type error in %s" name

let compare_values a b =
  Btree.compare_key (value_to_key a) (value_to_key b)

let like_match s pat =
  (* Only '%' wildcards, at the start and/or end — the Speedtest1
     shapes. *)
  let n = String.length pat in
  let starts_any = n > 0 && pat.[0] = '%' in
  let ends_any = n > 0 && pat.[n - 1] = '%' in
  let core =
    String.sub pat (if starts_any then 1 else 0)
      (n - (if starts_any then 1 else 0) - (if ends_any then 1 else 0))
  in
  let contains s sub =
    let sl = String.length s and bl = String.length sub in
    let rec go k = k + bl <= sl && (String.equal (String.sub s k bl) sub || go (k + 1)) in
    bl = 0 || go 0
  in
  match (starts_any, ends_any) with
  | false, false -> String.equal s core
  | false, true ->
    String.length s >= String.length core && String.equal (String.sub s 0 (String.length core)) core
  | true, false ->
    String.length s >= String.length core
    && String.equal (String.sub s (String.length s - String.length core) (String.length core)) core
  | true, true -> contains s core

let rec eval_expr (lookup : string -> value) = function
  | Elit v -> v
  | Ecol name -> lookup name
  | Enot e -> bool_v (not (is_truthy (eval_expr lookup e)))
  | Elike (e, pat) -> (
    match eval_expr lookup e with
    | Text s -> bool_v (like_match s pat)
    | Null -> Null
    | Int _ | Real _ -> fail "LIKE on a non-text value")
  | Ebin (op, a, b) -> (
    match op with
    | "and" -> bool_v (is_truthy (eval_expr lookup a) && is_truthy (eval_expr lookup b))
    | "or" -> bool_v (is_truthy (eval_expr lookup a) || is_truthy (eval_expr lookup b))
    | "+" -> num_op "+" ( + ) ( +. ) (eval_expr lookup a) (eval_expr lookup b)
    | "-" -> num_op "-" ( - ) ( -. ) (eval_expr lookup a) (eval_expr lookup b)
    | "*" -> num_op "*" ( * ) ( *. ) (eval_expr lookup a) (eval_expr lookup b)
    | "/" ->
      num_op "/"
        (fun x y -> if y = 0 then fail "division by zero" else x / y)
        (fun x y -> x /. y)
        (eval_expr lookup a) (eval_expr lookup b)
    | "=" | "<>" | "<" | "<=" | ">" | ">=" -> (
      let va = eval_expr lookup a and vb = eval_expr lookup b in
      match (va, vb) with
      | Null, _ | _, Null -> Null
      | _ ->
        let c = compare_values va vb in
        bool_v
          (match op with
          | "=" -> c = 0
          | "<>" -> c <> 0
          | "<" -> c < 0
          | "<=" -> c <= 0
          | ">" -> c > 0
          | ">=" -> c >= 0
          | _ -> assert false))
    | op -> fail "unknown operator %s" op)

(* ------------------------------------------------------------------ *)
(* Execution *)

type result = { columns : string list; rows_out : value array list }

let empty_result = { columns = []; rows_out = [] }

let grow_rows tbl =
  let cap = Array.length tbl.rows in
  if tbl.row_count >= cap then begin
    let fresh = Array.make (max 16 (2 * cap)) None in
    Array.blit tbl.rows 0 fresh 0 cap;
    tbl.rows <- fresh
  end

let insert_row t name (values : value list) =
  let tbl = table_of t name in
  if List.length values <> List.length tbl.schema then
    fail "insert into %s: expected %d values, got %d" name (List.length tbl.schema)
      (List.length values);
  grow_rows tbl;
  let row = Array.of_list values in
  let rowid = tbl.row_count in
  tbl.rows.(rowid) <- Some row;
  tbl.row_count <- rowid + 1;
  tbl.live <- tbl.live + 1;
  Hashtbl.iter
    (fun col idx -> Btree.insert idx (value_to_key row.(col_index tbl col)) rowid)
    tbl.indexes;
  rowid

(* The planner: candidate row ids for a WHERE clause, using an index
   for [col = lit] / [col < lit] etc. when available; otherwise a full
   scan. *)
let candidate_rowids tbl where =
  let all () = List.init tbl.row_count (fun k -> k) in
  match where with
  | Some (Ebin ("=", Ecol c, Elit v)) | Some (Ebin ("=", Elit v, Ecol c)) -> (
    match Hashtbl.find_opt tbl.indexes c with
    | Some idx -> Btree.find idx (value_to_key v)
    | None -> all ())
  | Some (Ebin ("and", Ebin (">=", Ecol c, Elit lo), Ebin ("<=", Ecol c2, Elit hi)))
    when String.equal c c2 -> (
    match Hashtbl.find_opt tbl.indexes c with
    | Some idx -> Btree.range idx ~lo:(value_to_key lo) ~hi:(value_to_key hi)
    | None -> all ())
  | _ -> all ()

let row_lookup tbl ?(prefix = "") row name =
  let name =
    if String.length prefix > 0 && String.length name > String.length prefix
       && String.equal (String.sub name 0 (String.length prefix)) prefix
    then name
    else name
  in
  row.(col_index tbl name)

let matching_rows t (sel : select) : (string -> value) list =
  let tbl = table_of t sel.from_table in
  match sel.join with
  | None ->
    candidate_rowids tbl sel.where
    |> List.filter_map (fun rowid ->
           if rowid >= tbl.row_count then None
           else
             match tbl.rows.(rowid) with
             | None -> None
             | Some row ->
               let lookup name = row_lookup tbl row name in
               let keep =
                 match sel.where with
                 | None -> true
                 | Some w -> is_truthy (eval_expr lookup w)
               in
               if keep then Some lookup else None)
  | Some (right_name, on_expr) ->
    let right = table_of t right_name in
    let results = ref [] in
    for lid = 0 to tbl.row_count - 1 do
      match tbl.rows.(lid) with
      | None -> ()
      | Some lrow ->
        for rid = 0 to right.row_count - 1 do
          match right.rows.(rid) with
          | None -> ()
          | Some rrow ->
            let lookup name =
              (* Prefer qualified resolution; fall back left-then-right. *)
              match String.index_opt name '.' with
              | Some k ->
                let qualifier = String.sub name 0 k in
                if String.equal qualifier sel.from_table then row_lookup tbl lrow name
                else if String.equal qualifier right_name then row_lookup right rrow name
                else fail "unknown table qualifier %s" qualifier
              | None -> (
                match col_index tbl name with
                | idx -> lrow.(idx)
                | exception Sql_error _ -> row_lookup right rrow name)
            in
            let keep_on = is_truthy (eval_expr lookup on_expr) in
            let keep_where =
              match sel.where with None -> true | Some w -> is_truthy (eval_expr lookup w)
            in
            if keep_on && keep_where then results := lookup :: !results
        done
    done;
    List.rev !results

let agg_name = function
  | Count_star -> "count(*)"
  | Count _ -> "count"
  | Sum _ -> "sum"
  | Avg _ -> "avg"
  | Min _ -> "min"
  | Max _ -> "max"

let eval_agg rows agg =
  let values e = List.filter_map (fun lookup ->
      match eval_expr lookup e with Null -> None | value -> Some value) rows
  in
  let to_float = function Int n -> float_of_int n | Real x -> x | _ -> 0.0 in
  match agg with
  | Count_star -> Int (List.length rows)
  | Count e -> Int (List.length (values e))
  | Sum e -> (
    let vs = values e in
    if vs = [] then Null
    else if List.for_all (function Int _ -> true | _ -> false) vs then
      Int (List.fold_left (fun acc value -> acc + (match value with Int n -> n | _ -> 0)) 0 vs)
    else Real (List.fold_left (fun acc value -> acc +. to_float value) 0.0 vs))
  | Avg e -> (
    let vs = values e in
    if vs = [] then Null
    else Real (List.fold_left (fun acc value -> acc +. to_float value) 0.0 vs /. float_of_int (List.length vs)))
  | Min e -> (
    match values e with
    | [] -> Null
    | first :: rest -> List.fold_left (fun m value -> if compare_values value m < 0 then value else m) first rest)
  | Max e -> (
    match values e with
    | [] -> Null
    | first :: rest -> List.fold_left (fun m value -> if compare_values value m > 0 then value else m) first rest)

(* Static column check (non-join selects), so that references to
   missing columns fail even on empty tables, as in SQLite. *)
let rec check_expr_columns tbl = function
  | Elit _ -> ()
  | Ecol name -> ignore (col_index tbl name)
  | Enot e | Elike (e, _) -> check_expr_columns tbl e
  | Ebin (_, a, b) ->
    check_expr_columns tbl a;
    check_expr_columns tbl b

let check_select_columns t (sel : select) =
  match sel.join with
  | Some _ -> () (* qualified references are resolved per row *)
  | None ->
    let tbl = table_of t sel.from_table in
    List.iter
      (function
        | Star -> ()
        | Pexpr (e, _) -> check_expr_columns tbl e
        | Pagg (Count_star, _) -> ()
        | Pagg ((Count e | Sum e | Avg e | Min e | Max e), _) -> check_expr_columns tbl e)
      sel.projs;
    Option.iter (check_expr_columns tbl) sel.where;
    Option.iter (fun c -> ignore (col_index tbl c)) sel.group_by;
    Option.iter (fun (e, _) -> check_expr_columns tbl e) sel.order_by

let exec_select t (sel : select) : result =
  check_select_columns t sel;
  let rows = matching_rows t sel in
  let has_agg = List.exists (function Pagg _ -> true | Star | Pexpr _ -> false) sel.projs in
  let tbl = table_of t sel.from_table in
  let expand_star () = List.map fst tbl.schema in
  if has_agg || sel.group_by <> None then begin
    let groups =
      match sel.group_by with
      | None -> if rows = [] && sel.group_by = None then [ (Null, rows) ] else [ (Null, rows) ]
      | Some col ->
        let tblg = Hashtbl.create 16 in
        let order = ref [] in
        List.iter
          (fun lookup ->
            let key = lookup col in
            if not (Hashtbl.mem tblg key) then order := key :: !order;
            Hashtbl.replace tblg key (lookup :: (try Hashtbl.find tblg key with Not_found -> [])))
          rows;
        List.rev_map (fun key -> (key, List.rev (Hashtbl.find tblg key))) !order |> List.rev
    in
    let columns =
      List.map
        (function
          | Star -> "*"
          | Pexpr (Ecol c, None) -> c
          | Pexpr (_, Some a) | Pagg (_, Some a) -> a
          | Pexpr (_, None) -> "expr"
          | Pagg (a, None) -> agg_name a)
        sel.projs
    in
    let rows_out =
      List.map
        (fun (gkey, grows) ->
          Array.of_list
            (List.map
               (function
                 | Star -> gkey
                 | Pexpr (e, _) -> (
                   match grows with [] -> Null | lookup :: _ -> eval_expr lookup e)
                 | Pagg (a, _) -> eval_agg grows a)
               sel.projs))
        groups
    in
    { columns; rows_out }
  end
  else begin
    let columns =
      List.concat_map
        (function
          | Star -> expand_star ()
          | Pexpr (Ecol c, None) -> [ c ]
          | Pexpr (_, Some a) | Pagg (_, Some a) -> [ a ]
          | Pexpr (_, None) -> [ "expr" ]
          | Pagg (a, None) -> [ agg_name a ])
        sel.projs
    in
    let project lookup =
      Array.of_list
        (List.concat_map
           (function
             | Star -> List.map (fun (c, _) -> lookup c) tbl.schema
             | Pexpr (e, _) -> [ eval_expr lookup e ]
             | Pagg _ -> assert false)
           sel.projs)
    in
    let rows_out = List.map project rows in
    let rows_out =
      match sel.order_by with
      | None -> rows_out
      | Some (key_expr, desc) ->
        let keyed =
          List.map2
            (fun lookup out -> (eval_expr lookup key_expr, out))
            rows rows_out
        in
        let sorted = List.stable_sort (fun (a, _) (b, _) -> compare_values a b) keyed in
        let sorted = if desc then List.rev sorted else sorted in
        List.map snd sorted
    in
    let rows_out =
      match sel.limit with
      | None -> rows_out
      | Some n -> List.filteri (fun k _ -> k < n) rows_out
    in
    { columns; rows_out }
  end

let exec_update t name assignments where =
  let tbl = table_of t name in
  let n_updated = ref 0 in
  let targets = candidate_rowids tbl where in
  List.iter
    (fun rowid ->
      if rowid < tbl.row_count then
        match tbl.rows.(rowid) with
        | None -> ()
        | Some row ->
          let lookup cname = row_lookup tbl row cname in
          let keep = match where with None -> true | Some w -> is_truthy (eval_expr lookup w) in
          if keep then begin
            incr n_updated;
            List.iter
              (fun (col, e) ->
                let ci = col_index tbl col in
                let old_v = row.(ci) in
                let new_v = eval_expr lookup e in
                row.(ci) <- new_v;
                match Hashtbl.find_opt tbl.indexes col with
                | Some idx ->
                  Btree.remove idx (value_to_key old_v) rowid;
                  Btree.insert idx (value_to_key new_v) rowid
                | None -> ())
              assignments
          end)
    targets;
  !n_updated

let exec_delete t name where =
  let tbl = table_of t name in
  let n_deleted = ref 0 in
  let targets = candidate_rowids tbl where in
  List.iter
    (fun rowid ->
      if rowid < tbl.row_count then
        match tbl.rows.(rowid) with
        | None -> ()
        | Some row ->
          let lookup cname = row_lookup tbl row cname in
          let keep = match where with None -> true | Some w -> is_truthy (eval_expr lookup w) in
          if keep then begin
            incr n_deleted;
            tbl.live <- tbl.live - 1;
            Hashtbl.iter
              (fun col idx -> Btree.remove idx (value_to_key row.(col_index tbl col)) rowid)
              tbl.indexes;
            tbl.rows.(rowid) <- None
          end)
    targets;
  !n_deleted

(** Execute one SQL statement. *)
let exec t sql : result =
  match parse sql with
  | Create_table (name, schema) ->
    if Hashtbl.mem t.tables name then fail "table %s already exists" name;
    if schema = [] then fail "table %s needs at least one column" name;
    Hashtbl.replace t.tables name
      { schema; rows = Array.make 16 None; row_count = 0; live = 0; indexes = Hashtbl.create 2 };
    empty_result
  | Create_index (_iname, tname, col) ->
    let tbl = table_of t tname in
    ignore (col_index tbl col);
    if Hashtbl.mem tbl.indexes col then fail "column %s already indexed" col;
    let idx = Btree.create () in
    for rowid = 0 to tbl.row_count - 1 do
      match tbl.rows.(rowid) with
      | Some row -> Btree.insert idx (value_to_key row.(col_index tbl col)) rowid
      | None -> ()
    done;
    Hashtbl.replace tbl.indexes col idx;
    empty_result
  | Insert (name, rows) ->
    List.iter (fun row -> ignore (insert_row t name row)) rows;
    empty_result
  | Select_stmt sel -> exec_select t sel
  | Update (name, assignments, where) ->
    ignore (exec_update t name assignments where);
    empty_result
  | Delete (name, where) ->
    ignore (exec_delete t name where);
    empty_result
  | Drop_table name ->
    if not (Hashtbl.mem t.tables name) then fail "no such table: %s" name;
    Hashtbl.remove t.tables name;
    empty_result

(** Render a result like the sqlite3 shell ('|'-separated rows). *)
let render (r : result) =
  let b = Buffer.create 256 in
  List.iter
    (fun row ->
      Buffer.add_string b
        (String.concat "|"
           (Array.to_list
              (Array.map (fun value -> Format.asprintf "%a" pp_value value) row)));
      Buffer.add_char b '\n')
    r.rows_out;
  Buffer.contents b
