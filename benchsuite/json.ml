(* Just enough JSON for BENCHMARK.json and the suite's own result
   records: a value type, a parser, and string quoting. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\r' || s.[!pos] = '\t') then begin
      incr pos;
      ws ()
    end
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          ws ();
          let k = str () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f when !pos > start -> Num f
      | _ -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let member_exn k v =
  match member k v with Some x -> x | None -> raise (Error ("missing key " ^ k))

let to_string = function Str s -> s | _ -> raise (Error "expected a string")
let to_float = function Num f -> f | _ -> raise (Error "expected a number")
let to_list = function Arr l -> l | _ -> raise (Error "expected an array")
let to_assoc = function Obj l -> l | _ -> raise (Error "expected an object")

let read_file path = parse (In_channel.with_open_bin path In_channel.input_all)

let quote s = "\"" ^ Watz_obs.Export.escape s ^ "\""

(* Every digit: 17 significant figures round-trip an IEEE double. JSON
   has no NaN or infinity; those become null. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f
