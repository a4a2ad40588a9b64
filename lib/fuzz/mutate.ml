(** Byte-level mutation for decoder/validator fuzzing.

    Operates on encoded module bytes (or any protocol message): the
    output is *usually* garbage, which is the point — the oracle in
    {!Diff.run_bytes} only demands a typed verdict, never a crash.
    Besides generic bit/byte noise it knows the two encodings most
    likely to hide decoder bugs: LEB128 (overlong / non-terminated
    continuation runs) and section framing (truncation, length skew). *)

module Prng = Watz_util.Prng

let clamp_len s = if String.length s > 1 lsl 20 then String.sub s 0 (1 lsl 20) else s

let bit_flip rng s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  if n = 0 then s
  else begin
    let i = Prng.int rng n in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)));
    Bytes.to_string b
  end

let byte_set rng s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  if n = 0 then s
  else begin
    let interesting = [| 0x00; 0x01; 0x7f; 0x80; 0xff; 0xfe; 0x0b (* end *); 0x40 |] in
    let v =
      if Prng.bool rng then interesting.(Prng.int rng (Array.length interesting))
      else Prng.int rng 256
    in
    Bytes.set b (Prng.int rng n) (Char.chr v);
    Bytes.to_string b
  end

let truncate rng s =
  let n = String.length s in
  if n <= 1 then s else String.sub s 0 (1 + Prng.int rng (n - 1))

let insert rng s =
  let n = String.length s in
  let i = if n = 0 then 0 else Prng.int rng (n + 1) in
  let len = 1 + Prng.int rng 8 in
  String.sub s 0 i ^ Prng.bytes rng len ^ String.sub s i (n - i)

let delete rng s =
  let n = String.length s in
  if n <= 1 then s
  else begin
    let i = Prng.int rng n in
    let len = 1 + Prng.int rng (min 8 (n - i)) in
    String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
  end

let duplicate rng s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let i = Prng.int rng n in
    let len = 1 + Prng.int rng (min 16 (n - i)) in
    let chunk = String.sub s i len in
    let j = Prng.int rng (n + 1) in
    clamp_len (String.sub s 0 j ^ chunk ^ String.sub s j (n - j))
  end

(* Overwrite a span with 0x80 continuation bytes: a classic overlong /
   never-terminating LEB128 probe (must raise a typed decode error, not
   spin or throw Invalid_argument). *)
let leb_abuse rng s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = Prng.int rng n in
    let len = min (1 + Prng.int rng 12) (n - i) in
    for k = i to i + len - 1 do
      Bytes.set b k '\x80'
    done;
    (* sometimes terminate the run with a large final byte *)
    if Prng.bool rng && i + len < n then Bytes.set b (i + len) '\x7f';
    Bytes.to_string b
  end

let mutators = [| bit_flip; byte_set; truncate; insert; delete; duplicate; leb_abuse |]

(** [mutate rng s] applies 1–4 random mutations. *)
let mutate rng s =
  let rounds = 1 + Prng.int rng 4 in
  let out = ref s in
  for _ = 1 to rounds do
    out := mutators.(Prng.int rng (Array.length mutators)) rng !out
  done;
  !out
