(* Left-shift a 16-byte string by one bit. *)
let shl1 s =
  let out = Bytes.create 16 in
  let carry = ref 0 in
  for i = 15 downto 0 do
    let v = (Char.code s.[i] lsl 1) lor !carry in
    Bytes.set out i (Char.chr (v land 0xff));
    carry := v lsr 8
  done;
  (Bytes.to_string out, !carry)

let subkey l =
  let shifted, msb = shl1 l in
  if msb = 1 then
    String.mapi (fun i c -> if i = 15 then Char.chr (Char.code c lxor 0x87) else c) shifted
  else shifted

(* Prepared key: the expanded AES schedule and both subkeys, derived
   once instead of per call. The Kdf derives several labels under one
   KDK this way; protocol messages are MACed with the one-shot {!mac}. *)
type key = { aes : Aes.key; k1 : string; k2 : string }

let prepare k =
  if String.length k <> 16 then invalid_arg "Cmac.prepare: key must be 16 bytes";
  let aes = Aes.expand_key k in
  let l = Bytes.make 16 '\000' in
  Aes.encrypt_into aes l 0 l 0;
  let k1 = subkey (Bytes.unsafe_to_string l) in
  { aes; k1; k2 = subkey k1 }

(* x <- x xor s.[off .. off+15], as two 8-byte words. *)
let xor_into x s off =
  Bytes.set_int64_ne x 0 (Int64.logxor (Bytes.get_int64_ne x 0) (String.get_int64_ne s off));
  Bytes.set_int64_ne x 8 (Int64.logxor (Bytes.get_int64_ne x 8) (String.get_int64_ne s (off + 8)))

(* The CBC chain runs in place over one 16-byte state. *)
let mac_with { aes; k1; k2 } msg =
  let len = String.length msg in
  let n_blocks = if len = 0 then 1 else (len + 15) / 16 in
  let x = Bytes.make 16 '\000' in
  for i = 0 to n_blocks - 2 do
    xor_into x msg (16 * i);
    Aes.encrypt_into aes x 0 x 0
  done;
  let base = 16 * (n_blocks - 1) in
  let rem = len - base in
  if len > 0 && rem = 16 then begin
    xor_into x msg base;
    xor_into x k1 0
  end
  else begin
    (* incomplete last block: pad with 0x80 0x00 ... and use K2 *)
    for j = 0 to rem - 1 do
      Bytes.set x j (Char.chr (Char.code (Bytes.get x j) lxor Char.code msg.[base + j]))
    done;
    Bytes.set x rem (Char.chr (Char.code (Bytes.get x rem) lxor 0x80));
    xor_into x k2 0
  end;
  Aes.encrypt_into aes x 0 x 0;
  Bytes.unsafe_to_string x

let mac ~key msg =
  if String.length key <> 16 then invalid_arg "Cmac.mac: key must be 16 bytes";
  mac_with (prepare key) msg

let verify ~key ~tag msg =
  let expected = mac ~key msg in
  let diff = ref (String.length tag lxor 16) in
  String.iteri
    (fun i c -> if i < 16 then diff := !diff lor (Char.code c lxor Char.code expected.[i]))
    tag;
  !diff = 0
