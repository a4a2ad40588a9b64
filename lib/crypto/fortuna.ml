type t = {
  mutable key : string; (* 32 bytes *)
  counter : Bytes.t; (* 16-byte little-endian block counter *)
}

let increment_counter t =
  let rec bump i =
    if i < 16 then begin
      let v = Char.code (Bytes.get t.counter i) + 1 in
      Bytes.set t.counter i (Char.chr (v land 0xff));
      if v > 0xff then bump (i + 1)
    end
  in
  bump 0

(* Fortuna's reseed, [key <- SHA-256(key || seed)], from the all-zero
   key, then one counter step. *)
let of_seed seed =
  let t =
    { key = Sha256.digest_list [ String.make 32 '\000'; seed ]; counter = Bytes.make 16 '\000' }
  in
  increment_counter t;
  t

(* [count] counter-mode blocks, encrypted straight into [out]. *)
let generate_into t aes out count =
  for i = 0 to count - 1 do
    Aes.encrypt_into aes t.counter 0 out (16 * i);
    increment_counter t
  done

let generate t n =
  if n < 0 || n > 1 lsl 20 then invalid_arg "Fortuna.generate: request too large";
  let aes = Aes.expand_key t.key in
  let blocks = (n + 15) / 16 in
  let data = Bytes.create (16 * blocks) in
  generate_into t aes data blocks;
  (* Rekey so that a later state compromise cannot reveal past output. *)
  let key = Bytes.create 32 in
  generate_into t aes key 2;
  t.key <- Bytes.unsafe_to_string key;
  Bytes.sub_string data 0 n
