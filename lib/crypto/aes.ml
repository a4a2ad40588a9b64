(* FIPS 197, encryption only, on 32-bit T-tables in native ints.

   A column of the state is one big-endian word in the low 32 bits of
   an int, so a round is sixteen table lookups and XORs on four local
   ints: no array state, no allocation per block. Only two kinds of
   lookup skip the bounds check: a table index is a byte taken with
   [land 0xff], plus a row offset of 256, 512 or 768 in the 1024-entry
   T-table, so always inside its table; and the round loop reads
   schedule words 4 to 4 * rounds - 1 of the 4 * (rounds + 1) that
   [expand_key] writes. *)

let mask32 = 0xffffffff

let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then (b lxor 0x1b) land 0xff else b

(* GF(2^8) multiplication with the AES polynomial x^8+x^4+x^3+x+1. *)
let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else go (xtime a) (b lsr 1) (if b land 1 = 1 then acc lxor a else acc)
  in
  go a b 0

(* The S-box is the GF inverse followed by the FIPS affine transform
   b ^ rot1(b) ^ rot2(b) ^ rot3(b) ^ rot4(b) ^ 0x63. *)
let sbox =
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gmul a b = 1 then inv.(a) <- b
    done
  done;
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
  Array.init 256 (fun a ->
      let b = inv.(a) in
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

(* te.(x) is the MixColumns column (2s, s, s, 3s) of s = S(x), most
   significant byte first; te.(256k + x) is it rotated right by 8k
   bits, one quarter per row so a round needs no rotations. One array
   keeps the four rows behind one base register. *)
let te =
  let rotr w n = ((w lsr n) lor (w lsl (32 - n))) land mask32 in
  let t0 =
    Array.map (fun s -> (xtime s lsl 24) lor (s lsl 16) lor (s lsl 8) lor (xtime s lxor s)) sbox
  in
  Array.init 1024 (fun i -> rotr t0.(i land 0xff) (8 * (i lsr 8)))

(* rk holds the 4 * (rounds + 1) schedule words. *)
type key = { rounds : int; rk : int array }

let sub_word w =
  (Array.unsafe_get sbox ((w lsr 24) land 0xff) lsl 24)
  lor (Array.unsafe_get sbox ((w lsr 16) land 0xff) lsl 16)
  lor (Array.unsafe_get sbox ((w lsr 8) land 0xff) lsl 8)
  lor Array.unsafe_get sbox (w land 0xff)

let expand_key key_bytes =
  let nk =
    match String.length key_bytes with
    | 16 -> 4
    | 24 -> 6
    | 32 -> 8
    | _ -> invalid_arg "Aes.expand_key: key must be 16, 24 or 32 bytes"
  in
  let rounds = nk + 6 in
  let rk = Array.make (4 * (rounds + 1)) 0 in
  for i = 0 to nk - 1 do
    rk.(i) <- Int32.to_int (String.get_int32_be key_bytes (4 * i)) land mask32
  done;
  let rcon = ref 1 in
  for i = nk to Array.length rk - 1 do
    let temp = rk.(i - 1) in
    let temp =
      if i mod nk = 0 then begin
        (* RotWord then SubWord then Rcon. *)
        let t = sub_word (((temp lsl 8) lor (temp lsr 24)) land mask32) lxor (!rcon lsl 24) in
        rcon := xtime !rcon;
        t
      end
      else if nk > 6 && i mod nk = 4 then sub_word temp
      else temp
    in
    rk.(i) <- rk.(i - nk) lxor temp
  done;
  { rounds; rk }

let load b off = Int32.to_int (Bytes.get_int32_be b off) land mask32

(* The one round body. The input block arrives as four big-endian
   words, so a caller that has its block as ints (GCM's counter) needs
   no bytes; the output is stored big-endian at [dst.[doff]]. *)
let encrypt_words { rounds; rk } w0 w1 w2 w3 dst doff =
  let s0 = ref (w0 lxor rk.(0)) and s1 = ref (w1 lxor rk.(1)) in
  let s2 = ref (w2 lxor rk.(2)) and s3 = ref (w3 lxor rk.(3)) in
  for r = 1 to rounds - 1 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    let k = 4 * r in
    s0 :=
      Array.unsafe_get te ((a0 lsr 24) land 0xff)
      lxor Array.unsafe_get te (256 + ((a1 lsr 16) land 0xff))
      lxor Array.unsafe_get te (512 + ((a2 lsr 8) land 0xff))
      lxor Array.unsafe_get te (768 + (a3 land 0xff))
      lxor Array.unsafe_get rk k;
    s1 :=
      Array.unsafe_get te ((a1 lsr 24) land 0xff)
      lxor Array.unsafe_get te (256 + ((a2 lsr 16) land 0xff))
      lxor Array.unsafe_get te (512 + ((a3 lsr 8) land 0xff))
      lxor Array.unsafe_get te (768 + (a0 land 0xff))
      lxor Array.unsafe_get rk (k + 1);
    s2 :=
      Array.unsafe_get te ((a2 lsr 24) land 0xff)
      lxor Array.unsafe_get te (256 + ((a3 lsr 16) land 0xff))
      lxor Array.unsafe_get te (512 + ((a0 lsr 8) land 0xff))
      lxor Array.unsafe_get te (768 + (a1 land 0xff))
      lxor Array.unsafe_get rk (k + 2);
    s3 :=
      Array.unsafe_get te ((a3 lsr 24) land 0xff)
      lxor Array.unsafe_get te (256 + ((a0 lsr 16) land 0xff))
      lxor Array.unsafe_get te (512 + ((a1 lsr 8) land 0xff))
      lxor Array.unsafe_get te (768 + (a2 land 0xff))
      lxor Array.unsafe_get rk (k + 3)
  done;
  (* The last round has no MixColumns: plain S-box bytes. *)
  let last a b c d k =
    (Array.unsafe_get sbox ((a lsr 24) land 0xff) lsl 24)
    lor (Array.unsafe_get sbox ((b lsr 16) land 0xff) lsl 16)
    lor (Array.unsafe_get sbox ((c lsr 8) land 0xff) lsl 8)
    lor Array.unsafe_get sbox (d land 0xff)
    lxor k
  in
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  let k = 4 * rounds in
  let o0 = last a0 a1 a2 a3 rk.(k) and o1 = last a1 a2 a3 a0 rk.(k + 1) in
  let o2 = last a2 a3 a0 a1 rk.(k + 2) and o3 = last a3 a0 a1 a2 rk.(k + 3) in
  Bytes.set_int32_be dst doff (Int32.of_int o0);
  Bytes.set_int32_be dst (doff + 4) (Int32.of_int o1);
  Bytes.set_int32_be dst (doff + 8) (Int32.of_int o2);
  Bytes.set_int32_be dst (doff + 12) (Int32.of_int o3)

let encrypt_into key src soff dst doff =
  encrypt_words key (load src soff) (load src (soff + 4)) (load src (soff + 8))
    (load src (soff + 12)) dst doff
