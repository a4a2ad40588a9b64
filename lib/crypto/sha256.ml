(* FIPS 180-4 on native unboxed ints.

   Words live in the low 32 bits of OCaml's 63-bit int, so the compress
   loop runs entirely on immediate values: no Int32 boxing, no
   allocation per round. Sums are left unmasked until a value feeds a
   rotation or is stored (five 32-bit terms stay far below 2^63). *)

let mask = 0xffffffff

type ctx = {
  h : int array; (* 8 words, always masked to 32 bits *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes: a native int, so updates never box *)
}

let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
            0x1f83d9ab; 0x5be0cd19 |]

let init () = { h = Array.copy iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

let blit src dst =
  Array.blit src.h 0 dst.h 0 8;
  Bytes.blit src.buf 0 dst.buf 0 src.buf_len;
  dst.buf_len <- src.buf_len;
  dst.total <- src.total

(* Round constants (FIPS 180-4 §4.2.2). *)
let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
     0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
     0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
     0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
     0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
     0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
     0xc67178f2 |]

(* The block transform. What keeps its tagged-int op count low:
   - every chain value (working variable, schedule word, state word)
     is masked to 32 bits exactly once, at creation, so intermediate
     sums may carry garbage above bit 31 (adds, xors and ands cannot
     push garbage down into the low 32 bits);
   - each rotation set reads one 64-bit duplicate (m lor m lsl 32),
     making every rotr a single shift off the duplicate;
   - message words arrive eight bytes at a time through the raw
     64-bit load + byte-swap primitives (the int64 stays unboxed
     across the shift/to_int chain), two words per load;
   - maj reuses the previous round's a-xor-b: maj(a,b,c) =
     b lxor ((a lxor b) land (b lxor c)), and b lxor c this round is
     a lxor b of the round before;
   - T1 and T2 add their Σ term last: Σ0(a) and Σ1(e) are the longest
     paths from the previous round's a and e, so the other terms are
     summed while they compute;
   - [rounds] is closed and top-level, so its self tail call is a jump
     and nothing is allocated (a local function closing over the
     schedule would allocate a closure per block).
   Correctness is pinned by the NIST vectors and the differential
   suite against Refcrypto. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The 64-word message schedule. Domain-local because fleet shards
   hash concurrently. *)
let schedule = Domain.DLS.new_key (fun () -> Array.make 64 0)

(* Loads the block's 16 big-endian words and extends them to 64. *)
let expand w block off =
  for j = 0 to 7 do
    let r = bswap64 (get64u block (off + (8 * j))) in
    Array.unsafe_set w (2 * j) (Int64.to_int (Int64.shift_right_logical r 32));
    Array.unsafe_set w ((2 * j) + 1) (Int64.to_int r land mask)
  done;
  for i = 16 to 63 do
    let p = Array.unsafe_get w (i - 15) and q = Array.unsafe_get w (i - 2) in
    let dp = p lor (p lsl 32) and dq = q lor (q lsl 32) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16)
       + ((dp lsr 7) lxor (dp lsr 18) lxor (p lsr 3))
       + Array.unsafe_get w (i - 7)
       + ((dq lsr 17) lxor (dq lsr 19) lxor (q lsr 10)))
      land mask)
  done

(* T1 = h + K_i + W_i + Ch(e, f, g) + Σ1(e), unmasked. *)
let[@inline] t1 w i e f g h =
  let d = e lor (e lsl 32) in
  h + Array.unsafe_get k i + Array.unsafe_get w i + (g lxor (e land (f lxor g)))
  + ((d lsr 6) lxor (d lsr 11) lxor (d lsr 25))

(* T2 = Maj(a, b, c) + Σ0(a), unmasked, given ab = a lxor b and
   bc = b lxor c. *)
let[@inline] t2 a b ab bc =
  let d = a lor (a lsl 32) in
  (b lxor (ab land bc)) + ((d lsr 2) lxor (d lsr 13) lxor (d lsr 22))

(* Rounds i .. i+7, then the next eight; after round 63 the working
   variables are added into the state [hst]. Each round binds only the
   new a and the new e, under the names of the two values it retires
   (old h and old d), so the roles rotate by renaming and after eight
   rounds every variable is back under its own name. *)
let rec rounds hst w i a b c d e f g h =
  let t = t1 w i e f g h and ab = a lxor b in
  let h = (t + t2 a b ab (b lxor c)) land mask and d = (d + t) land mask in
  let t = t1 w (i + 1) d e f g and ha = h lxor a in
  let g = (t + t2 h a ha ab) land mask and c = (c + t) land mask in
  let t = t1 w (i + 2) c d e f and gh = g lxor h in
  let f = (t + t2 g h gh ha) land mask and b = (b + t) land mask in
  let t = t1 w (i + 3) b c d e and fg = f lxor g in
  let e = (t + t2 f g fg gh) land mask and a = (a + t) land mask in
  let t = t1 w (i + 4) a b c d and ef = e lxor f in
  let d = (t + t2 e f ef fg) land mask and h = (h + t) land mask in
  let t = t1 w (i + 5) h a b c and de = d lxor e in
  let c = (t + t2 d e de ef) land mask and g = (g + t) land mask in
  let t = t1 w (i + 6) g h a b and cd = c lxor d in
  let b = (t + t2 c d cd de) land mask and f = (f + t) land mask in
  let t = t1 w (i + 7) f g h a and bc = b lxor c in
  let a = (t + t2 b c bc cd) land mask and e = (e + t) land mask in
  if i < 56 then rounds hst w (i + 8) a b c d e f g h
  else begin
    Array.unsafe_set hst 0 ((Array.unsafe_get hst 0 + a) land mask);
    Array.unsafe_set hst 1 ((Array.unsafe_get hst 1 + b) land mask);
    Array.unsafe_set hst 2 ((Array.unsafe_get hst 2 + c) land mask);
    Array.unsafe_set hst 3 ((Array.unsafe_get hst 3 + d) land mask);
    Array.unsafe_set hst 4 ((Array.unsafe_get hst 4 + e) land mask);
    Array.unsafe_set hst 5 ((Array.unsafe_get hst 5 + f) land mask);
    Array.unsafe_set hst 6 ((Array.unsafe_get hst 6 + g) land mask);
    Array.unsafe_set hst 7 ((Array.unsafe_get hst 7 + h) land mask)
  end

let compress ctx block off =
  let w = Domain.DLS.get schedule and hst = ctx.h in
  expand w block off;
  rounds hst w 0 (Array.unsafe_get hst 0) (Array.unsafe_get hst 1) (Array.unsafe_get hst 2)
    (Array.unsafe_get hst 3) (Array.unsafe_get hst 4) (Array.unsafe_get hst 5)
    (Array.unsafe_get hst 6) (Array.unsafe_get hst 7)

let update_bytes ctx b pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Sha256.update_bytes: slice out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref pos and rem = ref len in
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) !rem in
    Bytes.blit b !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    rem := !rem - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !rem >= 64 do
    compress ctx b !pos;
    pos := !pos + 64;
    rem := !rem - 64
  done;
  if !rem > 0 then begin
    Bytes.blit b !pos ctx.buf ctx.buf_len !rem;
    ctx.buf_len <- ctx.buf_len + !rem
  end

let update_substring ctx s pos len =
  update_bytes ctx (Bytes.unsafe_of_string s) pos len

let update ctx s = update_substring ctx s 0 (String.length s)

let finalize_into ctx dst pos =
  if pos < 0 || pos + 32 > Bytes.length dst then
    invalid_arg "Sha256.finalize_into: need 32 bytes of room";
  let bit_len = ctx.total lsl 3 in
  (* Pad in the block buffer directly: 0x80, zeros, 64-bit length. *)
  Bytes.set ctx.buf ctx.buf_len '\x80';
  let fill = ctx.buf_len + 1 in
  if fill > 56 then begin
    Bytes.fill ctx.buf fill (64 - fill) '\000';
    compress ctx ctx.buf 0;
    Bytes.fill ctx.buf 0 56 '\000'
  end
  else Bytes.fill ctx.buf fill (56 - fill) '\000';
  for i = 0 to 7 do
    Bytes.set ctx.buf (56 + i)
      (Char.unsafe_chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  compress ctx ctx.buf 0;
  ctx.buf_len <- 0;
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set dst (pos + (4 * i)) (Char.unsafe_chr (v lsr 24));
    Bytes.set dst (pos + (4 * i) + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.set dst (pos + (4 * i) + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.set dst (pos + (4 * i) + 3) (Char.unsafe_chr (v land 0xff))
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out 0;
  Bytes.unsafe_to_string out

(* One-shot digests reuse a domain-local context so the hot paths
   (evidence hashing, HMAC inner/outer, module measurements) never
   allocate per call. Domain-local rather than module-level because
   fleet shards hash concurrently; each domain pays one context
   allocation on its first digest, then the scratch conventions match
   the rest of this library. *)
let oneshot = Domain.DLS.new_key init

let digest s =
  let ctx = Domain.DLS.get oneshot in
  reset ctx;
  update ctx s;
  finalize ctx

let digest_list parts =
  let ctx = Domain.DLS.get oneshot in
  reset ctx;
  List.iter (update ctx) parts;
  finalize ctx
