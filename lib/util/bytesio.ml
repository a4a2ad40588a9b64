module Writer = struct
  type t = Buffer.t

  let create ?(capacity = 256) () = Buffer.create capacity
  let length = Buffer.length
  let contents = Buffer.contents
  let u8 w n = Buffer.add_char w (Char.chr (n land 0xff))

  let u16 w n =
    u8 w n;
    u8 w (n lsr 8)

  let u32 w n =
    for i = 0 to 3 do
      u8 w (Int32.to_int (Int32.shift_right_logical n (8 * i)) land 0xff)
    done

  let u64 w n =
    for i = 0 to 7 do
      u8 w (Int64.to_int (Int64.shift_right_logical n (8 * i)) land 0xff)
    done

  let uleb w n =
    let rec go n =
      let byte = Int64.to_int (Int64.logand n 0x7fL) in
      let rest = Int64.shift_right_logical n 7 in
      if Int64.equal rest 0L then u8 w byte
      else begin
        u8 w (byte lor 0x80);
        go rest
      end
    in
    go n

  let sleb w n =
    let rec go n =
      let byte = Int64.to_int (Int64.logand n 0x7fL) in
      let rest = Int64.shift_right n 7 in
      let sign_clear = byte land 0x40 = 0 in
      if (Int64.equal rest 0L && sign_clear) || (Int64.equal rest (-1L) && not sign_clear)
      then u8 w byte
      else begin
        u8 w (byte lor 0x80);
        go rest
      end
    in
    go n

  let bytes w s = Buffer.add_string w s

  let len_bytes w s =
    uleb w (Int64.of_int (String.length s));
    bytes w s
end

module Reader = struct
  type t = { src : string; limit : int; mutable pos : int }

  exception Truncated
  exception Overflow

  let of_string ?(pos = 0) ?len src =
    let limit =
      match len with None -> String.length src | Some n -> pos + n
    in
    if pos < 0 || limit > String.length src then invalid_arg "Reader.of_string";
    { src; limit; pos }

  let pos r = r.pos
  let remaining r = r.limit - r.pos
  let eof r = r.pos >= r.limit

  let u8 r =
    if r.pos >= r.limit then raise Truncated;
    let c = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    c

  let u16 r =
    let a = u8 r in
    let b = u8 r in
    a lor (b lsl 8)

  let u32 r =
    let n = ref 0l in
    for i = 0 to 3 do
      n := Int32.logor !n (Int32.shift_left (Int32.of_int (u8 r)) (8 * i))
    done;
    !n

  let u64 r =
    let n = ref 0L in
    for i = 0 to 7 do
      n := Int64.logor !n (Int64.shift_left (Int64.of_int (u8 r)) (8 * i))
    done;
    !n

  (* Both LEB128 readers below accumulate in a native int, so a read
     allocates nothing; [max_bits] <= 62 keeps every payload bit inside
     the 63-bit int. A continuation past [max_bits] is an Overflow. *)
  let uleb r ~max_bits =
    let rec go shift acc =
      let byte = u8 r in
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 = 0 then begin
        let used = shift + 7 in
        (* Final byte must not set bits beyond [max_bits]. *)
        if used > max_bits && (byte land 0x7f) lsr (7 - (used - max_bits)) <> 0 then
          raise Overflow;
        acc
      end
      else if shift + 7 >= max_bits then raise Overflow
      else go (shift + 7) acc
    in
    go 0 0

  let sleb_int r ~max_bits =
    let rec go shift acc =
      let byte = u8 r in
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 = 0 then begin
        let used = shift + 7 in
        (* Bits of the final byte beyond [max_bits] must all copy the
           sign bit (bit [max_bits - 1]). *)
        (if used > max_bits then
           let high = (byte land 0x7f) lsr (6 - (used - max_bits)) in
           if high <> 0 && high <> (1 lsl (used - max_bits + 1)) - 1 then raise Overflow);
        if used < Sys.int_size && byte land 0x40 <> 0 then acc lor (-1 lsl used) else acc
      end
      else if shift + 7 >= max_bits then raise Overflow
      else go (shift + 7) acc
    in
    go 0 0

  let sleb r ~max_bits =
    let rec go shift acc =
      let byte = u8 r in
      let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (byte land 0x7f)) shift) in
      if byte land 0x80 = 0 then begin
        (* A 64-bit value may need 10 bytes (the last carries a single
           payload bit plus sign bits); sign-extend only when the
           payload is narrower than 64 bits. *)
        let used = shift + 7 in
        if used < 64 && byte land 0x40 <> 0 then
          Int64.logor acc (Int64.shift_left (-1L) used)
        else acc
      end
      else if shift + 7 >= max_bits then raise Overflow
      else go (shift + 7) acc
    in
    go 0 0L

  let bytes r n =
    if n < 0 || r.pos + n > r.limit then raise Truncated;
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let len_bytes r = bytes r (uleb r ~max_bits:32)

  let sub r n =
    if n < 0 || r.pos + n > r.limit then raise Truncated;
    let r' = { src = r.src; limit = r.pos + n; pos = r.pos } in
    r.pos <- r.pos + n;
    r'
end
