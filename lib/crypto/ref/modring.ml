type t = { m : Bn.t; k : int; mu : Bn.t; m_minus_2 : Bn.t }

let create m =
  if Bn.compare m (Bn.of_int 2) < 0 then invalid_arg "Modring.create";
  let k = Bn.limb_count m in
  (* mu = floor(base^(2k) / m), the classic Barrett constant. *)
  let base_2k = Bn.shift_left_limbs Bn.one (2 * k) in
  let mu, _ = Bn.div_mod base_2k m in
  { m; k; mu; m_minus_2 = Bn.sub m (Bn.of_int 2) }

let modulus r = r.m

let reduce r x =
  if Bn.compare x r.m < 0 then x
  else if Bn.limb_count x > 2 * r.k then Bn.mod_ x r.m
  else begin
    let q1 = Bn.shift_right_limbs x (r.k - 1) in
    let q2 = Bn.mul q1 r.mu in
    let q3 = Bn.shift_right_limbs q2 (r.k + 1) in
    let r1 = Bn.truncate_limbs x (r.k + 1) in
    let r2 = Bn.truncate_limbs (Bn.mul q3 r.m) (r.k + 1) in
    let diff =
      if Bn.compare r1 r2 >= 0 then Bn.sub r1 r2
      else Bn.sub (Bn.add r1 (Bn.shift_left_limbs Bn.one (r.k + 1))) r2
    in
    (* Barrett guarantees at most two subtractions remain. *)
    let rec fix d = if Bn.compare d r.m >= 0 then fix (Bn.sub d r.m) else d in
    fix diff
  end

let add r a b =
  let s = Bn.add a b in
  if Bn.compare s r.m >= 0 then Bn.sub s r.m else s

let sub r a b = if Bn.compare a b >= 0 then Bn.sub a b else Bn.sub (Bn.add a r.m) b
let neg r a = if Bn.is_zero a then a else Bn.sub r.m a
let mul r a b = reduce r (Bn.mul a b)
let sqr r a = mul r a a

let pow r b e =
  let bits = Bn.bit_length e in
  let rec go i acc =
    if i < 0 then acc
    else
      let acc = sqr r acc in
      let acc = if Bn.testbit e i then mul r acc b else acc in
      go (i - 1) acc
  in
  go (bits - 1) Bn.one

let inv_prime r a =
  let a = reduce r a in
  if Bn.is_zero a then raise Division_by_zero;
  pow r a r.m_minus_2
