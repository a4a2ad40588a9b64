(* Machine pace. On a shared VM the vCPU's speed drifts with what the
   neighbours run: the same loop ran up to 20 % slower from one minute
   to the next, and 1.5-2x slower in bursts of a few seconds. The suite
   times this fixed reference computation right before every block of
   ops and rescales the block's times by [factor ()], which takes most
   of that drift out of the bounded metrics (README.md has the
   numbers).

   The reference does the kind of work the workloads do (map and hash
   lookups, string comparison, dependent array loads, multiply-and-carry
   arithmetic), but it never allocates and never calls lib/: the
   workload's heap and GC state do not move it, and no change outside
   this directory can. *)

module IM = Map.Make (Int)

let map = IM.of_seq (Seq.init 4096 (fun i -> ((i * 7919) land 0xffff, i)))

let table =
  let h = Hashtbl.create 4096 in
  for i = 0 to 4095 do
    Hashtbl.replace h ((i * 104729) land 0xfffff) i
  done;
  h

let keys = Array.init 512 (fun i -> Printf.sprintf "key-%07d" ((i * 7919) land 0xfffff))
let hops = Array.init 4096 (fun i -> (i * 31) land 4095)
let limbs = Array.init 9 (fun i -> (i * 0x2f0e1d3) land 0x1fffffff)

let work () =
  let acc = ref 0 in
  for r = 1 to 40 do
    for i = 0 to 255 do
      let k = ((i * 7919) + r) land 0xffff in
      if IM.mem k map then acc := !acc + i else acc := !acc lxor k;
      if Hashtbl.mem table ((k * 104729) land 0xfffff) then incr acc;
      if String.compare keys.(i) keys.((i * r) land 511) < 0 then acc := !acc + 3;
      acc := !acc + hops.((!acc + i) land 4095)
    done
  done;
  (* Multiply-and-carry over 29-bit limbs, as the P-256 field code does. *)
  for _ = 1 to 1500 do
    let carry = ref !acc in
    for i = 0 to 8 do
      for j = 0 to 8 do
        carry := (!carry lsr 29) + (limbs.(i) * limbs.(j)) + (!carry land 0x1fffffff)
      done;
      limbs.(i) <- !carry land 0x1fffffff
    done;
    acc := !acc lxor !carry
  done;
  ignore (Sys.opaque_identity !acc)

(* The reference's median duration over fifty runs on the 2-vCPU
   x86-64 VM the bounds were set on. It only fixes the unit: a rescaled
   time reads as the wall time that VM measures at its usual pace. *)
let nominal_ms = 1.68

(* Median of three, so a burst inside one call does not count. *)
let ms () =
  let once () =
    let t0 = Span.now_s () in
    work ();
    (Span.now_s () -. t0) *. 1e3
  in
  let a = once () and b = once () and c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* Multiply a time measured now by this to rescale it. *)
let factor () = nominal_ms /. ms ()
