(* Load a module for both execution tiers as a launch does
   ([Watz.Engine.prepare]): from its bytes, the interpreter's AST
   through [Decode.decode] and [Validate.validate], the fast tier's
   code through the one pass, [Fastinterp.compile_bytes]. *)

let of_bytes ?fuel bytes =
  let m = Watz_wasm.Decode.decode bytes in
  Watz_wasm.Validate.validate m;
  (m, Watz_wasm.Fastinterp.compile_bytes ?fuel bytes)

let of_module ?fuel m = of_bytes ?fuel (Watz_wasm.Encode.encode m)
let of_minic p = of_bytes (Watz_wasmc.Minic.compile_to_bytes p)
