(* Isolated calls into single layers, taken in every traced run. They
   anchor the span table: when a layer's share of an op moves, these say
   whether the layer itself got faster or was called differently. *)

module C = Watz_crypto

let mb n = float_of_int n /. 1e6

(* Seconds per call: batches of about 10 ms, median of five. *)
let per_call f =
  ignore (f ());
  let t0 = Span.now_s () in
  ignore (f ());
  let iters = max 1 (int_of_float (0.01 /. Float.max (Span.now_s () -. t0) 1e-7)) in
  Watz_util.Stats.median
    (Array.init 5 (fun _ ->
         let t0 = Span.now_s () in
         for _ = 1 to iters do
           ignore (Sys.opaque_identity (f ()))
         done;
         (Span.now_s () -. t0) /. float_of_int iters))

let measure () =
  let priv, pub = C.Ecdsa.keypair_of_seed "suite-micro" in
  C.P256.prepare pub;
  let digest = C.Sha256.digest "suite micro message" in
  let signature = C.Ecdsa.sign_digest priv digest in
  let rng = Watz_util.Prng.create 7L in
  let kp = C.Ecdh.generate ~random:(Watz_util.Prng.bytes rng) in
  let peer = (C.Ecdh.generate ~random:(Watz_util.Prng.bytes rng)).C.Ecdh.pub in
  let key = String.sub digest 0 16 and iv = String.make 12 'i' in
  let blob = String.make (128 * 1024) 'd' in
  let frame = String.make 64 'f' in
  let bigapp = Watz_workloads.Bigapp.generate ~mb:1 in
  let m = Watz_wasm.Decode.decode bigapp in
  let soc = Workloads.booted "suite-micro" in
  let empty =
    let open Watz_wasmc.Minic in
    compile_to_bytes (Dsl.program [ Dsl.fn "nop" [] None [ Dsl.ret_void ] ])
  in
  let app = Watz.Runtime.load ~entry:None soc empty in
  let us f = (per_call f *. 1e6, "us") and ms_per_mb n f = (per_call f *. 1e3 /. mb n, "ms/MB") in
  let rows =
    [
      ("crypto.ecdsa_sign_us", us (fun () -> C.Ecdsa.sign_digest priv digest));
      ("crypto.ecdsa_verify_us", us (fun () -> C.Ecdsa.verify_digest pub ~digest ~signature));
      ("crypto.ecdh_us", us (fun () -> C.Ecdh.shared_secret ~priv:kp.C.Ecdh.priv ~peer));
      ("crypto.hmac_us", us (fun () -> C.Hmac.sha256 ~key frame));
      ("crypto.sha256_ms_per_mb", ms_per_mb (String.length bigapp) (fun () -> C.Sha256.digest bigapp));
      ("crypto.gcm_mb_s", (mb (String.length blob) /. per_call (fun () -> C.Gcm.encrypt ~key ~iv blob), "MB/s"));
      ( "wasm.decode_ms_per_mb",
        ms_per_mb (String.length bigapp) (fun () -> Watz_wasm.Decode.decode bigapp) );
      ("wasm.validate_ms_per_mb", ms_per_mb (String.length bigapp) (fun () -> Watz_wasm.Validate.validate m));
      ( "core.prepare_ms_per_mb",
        ms_per_mb (String.length bigapp) (fun () ->
            Watz.Engine.prepare Watz.Runtime.default_config.Watz.Runtime.tier bigapp) );
      ("core.invoke_empty_us", us (fun () -> Watz.Runtime.invoke app "nop" []));
    ]
  in
  Watz.Runtime.unload app;
  List.map (fun (name, (v, unit)) -> (name, v, unit)) rows
