(* The fault-injecting network: framing hardening, each fault family in
   isolation, deterministic replay, and the QCheck properties that any
   non-corrupting schedule converges and the frame codec survives
   arbitrary chunked delivery. *)

module Net = Watz_tz.Net
module Storm = Watz.Storm
module App = Watz.Attester_app
module W = Watz_util.Bytesio.Writer

let case name f = Alcotest.test_case name `Quick f
let seeded name f = Alcotest.test_case name `Quick (Test_seed.replayable name f)

let fresh_pair ?(profile = Net.perfect) ?(seed = Test_seed.seed) () =
  let net = Net.create () in
  Net.configure net ~seed ~profile;
  ignore (Net.listen net ~port:9100);
  let client = Net.connect net ~port:9100 in
  let server = Option.get (Net.accept net ~port:9100) in
  (net, client, server)

(* --- recv_frame hardening (satellite: absurd length prefixes) ------- *)

let raw_prefix len32 =
  let w = W.create () in
  W.u32 w len32;
  W.contents w

let test_negative_length () =
  let _net, client, server = fresh_pair () in
  Net.send client (raw_prefix (-1l));
  (match Net.recv_frame_ex server with
  | Net.Frame_violation (Net.Negative_length n) -> Alcotest.(check int) "length" (-1) n
  | _ -> Alcotest.fail "expected Negative_length violation");
  match Net.recv_frame server with
  | exception Net.Bad_frame (Net.Negative_length _) -> ()
  | _ -> Alcotest.fail "recv_frame must raise Bad_frame"

let test_oversized_length () =
  let _net, client, server = fresh_pair () in
  Net.send client (raw_prefix 0x7fffffffl);
  (match Net.recv_frame_ex server with
  | Net.Frame_violation (Net.Oversized_length n) ->
    Alcotest.(check bool) "over cap" true (n > Net.max_frame_len)
  | _ -> Alcotest.fail "expected Oversized_length violation");
  match Net.recv_frame server with
  | exception Net.Bad_frame (Net.Oversized_length _) -> ()
  | _ -> Alcotest.fail "recv_frame must raise Bad_frame"

let test_boundary_length_ok () =
  (* A frame at exactly the cap parses (delivered in one piece). *)
  let _net, client, server = fresh_pair () in
  let payload = String.make 1024 'x' in
  Net.send_frame client payload;
  Alcotest.(check (option string)) "frame" (Some payload) (Net.recv_frame server)

(* --- send/recv on a dead peer (satellite) --------------------------- *)

let test_send_on_peer_closed () =
  let _net, client, server = fresh_pair () in
  Net.close server;
  Alcotest.(check bool) "peer_closed observable" true (Net.peer_closed client);
  match Net.send_frame client "hello" with
  | exception Net.Peer_closed -> ()
  | () -> Alcotest.fail "send on a closed peer must raise Peer_closed"

let test_recv_after_peer_closed () =
  let _net, client, server = fresh_pair () in
  Net.send_frame client "last words";
  Net.close client;
  (* Buffered data still drains... *)
  Alcotest.(check (option string)) "drains" (Some "last words") (Net.recv_frame server);
  (* ...then the stream reports a definitive end, not a wait state. *)
  (match Net.recv_frame_ex server with
  | Net.Closed_by_peer -> ()
  | _ -> Alcotest.fail "expected Closed_by_peer");
  Alcotest.(check (option string)) "no frame" None (Net.recv_frame server)

(* --- fault families in isolation ------------------------------------ *)

let test_drop () =
  let net, client, server = fresh_pair ~profile:{ Net.perfect with Net.drop_p = 1.0 } () in
  Net.send_frame client "gone";
  for _ = 1 to 5 do Net.tick net done;
  (match Net.recv_frame_ex server with
  | Net.Awaiting -> ()
  | _ -> Alcotest.fail "dropped segment must leave the reader waiting");
  Alcotest.(check int) "drop counted" 1
    (Option.value ~default:0 (List.assoc_opt "drop" (Net.fault_counts net)))

let test_dup () =
  let _net, client, server = fresh_pair ~profile:{ Net.perfect with Net.dup_p = 1.0 } () in
  Net.send_frame client "twice";
  Alcotest.(check (option string)) "first copy" (Some "twice") (Net.recv_frame server);
  Alcotest.(check (option string)) "second copy" (Some "twice") (Net.recv_frame server)

let test_reorder () =
  let _net, client, server = fresh_pair ~profile:{ Net.perfect with Net.reorder_p = 1.0 } () in
  Net.send_frame client "first";
  Net.send_frame client "second";
  (* The hold-back swap delivers whole segments out of order, never
     interleaved bytes. *)
  Alcotest.(check (option string)) "swapped" (Some "second") (Net.recv_frame server);
  Alcotest.(check (option string)) "held released" (Some "first") (Net.recv_frame server)

let test_delay_ticks () =
  let net, client, server =
    fresh_pair ~profile:{ Net.perfect with Net.delay_p = 1.0; max_delay_ticks = 3 } ()
  in
  Net.send_frame client "later";
  Alcotest.(check (option string)) "not yet" None (Net.recv_frame server);
  let rec until n =
    if n = 0 then Alcotest.fail "delayed segment never arrived"
    else begin
      Net.tick net;
      match Net.recv_frame server with
      | Some s -> Alcotest.(check string) "payload intact" "later" s
      | None -> until (n - 1)
    end
  in
  until 5

let test_truncate_close () =
  let _net, client, server =
    fresh_pair ~profile:{ Net.perfect with Net.truncate_close_p = 1.0 } ()
  in
  Net.send_frame client (String.make 64 'q');
  (* The receiver gets a prefix then a dead stream - a typed end, not a
     hang; the sender's next write sees the broken link. *)
  (match Net.recv_frame_ex server with
  | Net.Closed_by_peer -> ()
  | Net.Frame _ -> Alcotest.fail "truncated frame must not complete"
  | _ -> Alcotest.fail "expected Closed_by_peer after truncate-and-close");
  match Net.send_frame client "more" with
  | exception Net.Peer_closed -> ()
  | () -> Alcotest.fail "send on a killed link must raise Peer_closed"

(* Regression: a reorder hold-back pending when truncate-and-close
   fires must travel *before* the truncated prefix. Released after it,
   the held segment's bytes would be parsed as the partial frame's
   missing tail — a garbage frame instead of a clean stream end. *)
let test_truncate_releases_held_first () =
  let _net, client, server = fresh_pair ~profile:{ Net.perfect with Net.reorder_p = 1.0 } () in
  Net.send_frame client "held-frame";
  (* Nothing delivered yet: the segment sits in the hold-back slot. *)
  Alcotest.(check (option string)) "held back" None (Net.recv_frame server);
  Net.set_profile client { Net.perfect with Net.truncate_close_p = 1.0 };
  (try Net.send_frame client (String.make 64 'z') with Net.Peer_closed -> ());
  (match Net.recv_frame_ex server with
  | Net.Frame s -> Alcotest.(check string) "held frame intact, ahead of the prefix" "held-frame" s
  | _ -> Alcotest.fail "held segment lost");
  match Net.recv_frame_ex server with
  | Net.Closed_by_peer -> ()
  | Net.Frame _ -> Alcotest.fail "truncated prefix parsed as a frame"
  | _ -> Alcotest.fail "expected Closed_by_peer after the truncated prefix"

let test_corrupt_changes_bytes seed =
  let _net, client, server =
    fresh_pair ~seed ~profile:{ Net.perfect with Net.corrupt_p = 1.0 } ()
  in
  let payload = String.make 32 'a' in
  Net.send_frame client payload;
  match Net.recv_frame_ex server with
  | Net.Frame s -> Alcotest.(check bool) "payload corrupted" false (String.equal s payload)
  | Net.Frame_violation _ | Net.Closed_by_peer -> () (* prefix corrupted: also detected *)
  | Net.Awaiting -> () (* length grew: reader waits, storm layer times out *)

let test_mitm_observes_and_rewrites () =
  let seen = ref 0 in
  let rewrite s =
    incr seen;
    String.mapi (fun i c -> if i = String.length s - 1 then Char.chr (Char.code c lxor 0xff) else c) s
  in
  let _net, client, server =
    fresh_pair ~profile:{ Net.perfect with Net.mitm = Some rewrite } ()
  in
  Net.send_frame client "payload";
  Alcotest.(check bool) "mitm saw the segment" true (!seen = 1);
  match Net.recv_frame server with
  | Some s ->
    Alcotest.(check int) "length preserved" 7 (String.length s);
    Alcotest.(check bool) "last byte flipped" false (String.equal s "payload")
  | None -> Alcotest.fail "frame lost"

let test_deterministic_replay seed =
  (* Same seed, same profile, same sends => identical fault schedule. *)
  let run () =
    let net, client, _server = fresh_pair ~seed ~profile:Net.lossy () in
    for i = 1 to 40 do
      (try Net.send_frame client (Printf.sprintf "frame-%d" i) with Net.Peer_closed -> ());
      Net.tick net
    done;
    Net.fault_counts net
  in
  let a = run () and b = run () in
  Alcotest.(check (list (pair string int))) "identical schedules" a b

(* --- the storm under the acceptance-criteria profile ----------------- *)

let assoc name l = Option.value ~default:0 (List.assoc_opt name l)

let test_storm_lossy_completes seed =
  let config = { Storm.default_config with Storm.sessions = 32; seed } in
  let r = Storm.run ~config () in
  Alcotest.(check bool)
    (Format.asprintf "completion %.1f%% >= 99%%" (100.0 *. Storm.completion_rate r))
    true
    (Storm.completion_rate r >= 0.99);
  Alcotest.(check bool) "verifier agrees" true (assoc "sessions_completed" r.Storm.server >= 31);
  Alcotest.(check bool) "faults were actually injected" true (r.Storm.faults <> [])

let test_storm_perfect_is_clean () =
  let config =
    { Storm.default_config with Storm.sessions = 8; profile = Net.perfect; seed = Test_seed.seed }
  in
  let r = Storm.run ~config () in
  Alcotest.(check int) "all complete" 8 r.Storm.completed;
  Alcotest.(check int) "no retries needed" 0 r.Storm.retries;
  Alcotest.(check int) "no faults" 0 (List.fold_left (fun a (_, v) -> a + v) 0 r.Storm.faults)

(* --- QCheck properties ---------------------------------------------- *)

let qcheck = Seed_util.qcheck

(* Fresh sub-seed per generated case so schedules differ across cases
   while the whole battery stays a function of Test_seed.seed. *)
let subseed =
  let k = ref 0 in
  fun () ->
    incr k;
    Int64.add Test_seed.seed (Int64.of_int (!k * 7919))

let prop_codec_roundtrip_chunked =
  QCheck.Test.make ~name:"frame codec under chunked partial delivery" ~count:30
    QCheck.(list_of_size Gen.(1 -- 8) (string_of_size Gen.(1 -- 200)))
    (fun payloads ->
      let profile =
        { Net.perfect with Net.chunk_p = 1.0; delay_p = 0.3; max_delay_ticks = 3 }
      in
      let net, client, server = fresh_pair ~seed:(subseed ()) ~profile () in
      List.iter (Net.send_frame client) payloads;
      let received = ref [] in
      let budget = ref 200 in
      while List.length !received < List.length payloads && !budget > 0 do
        decr budget;
        Net.tick net;
        let rec drain () =
          match Net.recv_frame server with
          | Some s ->
            received := s :: !received;
            drain ()
          | None -> ()
        in
        drain ()
      done;
      List.rev !received = payloads)

(* Truncate-and-close under arbitrary chunking and reordering: every
   frame the receiver completes is byte-identical to a sent frame
   (each matched at most once), and the stream ends in a typed
   [Closed_by_peer] — never a fabricated frame, never a frame
   violation (the fault cuts bytes, it does not rewrite them). *)
let prop_truncate_is_clean_prefix =
  QCheck.Test.make ~name:"truncate-close: sent frames or a typed end, never garbage" ~count:40
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 10) (string_of_size Gen.(2 -- 200)))
        (pair (float_bound_exclusive 0.8) (float_bound_exclusive 0.5)))
    (fun (payloads, (chunk_p, truncate_p)) ->
      let profile =
        {
          Net.perfect with
          Net.chunk_p;
          reorder_p = 0.3;
          truncate_close_p = max 0.05 truncate_p;
        }
      in
      let net, client, server = fresh_pair ~seed:(subseed ()) ~profile () in
      List.iter
        (fun p -> try Net.send_frame client p with Net.Peer_closed -> ())
        payloads;
      let remove x l =
        let rec go acc = function
          | [] -> None
          | y :: tl -> if String.equal x y then Some (List.rev_append acc tl) else go (y :: acc) tl
        in
        go [] l
      in
      let expected = ref payloads in
      let ok = ref true and closed = ref false in
      let budget = ref 300 in
      while (not !closed) && !ok && !expected <> [] && !budget > 0 do
        decr budget;
        match Net.recv_frame_ex server with
        | Net.Frame s -> (
          match remove s !expected with
          | Some rest -> expected := rest
          | None -> ok := false (* fabricated or duplicated: the bug *))
        | Net.Closed_by_peer -> closed := true
        | Net.Frame_violation _ -> ok := false
        | Net.Awaiting -> Net.tick net
      done;
      (* Either the link died mid-stream (remaining frames lost: fine)
         or every frame arrived; [ok] rules out any garbage frame. *)
      !ok && (!closed || !expected = []))

(* --- retry backoff (regression: reset on phase advance) -------------- *)

module Soc = Watz_tz.Soc
module P = Watz_attest.Protocol
module Service = Watz_attest.Service

(* Starve the attester of msg1 so its deadline fires repeatedly: the
   timeout must back off geometrically. Then deliver msg1 and assert
   the phase advance resets the budget — a session that struggled
   through the handshake must not enter appraisal with one foot in
   Timed_out. Fully deterministic: perfect link, simulated clock. *)
let test_backoff_resets_on_phase_advance () =
  let soc = Soc.manufacture ~seed:"backoff-board" () in
  (match Soc.boot soc with Ok _ -> () | Error _ -> Alcotest.fail "boot failed");
  let service = Service.install (Soc.optee soc) in
  let claim = Watz_crypto.Sha256.digest "backoff-app" in
  let policy =
    P.Verifier.make_policy ~identity_seed:"backoff-verifier"
      ~endorsed_keys:[ Service.public_key service ]
      ~reference_claims:[ claim ] ~secret_blob:"blob" ()
  in
  let port = 7300 in
  let server = Watz.Verifier_app.start soc ~port ~policy in
  let rng = Watz_util.Prng.create 0xbac0ffL in
  let random n = Watz_util.Prng.bytes rng n in
  let issue ~anchor =
    Watz_attest.Evidence.encode (Service.issue_evidence service ~anchor ~claim)
  in
  let a =
    App.start ~sid:1 soc ~port ~random ~expected_verifier:policy.P.Verifier.identity_pub ~issue
  in
  let r = App.default_retry in
  Alcotest.(check int64) "starts at the initial timeout" r.App.initial_timeout_ns
    a.App.timeout_ns;
  (* The verifier never steps: each 50 ms jump is past any backed-off
     deadline (initial 4 ms, x1.6 per retry), so exactly one deadline
     fires per step. *)
  let expected = ref r.App.initial_timeout_ns in
  for k = 1 to 3 do
    Watz_tz.Simclock.advance soc.Soc.clock 50_000_000;
    App.step a;
    expected := Int64.of_float (Int64.to_float !expected *. r.App.backoff);
    Alcotest.(check int64)
      (Printf.sprintf "timeout backed off after retry %d" k)
      !expected a.App.timeout_ns
  done;
  Alcotest.(check int) "three retransmissions" 3 (App.retries a);
  Alcotest.(check int) "retry budget spent" (r.App.max_retries - 3) a.App.retries_left;
  (* Now let the verifier answer: msg1 arrives, msg2 goes out, the
     phase advances - and the backoff state is fresh again. *)
  Watz.Verifier_app.step server;
  App.step a;
  Alcotest.(check bool) "advanced to Await_msg3" true (a.App.phase = App.Await_msg3);
  Alcotest.(check int64) "timeout reset to initial" r.App.initial_timeout_ns a.App.timeout_ns;
  Alcotest.(check int) "retry budget restored" r.App.max_retries a.App.retries_left;
  (* And the session still completes. *)
  Watz.Verifier_app.step server;
  App.step a;
  match App.outcome a with
  | App.Done _ -> ()
  | App.Pending -> Alcotest.fail "session did not finish"
  | App.Aborted e -> Alcotest.failf "session aborted: %a" P.pp_error e

let prop_non_corrupting_profiles_converge =
  let gen =
    QCheck.Gen.(
      map
        (fun ((drop, dup, reorder), (delay, chunk)) ->
          {
            Net.perfect with
            Net.drop_p = drop;
            dup_p = dup;
            reorder_p = reorder;
            delay_p = delay;
            max_delay_ticks = 4;
            chunk_p = chunk;
          })
        (pair
           (triple (float_bound_exclusive 0.15) (float_bound_exclusive 0.2)
              (float_bound_exclusive 0.2))
           (pair (float_bound_exclusive 0.4) (float_bound_exclusive 0.5))))
  in
  let print p =
    Printf.sprintf "drop=%.3f dup=%.3f reorder=%.3f delay=%.3f chunk=%.3f" p.Net.drop_p
      p.Net.dup_p p.Net.reorder_p p.Net.delay_p p.Net.chunk_p
  in
  QCheck.Test.make ~name:"any non-corrupting profile + retries converges" ~count:8
    (QCheck.make ~print gen) (fun profile ->
      let config =
        {
          Storm.default_config with
          Storm.sessions = 2;
          seed = subseed ();
          profile;
          retry = { App.default_retry with App.max_retries = 12 };
        }
      in
      let r = Storm.run ~config () in
      r.Storm.completed = 2 && assoc "sessions_completed" r.Storm.server = 2)

let test_tampering_profiles () =
  (* The CLI and the storm bench excuse failed sessions only under a
     profile that [Net.tampers]; of the named profiles, that must be
     exactly the three that rewrite or cut payloads. *)
  Alcotest.(check (list string)) "tampering profiles" [ "corrupt"; "truncate"; "mitm-flip" ]
    (List.filter_map (fun (name, p) -> if Net.tampers p then Some name else None) Storm.profiles)

let suite =
  [
    ( "fault.frames",
      [
        case "negative length prefix rejected" test_negative_length;
        case "oversized length prefix rejected" test_oversized_length;
        case "large frame under the cap ok" test_boundary_length_ok;
        case "send on peer-closed raises" test_send_on_peer_closed;
        case "recv after peer close: drain then end" test_recv_after_peer_closed;
      ] );
    ( "fault.link",
      [
        case "drop" test_drop;
        case "duplicate" test_dup;
        case "reorder swaps whole segments" test_reorder;
        case "delay counts scheduler ticks" test_delay_ticks;
        case "truncate then close" test_truncate_close;
        case "truncate releases the hold-back first" test_truncate_releases_held_first;
        seeded "corrupt flips payload bits" test_corrupt_changes_bytes;
        case "mitm observes and rewrites" test_mitm_observes_and_rewrites;
        seeded "fault schedule replays from seed" test_deterministic_replay;
      ] );
    ( "fault.storm",
      [
        seeded "lossy profile, 32 sessions, >=99% complete" test_storm_lossy_completes;
        case "perfect profile completes without retries" test_storm_perfect_is_clean;
        case "backoff resets on phase advance" test_backoff_resets_on_phase_advance;
        qcheck prop_codec_roundtrip_chunked;
        qcheck prop_truncate_is_clean_prefix;
        qcheck prop_non_corrupting_profiles_converge;
        case "tampering profiles are corrupt, truncate, mitm-flip" test_tampering_profiles;
      ] );
  ]
