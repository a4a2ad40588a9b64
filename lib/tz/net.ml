(** In-process simulated TCP/IP with deterministic fault injection.

    The attester and verifier of the paper run on the same board and
    talk over loopback TCP, the secure side reaching the network only
    through the normal-world supplicant. This module provides the
    normal-world network: listeners, connections, ordered byte streams.
    Everything is single-threaded and non-blocking ([recv] returns what
    is available), so protocol code is written as explicit state
    machines driven by a scheduler.

    On top of the perfect transport sits a seed-driven fault layer:
    every [send] is one link-level segment that a per-connection
    {!fault_profile} may drop, duplicate, reorder, corrupt, delay by a
    number of scheduler ticks, truncate-and-kill, or split into chunks
    delivered across successive {!tick}s. An optional man-in-the-middle
    hook observes and may rewrite every segment before the other
    policies apply. Delivery stays byte-stream coherent (FIFO per
    direction, like TCP after the adversary): reordering swaps whole
    segments, never interleaves their bytes. All randomness comes from
    one {!Watz_util.Prng} seeded through {!configure}, so any failing
    schedule replays from its seed. *)

type stream = { buf : Buffer.t; mutable read_pos : int }

(* One in-flight link-level segment. [delay] is the remaining number of
   scheduler ticks before the segment may reach the peer's stream; all
   pending delays count down together on every {!tick}, but delivery is
   strictly FIFO, so a delayed segment blocks everything behind it. *)
type segment = { mutable delay : int; data : string }

type pipe = {
  dst : stream; (* the receiving endpoint's byte stream *)
  pending : segment Queue.t;
  mutable held : segment option; (* reorder hold-back slot *)
  mutable writer_closed : bool; (* no more bytes will ever arrive *)
}

type fault_profile = {
  drop_p : float; (* segment silently lost *)
  dup_p : float; (* segment delivered twice *)
  reorder_p : float; (* segment held back behind the next one *)
  corrupt_p : float; (* one random byte flipped *)
  delay_p : float; (* delivery postponed by 1..max_delay_ticks *)
  max_delay_ticks : int;
  chunk_p : float; (* partial delivery: split across successive ticks *)
  truncate_close_p : float; (* deliver a prefix, then kill the link *)
  mitm : (string -> string) option; (* active adversary: observe/rewrite *)
}

let perfect =
  {
    drop_p = 0.0;
    dup_p = 0.0;
    reorder_p = 0.0;
    corrupt_p = 0.0;
    delay_p = 0.0;
    max_delay_ticks = 0;
    chunk_p = 0.0;
    truncate_close_p = 0.0;
    mitm = None;
  }

(** The default storm profile of the acceptance criteria: loss, ordering
    and timing faults but no payload tampering, so a retransmitting
    endpoint can always complete. *)
let lossy =
  {
    perfect with
    drop_p = 0.08;
    dup_p = 0.05;
    reorder_p = 0.08;
    delay_p = 0.25;
    max_delay_ticks = 4;
    chunk_p = 0.15;
  }

(** Whether a profile tampers with payloads: flips bytes, truncates a
    link or puts an adversary in the middle. Sessions under such a
    profile may legitimately fail; the other faults only drop, repeat,
    reorder, delay or split segments, which a retransmitting endpoint
    always survives. *)
let tampers p = p.corrupt_p > 0.0 || p.truncate_close_p > 0.0 || Option.is_some p.mitm

type conn = {
  net : t;
  tx : pipe; (* what this endpoint writes *)
  rx : pipe; (* what the peer writes *)
  closed : bool ref; (* this endpoint closed *)
  peer : bool ref; (* the other endpoint closed (shared with its [closed]) *)
  broken : bool ref; (* the link itself died (truncate-and-close fault) *)
  mutable profile : fault_profile; (* applied to this endpoint's sends *)
}

and t = {
  listeners : (int, conn Queue.t) Hashtbl.t;
  mutable prng : Watz_util.Prng.t;
  mutable default_profile : fault_profile;
  mutable pipes : pipe list;
  faults : Watz_obs.Metrics.t; (* injected-fault counters, per fault family *)
  owner : int; (* id of the one domain allowed to drive this network *)
}

let create () =
  {
    listeners = Hashtbl.create 8;
    prng = Watz_util.Prng.create 0x0eedfa017L;
    default_profile = perfect;
    pipes = [];
    faults = Watz_obs.Metrics.create ();
    owner = (Domain.self () :> int);
  }

exception Wrong_domain of { owner : int; caller : int }

(* Single-domain ownership, enforced: nothing in this module is
   synchronised (streams, fault PRNG, counters), so a network and every
   endpoint on it may only ever be driven by one domain. Each fleet
   shard manufactures its own board — and therefore its own network —
   inside its domain; the check turns any accidental sharing into an
   immediate [Wrong_domain] instead of a silent seed-stream or
   byte-stream corruption. *)
let owner_check t =
  let caller = (Domain.self () :> int) in
  if t.owner <> caller then raise (Wrong_domain { owner = t.owner; caller })

(** [configure t ~seed ~profile] reseeds the fault PRNG and sets the
    profile inherited by connections established afterwards. *)
let configure t ~seed ~profile =
  t.prng <- Watz_util.Prng.create seed;
  t.default_profile <- profile

let set_profile conn profile = conn.profile <- profile

(* Only families that actually fired are reported, matching the old
   ad-hoc counter table. *)
let fault_counts t =
  List.filter (fun (_, v) -> v > 0) (Watz_obs.Metrics.counter_list t.faults)

exception Refused of int
exception Peer_closed

let listen t ~port =
  owner_check t;
  if Hashtbl.mem t.listeners port then invalid_arg "Net.listen: port in use";
  let q = Queue.create () in
  Hashtbl.replace t.listeners port q;
  port

(* A pipe whose writer has closed and that holds nothing more to
   deliver can never carry bytes again. *)
let dead pipe = pipe.writer_closed && Queue.is_empty pipe.pending && pipe.held = None

(* [pipes] without the dead ones: the list itself when none is dead,
   so a call that forgets nothing allocates nothing. *)
let live_pipes pipes =
  if List.exists dead pipes then List.filter (fun pipe -> not (dead pipe)) pipes else pipes

(** [connect t ~port] establishes a connection to a listening port and
    returns the client-side endpoint; the server side is delivered via
    {!accept}. Raises {!Refused} if nothing listens. It also forgets
    the pipes {!tick} would forget, so a caller that never ticks keeps
    no closed connection's buffers alive. *)
let connect t ~port =
  owner_check t;
  match Hashtbl.find_opt t.listeners port with
  | None -> raise (Refused port)
  | Some q ->
    let fresh_stream () = { buf = Buffer.create 256; read_pos = 0 } in
    let fresh_pipe () =
      { dst = fresh_stream (); pending = Queue.create (); held = None; writer_closed = false }
    in
    let a_to_b = fresh_pipe () in
    let b_to_a = fresh_pipe () in
    let a_closed = ref false and b_closed = ref false and broken = ref false in
    let client =
      { net = t; tx = a_to_b; rx = b_to_a; closed = a_closed; peer = b_closed; broken;
        profile = t.default_profile }
    in
    let server =
      { net = t; tx = b_to_a; rx = a_to_b; closed = b_closed; peer = a_closed; broken;
        profile = t.default_profile }
    in
    t.pipes <- a_to_b :: b_to_a :: live_pipes t.pipes;
    Queue.push server q;
    client

(** [accept t ~port] is the next pending server-side endpoint, if a
    client connected since the last accept. *)
let accept t ~port =
  owner_check t;
  match Hashtbl.find_opt t.listeners port with
  | None -> None
  | Some q -> if Queue.is_empty q then None else Some (Queue.pop q)

(* ------------------------------------------------------------------ *)
(* Delivery *)

let flush pipe =
  let rec go () =
    if not (Queue.is_empty pipe.pending) && (Queue.peek pipe.pending).delay <= 0 then begin
      Buffer.add_string pipe.dst.buf (Queue.pop pipe.pending).data;
      go ()
    end
  in
  go ()

let release_held pipe =
  match pipe.held with
  | Some h ->
    pipe.held <- None;
    Queue.push h pipe.pending
  | None -> ()

(** One scheduler quantum of the link layer: release reorder hold-backs,
    count every pending delay down by one tick, deliver what became due,
    and forget pipes that can never carry bytes again. *)
let tick t =
  owner_check t;
  List.iter
    (fun pipe ->
      release_held pipe;
      Queue.iter (fun seg -> if seg.delay > 0 then seg.delay <- seg.delay - 1) pipe.pending;
      flush pipe)
    t.pipes;
  t.pipes <- live_pipes t.pipes

(* ------------------------------------------------------------------ *)
(* Faulty send *)

let chance rng p = p > 0.0 && Watz_util.Prng.float rng 1.0 < p

let flip_random_byte rng data =
  let i = Watz_util.Prng.int rng (String.length data) in
  String.mapi (fun k c -> if k = i then Char.chr (Char.code c lxor (1 lsl Watz_util.Prng.int rng 8)) else c) data

let kill_link conn =
  conn.broken := true;
  conn.tx.writer_closed <- true;
  conn.rx.writer_closed <- true

let send conn data =
  owner_check conn.net;
  if !(conn.closed) then invalid_arg "Net.send: connection closed";
  if !(conn.peer) || !(conn.broken) then raise Peer_closed;
  let t = conn.net in
  let p = conn.profile in
  let rng = t.prng in
  let fault name = Watz_obs.Metrics.incr t.faults name in
  (* The MITM sits on the wire: it sees (and may rewrite) everything,
     before the lossy link does its own damage. *)
  let data =
    match p.mitm with
    | None -> data
    | Some rewrite ->
      let data' = rewrite data in
      if not (String.equal data' data) then fault "mitm";
      data'
  in
  (* Every branch queues *whole* pieces of this send first; the reorder
     hold-back (a previous, complete segment) is released only after all
     of them, so held bytes can never interleave into the middle of a
     chunked segment and the stream stays frame-coherent. The one
     exception is truncate-and-close, which releases the hold-back
     first: the link dies right after the partial segment, and a
     complete frame delivered after a partial one would be read as the
     partial frame's continuation. *)
  let push seg = Queue.push seg conn.tx.pending in
  let queued =
    if chance rng p.drop_p then begin
      fault "drop";
      false
    end
    else begin
      let data =
        if String.length data > 0 && chance rng p.corrupt_p then begin
          fault "corrupt";
          flip_random_byte rng data
        end
        else data
      in
      if String.length data > 1 && chance rng p.truncate_close_p then begin
        fault "truncate";
        (* The truncated prefix is the last bytes this link ever
           carries, so any reorder hold-back (an earlier, complete
           segment) must travel *before* it: released after, its bytes
           would follow the partial frame and be parsed as that frame's
           missing tail — a garbage frame instead of a clean
           connection loss. *)
        release_held conn.tx;
        let keep = 1 + Watz_util.Prng.int rng (String.length data - 1) in
        push { delay = 0; data = String.sub data 0 keep };
        kill_link conn;
        false (* the hold-back is already released; nothing further may follow *)
      end
      else if chance rng p.dup_p then begin
        fault "dup";
        push { delay = 0; data };
        push { delay = 0; data };
        true
      end
      else if conn.tx.held = None && chance rng p.reorder_p then begin
        fault "reorder";
        conn.tx.held <- Some { delay = 0; data };
        false (* travels after the next send (or next tick) *)
      end
      else if chance rng p.delay_p then begin
        fault "delay";
        push { delay = 1 + Watz_util.Prng.int rng (max 1 p.max_delay_ticks); data };
        true
      end
      else if String.length data > 1 && chance rng p.chunk_p then begin
        fault "chunk";
        let n = 2 + Watz_util.Prng.int rng 3 in
        let n = min n (String.length data) in
        let base = String.length data / n in
        let off = ref 0 in
        for i = 0 to n - 1 do
          let len = if i = n - 1 then String.length data - !off else base in
          push { delay = i; data = String.sub data !off len };
          off := !off + len
        done;
        true
      end
      else begin
        push { delay = 0; data };
        true
      end
    end
  in
  if queued then release_held conn.tx;
  flush conn.tx

let available conn = Buffer.length conn.rx.dst.buf - conn.rx.dst.read_pos

(** [recv conn ~len] reads exactly [len] bytes if available, [None]
    otherwise (no partial reads — the framing layer asks for exact
    sizes). *)
let recv conn ~len =
  owner_check conn.net;
  if available conn < len then None
  else begin
    let s = Buffer.sub conn.rx.dst.buf conn.rx.dst.read_pos len in
    conn.rx.dst.read_pos <- conn.rx.dst.read_pos + len;
    Some s
  end

let close conn =
  owner_check conn.net;
  conn.closed := true;
  conn.tx.writer_closed <- true

let peer_closed conn = !(conn.peer) || !(conn.broken)

(* ------------------------------------------------------------------ *)
(* Length-prefixed message framing used by the attestation protocol. *)

(** Hard upper bound on a frame's declared length: anything larger (or
    negative, from a corrupted prefix read as a signed u32) is a
    protocol violation to report immediately, not bytes to wait for. *)
let max_frame_len = 64 * 1024 * 1024

type frame_error =
  | Negative_length of int
  | Oversized_length of int

let pp_frame_error ppf = function
  | Negative_length n -> Format.fprintf ppf "negative frame length %d" n
  | Oversized_length n -> Format.fprintf ppf "frame length %d exceeds %d" n max_frame_len

exception Bad_frame of frame_error

type frame_result =
  | Frame of string
  | Awaiting (* not enough bytes yet, but more may come *)
  | Closed_by_peer (* stream ended before a complete frame *)
  | Frame_violation of frame_error

let send_frame conn payload =
  let w = Watz_util.Bytesio.Writer.create () in
  Watz_util.Bytesio.Writer.u32 w (Int32.of_int (String.length payload));
  Watz_util.Bytesio.Writer.bytes w payload;
  send conn (Watz_util.Bytesio.Writer.contents w)

(* No more bytes can ever arrive on this connection. *)
let at_eof conn =
  conn.rx.writer_closed && Queue.is_empty conn.rx.pending && conn.rx.held = None

(** [recv_frame_ex conn] is the full framing result: a complete frame,
    a wait state, end-of-stream, or a typed violation for an absurd
    length prefix (negative or beyond {!max_frame_len}). *)
let recv_frame_ex conn =
  owner_check conn.net;
  if available conn < 4 then if at_eof conn then Closed_by_peer else Awaiting
  else begin
    let peek = Buffer.sub conn.rx.dst.buf conn.rx.dst.read_pos 4 in
    let r = Watz_util.Bytesio.Reader.of_string peek in
    let len = Int32.to_int (Watz_util.Bytesio.Reader.u32 r) in
    if len < 0 then Frame_violation (Negative_length len)
    else if len > max_frame_len then Frame_violation (Oversized_length len)
    else if available conn < 4 + len then if at_eof conn then Closed_by_peer else Awaiting
    else begin
      conn.rx.dst.read_pos <- conn.rx.dst.read_pos + 4;
      match recv conn ~len with Some s -> Frame s | None -> assert false
    end
  end

(** [recv_frame conn] is a complete frame, or [None] if one has not
    fully arrived yet (or never will: peer gone). Raises {!Bad_frame}
    on an absurd length prefix; state-machine drivers should use
    {!recv_frame_ex} and get the violation as a value. *)
let recv_frame conn =
  match recv_frame_ex conn with
  | Frame s -> Some s
  | Awaiting | Closed_by_peer -> None
  | Frame_violation e -> raise (Bad_frame e)
