type gilbert_elliott = {
  p_gb : float;
  p_bg : float;
  loss_good : float;
  loss_bad : float;
}

type loss_model =
  | No_loss
  | Bernoulli of float
  | Gilbert of gilbert_elliott

(* A growable power-of-two FIFO ring of packets. Popped slots are
   overwritten with [filler] so a drained ring does not keep delivered
   packets alive; the ring only ever grows, to the link's peak depth. *)
module Ring = struct
  type t = {
    mutable buf : Packet.t array;
    mutable head : int; (* index of the oldest packet *)
    mutable len : int;
  }

  let filler =
    {
      Packet.uid = 0;
      flow = -1;
      src = -1;
      dst = -1;
      kind = Packet.Data;
      wire_bytes = 0;
      payload_bytes = 0;
      seq = 0;
      payload = Packet.No_payload;
      sent_at = 0.;
    }

  let create () = { buf = Array.make 16 filler; head = 0; len = 0 }
  let length r = r.len

  let grow r =
    let cap = Array.length r.buf in
    let buf = Array.make (2 * cap) filler in
    let first = min r.len (cap - r.head) in
    Array.blit r.buf r.head buf 0 first;
    Array.blit r.buf 0 buf first (r.len - first);
    r.buf <- buf;
    r.head <- 0

  let push r pkt =
    if r.len = Array.length r.buf then grow r;
    r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- pkt;
    r.len <- r.len + 1

  (* Callers check [length] first. *)
  let peek r = r.buf.(r.head)

  let pop r =
    let pkt = r.buf.(r.head) in
    r.buf.(r.head) <- filler;
    r.head <- (r.head + 1) land (Array.length r.buf - 1);
    r.len <- r.len - 1;
    pkt
end

(* The two per-packet events every delivered packet pays — end of
   serialization and delivery after propagation — reuse two closures
   allocated once per link. The packet travels through the [queue] /
   [inflight] rings instead of being captured: all deliveries on a link
   share the same constant latency, so they complete in the order they
   were scheduled and a FIFO carries exactly the right state. *)
type t = {
  sim : Pdq_engine.Sim.t;
  id : int;
  src : int;
  dst : int;
  rate : float;
  prop_delay : float;
  proc_delay : float;
  latency : float; (* prop_delay +. proc_delay *)
  buffer_bytes : int;
  queue : Ring.t;
  inflight : Ring.t;
  mutable tx_done : unit -> unit;
  mutable deliver : unit -> unit;
  mutable queued_bytes : int;
  mutable busy : bool;
  mutable receiver : Packet.t -> unit;
  mutable loss_model : loss_model;
  mutable loss_rng : Pdq_engine.Rng.t option;
  mutable ge_bad : bool; (* Gilbert–Elliott channel state *)
  mutable up : bool;
  mutable delivered : int;
  mutable dropped_loss : int;
  mutable dropped_overflow : int;
  mutable dropped_down : int;
  mutable bytes_sent : int;
  (* (time, cumulative bytes) checkpoints for windowed utilization. *)
  mutable last_window_start : float;
  mutable last_window_bytes : int;
  mutable tap : (now:float -> bytes:int -> unit) option;
  mutable trace : Pdq_telemetry.Trace.t;
}

let noop () = ()
let k_tx = Pdq_engine.Sim.Kind.register "link.tx"
let k_deliver = Pdq_engine.Sim.Kind.register "link.deliver"

let start_transmission t =
  if Ring.length t.queue = 0 then t.busy <- false
  else begin
    let pkt = Ring.peek t.queue in
    t.busy <- true;
    (* [Units.tx_time], computed here and passed through the delay
       cell so the serialization time is never boxed. *)
    (Pdq_engine.Sim.delay_cell t.sim).(0) <-
      float_of_int pkt.Packet.wire_bytes *. 8. /. t.rate;
    ignore (Pdq_engine.Sim.schedule_cell_k t.sim k_tx t.tx_done)
  end

let on_tx_done t =
  let pkt = Ring.pop t.queue in
  t.queued_bytes <- t.queued_bytes - pkt.Packet.wire_bytes;
  t.bytes_sent <- t.bytes_sent + pkt.Packet.wire_bytes;
  (match t.tap with
  | Some f -> f ~now:(Pdq_engine.Sim.now t.sim) ~bytes:pkt.Packet.wire_bytes
  | None -> ());
  t.delivered <- t.delivered + 1;
  Ring.push t.inflight pkt;
  ignore
    (Pdq_engine.Sim.schedule_k t.sim k_deliver ~delay:t.latency t.deliver);
  start_transmission t

let on_deliver t = t.receiver (Ring.pop t.inflight)

let create ~sim ~id ~src ~dst ~rate ~prop_delay ~proc_delay ~buffer_bytes () =
  let t = {
    sim;
    id;
    src;
    dst;
    rate;
    prop_delay;
    proc_delay;
    latency = prop_delay +. proc_delay;
    buffer_bytes;
    queue = Ring.create ();
    inflight = Ring.create ();
    tx_done = noop;
    deliver = noop;
    queued_bytes = 0;
    busy = false;
    receiver = (fun _ -> failwith "Link: receiver not set");
    loss_model = No_loss;
    loss_rng = None;
    ge_bad = false;
    up = true;
    delivered = 0;
    dropped_loss = 0;
    dropped_overflow = 0;
    dropped_down = 0;
    bytes_sent = 0;
    last_window_start = 0.;
    last_window_bytes = 0;
    tap = None;
    trace = Pdq_telemetry.Trace.null;
  }
  in
  t.tx_done <- (fun () -> on_tx_done t);
  t.deliver <- (fun () -> on_deliver t);
  t

let id t = t.id
let src t = t.src
let dst t = t.dst
let rate t = t.rate
let prop_delay t = t.prop_delay
let proc_delay t = t.proc_delay
let set_receiver t f = t.receiver <- f
let receiver t = t.receiver
let queue_bytes t = t.queued_bytes
let queue_packets t = Ring.length t.queue

let set_loss t ~rate ~rng =
  t.loss_model <- (if rate > 0. then Bernoulli rate else No_loss);
  t.loss_rng <- Some rng

let set_loss_model t model ~rng =
  t.loss_model <- model;
  t.ge_bad <- false;
  t.loss_rng <- Some rng

let loss_model t = t.loss_model
let is_up t = t.up
let set_up t up = t.up <- up
let delivered t = t.delivered
let dropped t = t.dropped_loss + t.dropped_overflow + t.dropped_down
let dropped_loss t = t.dropped_loss
let dropped_overflow t = t.dropped_overflow
let dropped_down t = t.dropped_down
let bytes_sent t = t.bytes_sent
let on_transmit t f = t.tap <- Some f
let set_trace t trace = t.trace <- trace

let utilization t ~now =
  let window = now -. t.last_window_start in
  if window <= 0. then 0.
  else begin
    let bytes = t.bytes_sent - t.last_window_bytes in
    t.last_window_start <- now;
    t.last_window_bytes <- t.bytes_sent;
    Pdq_engine.Units.bytes_to_bits bytes /. (t.rate *. window)
  end

(* One draw of the loss process. The Gilbert–Elliott chain steps once
   per offered packet: transition first, then drop with the loss rate
   of the state the packet observes. *)
let loss_fires t =
  match (t.loss_model, t.loss_rng) with
  | No_loss, _ | _, None -> false
  | Bernoulli rate, Some rng -> rate > 0. && Pdq_engine.Rng.bool rng rate
  | Gilbert ge, Some rng ->
      let flip =
        Pdq_engine.Rng.bool rng (if t.ge_bad then ge.p_bg else ge.p_gb)
      in
      if flip then t.ge_bad <- not t.ge_bad;
      let p = if t.ge_bad then ge.loss_bad else ge.loss_good in
      p > 0. && Pdq_engine.Rng.bool rng p

let record_drop t cause =
  if Pdq_telemetry.Trace.active t.trace then
    Pdq_telemetry.Trace.emit t.trace
      (Pdq_telemetry.Trace.Packet_dropped { link = t.id; cause })

let send t pkt =
  if not t.up then begin
    t.dropped_down <- t.dropped_down + 1;
    record_drop t Pdq_telemetry.Trace.Link_down
  end
  else if loss_fires t then begin
    t.dropped_loss <- t.dropped_loss + 1;
    record_drop t Pdq_telemetry.Trace.Loss
  end
  else if t.queued_bytes + pkt.Packet.wire_bytes > t.buffer_bytes then begin
    t.dropped_overflow <- t.dropped_overflow + 1 (* FIFO tail drop *);
    record_drop t Pdq_telemetry.Trace.Overflow
  end
  else begin
    Ring.push t.queue pkt;
    t.queued_bytes <- t.queued_bytes + pkt.Packet.wire_bytes;
    if not t.busy then start_transmission t
  end
