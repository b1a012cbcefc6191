module Sim = Pdq_engine.Sim
module Packet = Pdq_net.Packet
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology

let k_tick = Sim.Kind.register "rcp.tick"

(* A very low floor keeps every flow probing forward progress; real RCP
   hands out a minimum of one packet per RTT. *)
let min_rate = 1e5

(* [Stdlib.max]/[min] at type float, kept unboxed: the polymorphic
   versions box both arguments. *)
let fmax (a : float) b = if a >= b then a else b
let fmin (a : float) b = if a <= b then a else b

(* The estimators are rewritten per packet, so they live in a flat
   all-float record: a float field of a mixed record boxes on every
   write. *)
type est = { mutable fair : float; mutable rtt_avg : float }

type port = {
  link : Link.t;
  flows : (int, float array) Hashtbl.t;
      (* flow id -> one cell holding its last-seen time *)
  est : est;
}

type t = { ctx : Context.t; ports : port array; inner : Rate_flow.t }

let recompute_fair p =
  let n = Int.max 1 (Hashtbl.length p.flows) in
  let q_bits = Pdq_engine.Units.bytes_to_bits (Link.queue_bytes p.link) in
  let c_eff = Link.rate p.link -. (q_bits /. (2. *. fmax p.est.rtt_avg 1e-9)) in
  p.est.fair <- fmax min_rate (fmin (Link.rate p.link) (c_eff /. float_of_int n))

let fair_rate t ~link = t.ports.(link).est.fair
let flow_count t ~link = Hashtbl.length t.ports.(link).flows

let on_forward t ~link (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Payloads.Rcp_ctrl (ctrl, _) -> (
      let p = t.ports.(link) in
      match pkt.Packet.kind with
      | Packet.Term ->
          Hashtbl.remove p.flows pkt.Packet.flow;
          recompute_fair p
      | Packet.Syn | Packet.Data | Packet.Probe ->
          let now = (Sim.clock (Context.sim t.ctx)).(0) in
          (match Hashtbl.find p.flows pkt.Packet.flow with
          | seen -> seen.(0) <- now
          | exception Not_found ->
              Hashtbl.replace p.flows pkt.Packet.flow [| now |];
              recompute_fair p);
          if ctrl.Payloads.rcp_rtt > 0. then
            p.est.rtt_avg <-
              (0.875 *. p.est.rtt_avg) +. (0.125 *. ctrl.Payloads.rcp_rtt);
          ctrl.Payloads.rcp_rate <- fmin ctrl.Payloads.rcp_rate p.est.fair
      | Packet.Syn_ack | Packet.Ack -> ())
  | _ -> ()

let ops : Rate_flow.ops =
  {
    Rate_flow.extra_header = Payloads.rcp_header_bytes;
    min_rate;
    fwd_payload =
      (fun s _kind ~now ->
        Payloads.Rcp_ctrl
          ( {
              Payloads.rcp_rate = infinity;
              rcp_rtt = Rate_flow.sender_rtt s;
            },
            { Payloads.cum_ack = 0; echo_ts = now } ));
    ack_payload =
      (fun ~cum_ack ~echo_ts pkt ->
        match pkt.Packet.payload with
        | Payloads.Rcp_ctrl (ctrl, _) ->
            Payloads.Rcp_ctrl
              ( { Payloads.rcp_rate = ctrl.Payloads.rcp_rate; rcp_rtt = 0. },
                { Payloads.cum_ack; echo_ts } )
        | _ -> Payloads.Rcp_ctrl
                 ( { Payloads.rcp_rate = min_rate; rcp_rtt = 0. },
                   { Payloads.cum_ack; echo_ts } ));
    rate_of_ack =
      (fun _s pkt ->
        match pkt.Packet.payload with
        | Payloads.Rcp_ctrl (ctrl, _) -> ctrl.Payloads.rcp_rate
        | _ -> -1.);
    quench = (fun _ ~now:_ -> false);
  }

let install ~ctx ~until =
  let topo = Context.topo ctx in
  let ports =
    Array.init (Topology.link_count topo) (fun i ->
        let link = Topology.link topo i in
        {
          link;
          flows = Hashtbl.create 16;
          est = { fair = Link.rate link; rtt_avg = Context.init_rtt ctx };
        })
  in
  let inner = Rate_flow.install ~ctx ~ops in
  let t = { ctx; ports; inner } in
  (* Crash-reboot: the per-port flow table is soft state rebuilt from
     the next packets through; reset the estimators to their initial
     values. *)
  Context.on_switch_reboot ctx (fun node ->
      Array.iter
        (fun p ->
          if Link.src p.link = node then begin
            Hashtbl.reset p.flows;
            p.est.fair <- Link.rate p.link;
            p.est.rtt_avg <- Context.init_rtt ctx
          end)
        ports);
  Context.set_hooks ctx
    ~on_forward:(fun ~link pkt -> on_forward t ~link pkt)
    ~on_reverse:(fun ~fwd_link:_ _ -> ())
    ~deliver:(fun ~node pkt -> Rate_flow.deliver inner ~node pkt);
  let sim = Context.sim ctx in
  let clock = Sim.clock sim in
  Array.iter
    (fun p ->
      (* Purge flows whose sender vanished without a TERM (packet loss):
         a generous horizon so slow flows are never evicted spuriously.
         The scan closure is built once per port, not per tick. *)
      let stale = ref [] in
      let collect id seen =
        if clock.(0) -. seen.(0) > 0.5 then stale := id :: !stale
      in
      let rec tick () =
        if clock.(0) <= until then begin
          stale := [];
          Hashtbl.iter collect p.flows;
          if !stale <> [] then begin
            List.iter (Hashtbl.remove p.flows) !stale;
            recompute_fair p
          end;
          recompute_fair p;
          (Sim.delay_cell sim).(0) <- fmax p.est.rtt_avg 5e-5;
          ignore (Sim.schedule_cell_k sim k_tick tick)
        end
      in
      ignore (Sim.schedule_k sim k_tick ~delay:0. tick))
    ports;
  t

let start_flow t flow = Rate_flow.start_flow t.inner flow
