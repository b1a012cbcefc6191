type ack_info = { cum_ack : int; echo_ts : float }
type rcp_ctrl = { mutable rcp_rate : float; rcp_rtt : float }

type d3_ctrl = {
  d3_desired : float;
  mutable d3_allocated : float;
  d3_rtt : float;
}

type Pdq_net.Packet.payload +=
  | Pdq_sched of Pdq_core.Header.t * ack_info
  | Rcp_ctrl of rcp_ctrl * ack_info
  | D3_ctrl of d3_ctrl * ack_info
  | Tcp_ctrl of ack_info

let pdq_header_bytes = Pdq_core.Header.wire_bytes
let rcp_header_bytes = 8
let d3_header_bytes = 12

let no_ack = { cum_ack = -1; echo_ts = 0. }

let ack_of = function
  | Pdq_sched (_, a) | Rcp_ctrl (_, a) | D3_ctrl (_, a) | Tcp_ctrl a -> a
  | _ -> no_ack
