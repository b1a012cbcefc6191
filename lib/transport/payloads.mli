(** Per-protocol packet payloads: each transport extends
    {!Pdq_net.Packet.payload} with its own control block. ACK-direction
    blocks carry the cumulative acknowledged byte count and an echoed
    departure timestamp for RTT sampling. *)

type ack_info = {
  cum_ack : int;   (** Receiver's cumulative in-order byte count. *)
  echo_ts : float; (** [sent_at] of the packet being acknowledged. *)
}

type rcp_ctrl = {
  mutable rcp_rate : float; (** Bottleneck fair rate, lowered per hop. *)
  rcp_rtt : float;          (** Sender's RTT estimate, for switch averaging. *)
}

type d3_ctrl = {
  d3_desired : float;
      (** Requested rate: remaining size / time to deadline (0 for
          best-effort flows). *)
  mutable d3_allocated : float;
      (** Granted rate, lowered per hop (FCFS + fair share). *)
  d3_rtt : float;
}

type Pdq_net.Packet.payload +=
  | Pdq_sched of Pdq_core.Header.t * ack_info
      (** PDQ scheduling header (mutated by switches in flight) plus
          ack info (meaningful on the reverse path). *)
  | Rcp_ctrl of rcp_ctrl * ack_info
  | D3_ctrl of d3_ctrl * ack_info
  | Tcp_ctrl of ack_info  (** TCP needs only the ack block. *)

val pdq_header_bytes : int
(** Extra wire bytes of the PDQ scheduling header (16, §7). *)

val rcp_header_bytes : int
val d3_header_bytes : int

val no_ack : ack_info
(** Stands for "no ack block"; compare with [==]. *)

val ack_of : Pdq_net.Packet.payload -> ack_info
(** The ack block of any protocol payload, or {!no_ack} when it has
    none. *)
