(** Receiver-side reassembly state for one flow (or subflow).

    Tracks which application bytes have arrived as a set of disjoint
    byte intervals so duplicates are not double-counted and arbitrary
    segment boundaries are exact (M-PDQ load shifts create unaligned
    ones), and exposes the cumulative in-order byte count used for
    ACKs (go-back-N / TCP semantics).

    The intervals live in two growable [int] arrays. An arrival at or
    past the last interval costs O(1); filling a hole costs a binary
    search plus a blit. Once the arrays have grown to the flow's peak
    hole count, {!on_data} allocates nothing. *)

type t

val create : ?capacity:int -> size:int -> segment:int -> unit -> t
(** [size] is the flow size in bytes. [capacity] (default [size]) is
    the largest size {!set_size} may later grow to — M-PDQ subflows can
    be assigned up to the whole parent flow. [segment] is the full
    data-packet payload size; it is only validated (must be positive),
    since arrivals are tracked at byte granularity. *)

val set_size : t -> int -> unit
(** Change the expected size (within [capacity], not below the bytes
    already received). *)

val on_data : t -> seq:int -> bytes:int -> unit
(** Record arrival of [bytes] application bytes starting at offset
    [seq]. Duplicate deliveries are idempotent. *)

val cumulative_ack : t -> int
(** Number of bytes received contiguously from offset 0. *)

val received_bytes : t -> int
(** Total distinct bytes received (regardless of order). *)

val size : t -> int

val complete : t -> bool
(** All [size] bytes have arrived. *)
