(** The per-link flow list of a PDQ switch (§3.3.1): entries kept in
    criticality order (most critical first), bounded to the
    [2κ] most critical flows (κ = number of sending flows) with an
    overall hard memory bound [M].

    The container is agnostic to the bounding policy — {!Switch_port}
    applies the κ-based trimming; this module only guarantees order and
    provides the primitives. Lookups return indices (-1 for "absent")
    rather than options, so the per-packet path allocates nothing. *)

type t

val create : unit -> t
(** Empty list. *)

val length : t -> int
val is_empty : t -> bool

val index_of : t -> int -> int
(** [index_of t flow_id] is the flow's index, 0 being the most
    critical stored flow, or -1 when it is not stored. *)

val mem : t -> int -> bool

val insert : t -> Flow_state.t -> int
(** Insert in criticality order; returns the insertion index. The flow
    must not already be present. *)

val remove_at : t -> int -> unit
(** Remove the entry at an index. Raises [Invalid_argument] when out
    of bounds. *)

val remove : t -> int -> bool
(** Remove by flow id; [false] when the flow was not stored. *)

val remove_least_critical : t -> unit
(** Drop the last (least critical) entry; no-op on an empty list. *)

val clear : t -> unit
(** Drop every entry. *)

val reposition : t -> int -> int
(** [reposition t i] restores order after the keyed fields of the
    entry at index [i] were mutated; returns its new index. *)

val get : t -> int -> Flow_state.t
(** [get t i] is the i-th most critical stored flow. Raises
    [Invalid_argument] when out of bounds. *)

val iteri : (int -> Flow_state.t -> unit) -> t -> unit
(** Iterate in criticality order with indices. *)

val fold : ('a -> Flow_state.t -> 'a) -> 'a -> t -> 'a
(** Fold in criticality order. *)

val sending_count : t -> int
(** κ: number of stored flows with positive rate. *)

val total_rate : t -> float
(** Sum of the stored flows' accepted rates. *)

val is_sorted : t -> bool
(** Invariant check (used by tests and the validation monitor): entries
    are in strictly increasing {!Flow_state.compare} order. *)
