(** Binary min-heap of int payloads keyed by float priority, with stable
    tie-breaking: elements inserted with equal priority are popped in
    insertion order.

    The heap keeps its nodes in parallel flat arrays (unboxed float
    priorities, int insertion stamps, int payloads) and allocates only
    when it grows. A float passed to or returned from another module's
    function is boxed (no cross-module inlining), so priorities travel
    through a one-cell array: {!push_cell} reads the priority from
    [(cell h).(0)], and {!pop} and {!peek} write the minimum's
    priority there. Used by the flow-level simulator's max-min
    water-filling; the event queue of {!Sim} is a separate heap. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty heap. [capacity] pre-sizes the backing
    arrays (default 256). *)

val length : t -> int
(** Number of elements currently stored. *)

val is_empty : t -> bool
(** [is_empty h] is [length h = 0]. *)

val cell : t -> float array
(** The heap's one-cell priority exchange array. *)

val push : t -> float -> int -> unit
(** [push h prio v] inserts [v] with priority [prio]. O(log n). Boxes
    [prio] when called from another module; hot callers use
    {!push_cell}. *)

val push_cell : t -> int -> unit
(** [push_cell h v] inserts [v] with priority [(cell h).(0)]. *)

val pop : t -> int
(** [pop h] removes the minimum-priority element, breaking priority
    ties by insertion order, writes its priority to [(cell h).(0)] and
    returns its payload. O(log n). Raises [Invalid_argument] on an
    empty heap. *)

val peek : t -> int
(** [peek h] is the payload [pop] would return, with its priority
    written to [(cell h).(0)], without removing it. Raises
    [Invalid_argument] on an empty heap. *)

val clear : t -> unit
(** Remove all elements. *)
