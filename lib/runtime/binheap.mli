(** Array-backed binary min-heap on polymorphic-compare keys.

    Extracted from the engine so the same structure backs both the
    [Edge_priority] in-flight pool and the fault-injection delay queue, and
    so the heap-order property can be tested directly.  Keys are compared
    with [Stdlib.compare]; callers that need stable order include a
    sequence number in the key (e.g. [(priority, seq)]). *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val length : ('k, 'v) t -> int
val is_empty : ('k, 'v) t -> bool

val push : ('k, 'v) t -> 'k -> 'v -> unit

val top : ('k, 'v) t -> 'k * 'v
(** Minimal-key entry of a non-empty heap, as stored: no allocation.
    @raise Invalid_argument on an empty heap. *)

val remove_top : ('k, 'v) t -> unit
(** Remove the minimal-key entry of a non-empty heap.
    @raise Invalid_argument on an empty heap. *)

val pop : ('k, 'v) t -> ('k * 'v) option
(** Remove and return the minimal-key entry. *)
