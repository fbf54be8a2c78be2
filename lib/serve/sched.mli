(** Bounded MPMC job queue — the server's admission queue.

    Producers never block: {!try_push} answers immediately, [false]
    meaning full (or closed).  Consumers ({!pop}) block until an item or
    {!close} arrives; a closed queue still drains already-accepted items
    so graceful shutdown finishes accepted work. *)

type 'a t

val create : cap:int -> 'a t
(** @raise Invalid_argument if [cap < 1]. *)

val try_push : 'a t -> 'a -> bool
(** [false] = at capacity or closed; the item was not queued. *)

val pop : 'a t -> 'a option
(** Blocks; [None] only once closed {e and} drained. *)

val try_pop : 'a t -> 'a option
(** Non-blocking. *)

val close : 'a t -> unit
val length : 'a t -> int
