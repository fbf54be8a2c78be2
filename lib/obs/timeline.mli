(** Span / event timeline over a bounded ring buffer.

    Records four event kinds against monotonically increasing timestamps
    (seconds since [create]) and an integer [track] — one track per domain
    or logical lane, mapped to a Chrome-trace [tid] by
    {!Export.chrome_trace}:

    - [Begin]/[End] — a duration span (begin/end pairs per track);
    - [Instant] — a point event;
    - [Sample] — a named numeric time-series point (exported as a
      Chrome-trace counter event, plotted by Perfetto as a graph).

    The buffer keeps the {e newest} [capacity] events; older ones are
    overwritten and counted in {!dropped}, so attaching a timeline to a
    million-delivery run costs constant memory.  Pushes are one atomic
    fetch-and-add plus one store and are safe from concurrent domains. *)

type kind = Begin | End | Instant | Sample

type event = {
  ts : float;  (** Seconds since the timeline's creation. *)
  track : int;
  name : string;
  kind : kind;
  value : float;  (** Meaningful for [Sample]; 0 otherwise. *)
}

type t

val create : ?clock:(unit -> float) -> ?capacity:int -> unit -> t
(** [clock] defaults to [Unix.gettimeofday] (injectable for deterministic
    tests); [capacity] defaults to 65536 events.
    @raise Invalid_argument when [capacity < 1]. *)

val now : t -> float
(** Seconds since creation, on the timeline's clock. *)

val begin_span : t -> track:int -> string -> unit
val end_span : t -> track:int -> string -> unit
val instant : t -> track:int -> string -> unit
val sample : t -> track:int -> string -> float -> unit

val events : t -> event list
(** The retained window, oldest first (at most [capacity] events). *)

val iter : (event -> unit) -> t -> unit
val capacity : t -> int

val recorded : t -> int
(** Total events ever pushed, including overwritten ones. *)

val dropped : t -> int
(** [recorded - capacity] when the ring has wrapped, else 0. *)

val tracks : t -> int list
(** Distinct track ids in the retained window, ascending. *)
