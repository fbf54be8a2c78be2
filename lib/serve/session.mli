(** Session records and the server-wide session table.

    Lifecycle: [Queued -> Running -> (Done | Failed)], or [-> Cancelled]
    from either live state.  Transitions go through {!transition} (under
    the table lock, broadcasting to {!await} waiters); the {!t.cancel}
    flag is an [Atomic.t] so the engine's [stop] hook can poll it from a
    worker domain without locking. *)

type state =
  | Queued
  | Running
  | Done of string  (** Pre-rendered result JSON, echoed verbatim. *)
  | Cancelled of string
      (** Reason: ["cancel"] or ["deadline"]; a journal written by an
          older server may also restore ["watchdog"]. *)
  | Failed of Proto.error_code * string

val state_name : state -> string
val finished : state -> bool

type t = {
  id : string;
  conn : int;
  submit : Proto.submit;
  cancel : bool Atomic.t;
  mutable state : state;
  mutable credit_released : bool;
  mutable deliveries : int;
  mutable total_bits : int;
  mutable registry : Obs.Registry.t option;
      (** The session's live registry, installed by the worker when the
          run starts and kept after it finishes so a final [watch] can
          pick up the tail.  Only the registry: the run's timeline ring
          (64k samples) is dropped with the run, so a finished session
          costs its counters, not its trace.  Reads from the serve loop race the worker's
          plain stores — fine for telemetry, and the completion-time
          merge into the server registry is still the exact rollup. *)
  mutable watch_seen : Obs.Registry.snapshot;
      (** What the previous [watch] reply already covered; each watch
          answers the diff against this and advances it (under the table
          lock). *)
  mutable t_submitted : float;
      (** Wall clock, for latency measurement only — timing never enters
          the result payload (that would break byte-determinism). *)
  mutable t_finished : float;
}

type table

val create_table : unit -> table

val add : table -> conn:int -> now:float -> Proto.submit -> (t, unit) result
(** [Error ()] if the id is already taken; ids are never reused. *)

val find : table -> string -> t option

val remove : table -> string -> unit
(** Rolls back a submission the admission queue refused; sessions that
    were actually admitted stay queryable for the server's lifetime. *)

val state : table -> t -> state

val transition : table -> t -> (t -> 'a) -> 'a
(** Run a mutation under the table lock and wake {!await} waiters. *)

val await : table -> t -> state
(** Block until the session is {!finished}; returns the final state. *)

val fold : table -> (t -> 'a -> 'a) -> 'a -> 'a
