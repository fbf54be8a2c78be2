(** Unix-socket client for the serve protocol.

    Request/response over one connection — the server answers every frame
    with exactly one frame in order, so {!request} is a blocking
    round-trip.  {!smoke} is the end-to-end probe used by [anonet client
    smoke] and CI: a mixed flood/counting/churned load with every seed
    submitted twice, checking byte-determinism and the metrics
    reconciliation contract purely from the client side of the socket. *)

type t

val connect : string -> (t, string) result
val close : t -> unit

val request : t -> string -> (string, string) result
(** Send one frame, read one response frame. *)

(** {1 Retry}

    Capped exponential backoff with seeded jitter, reusing the
    supervisor's retransmission schedule ([Runtime.Supervisor.backoff])
    so there is exactly one backoff policy in the tree. *)

type retry = {
  r_attempts : int;  (** Max retries beyond the first attempt. *)
  r_base_ms : int;  (** Backoff base (doubles per round, jittered). *)
  r_seed : int;  (** Jitter PRNG seed — schedules are reproducible. *)
}

val default_retry : retry
(** 5 retries, 50ms base, seed 0. *)

val retry_delay_ms : retry -> Prng.t -> round:int -> int
(** The wait before retry [round] (0-based): [Supervisor.backoff ~round].
    Exposed so tests can pin the policy-reuse contract. *)

val connect_retry : ?retry:retry -> string -> (t, string) result
(** {!connect}, retrying refused/missing sockets — rides out a server
    restart. *)

val request_retry : ?retry:retry -> t -> string -> (string, string) result
(** {!request}, resending on an [overloaded] answer.  Other errors return
    immediately. *)

val result_of : string -> (Obs.Json.value, string) result
(** Unwrap a response envelope: the ["result"] value, or the error code
    ([Error "overloaded"], ...). *)

val watch : t -> string -> (Obs.Json.value, string) result
(** One [watch] round-trip for a session id: the
    [{"state":...,"metrics":...}] result value, where [metrics] holds
    the registry diff accumulated since the previous [watch] of the same
    session.  Poll it to stream a long run's telemetry live. *)

type smoke_report = {
  sessions : int;
  ok_results : int;
  determinism_ok : bool;  (** Equal submissions rendered equal bytes. *)
  reconcile_ok : bool;
      (** ["sessions.engine.deliveries"] = sum of result deliveries. *)
  sum_deliveries : int;
  metrics_deliveries : int;
}

val smoke : ?sessions:int -> socket:string -> unit -> (smoke_report, string) result
(** Needs a server with a graph named ["small"].  Default 30 sessions. *)

val shutdown : socket:string -> (string, string) result
(** Connect, send [{"op":"shutdown"}], return the raw response. *)
