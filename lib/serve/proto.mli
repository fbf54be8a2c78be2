(** Request parsing and response envelopes of the serve wire protocol.

    One JSON object per line.  Requests carry an ["op"] member ([submit],
    [status], [result], [cancel], [watch], [metrics], [shutdown]); responses are
    [{"id":...,"ok":true,"result":...}] or
    [{"id":...,"ok":false,"error":{"code":...,"msg":...}}].  Error codes
    are a closed enum — clients branch on the code, never the message.
    All numeric knobs are range-checked here, so everything behind
    {!parse_request} runs with known-good values. *)

type error_code =
  | Parse_error
  | Bad_request
  | Unknown_graph
  | Unknown_protocol
  | Unknown_id
  | Duplicate_id
  | Overloaded  (** Admission queue full; resubmit later. *)
  | No_credit  (** The connection's unfinished-session cap is reached. *)
  | Not_done  (** [result] asked before the session finished. *)
  | Cancelled_error  (** [result] of a cancelled session. *)
  | Shutting_down

val code_string : error_code -> string
(** The wire spelling: ["parse_error"], ["overloaded"], ... *)

val code_of_string : string -> error_code
(** Inverse of {!code_string}; unknown spellings degrade to
    [Bad_request] (journal replay of [Failed] records must not fail on a
    code written by a newer binary). *)

type fault_spec = {
  f_drop : float;
  f_duplicate : float;
  f_max_delay : int;
  f_corrupt : float;
  f_kill : float;
  f_seed : int;
}

type churn_spec = { c_rate : float; c_seed : int; c_t : int option }

type submit = {
  sub_id : string;
  sub_protocol : string;
  sub_graph : string;  (** Name in the server's graph table. *)
  sub_scheduler : string;  (** ["fifo" | "lifo" | "random"] (seeded). *)
  sub_seed : int;  (** Seeds the [random] scheduler's PRNG. *)
  sub_payload : int;
  sub_step_limit : int option;  (** [None] = the server default. *)
  sub_faults : fault_spec option;
  sub_churn : churn_spec option;
  sub_deadline_ms : int option;
  sub_key : string option;
      (** Client-supplied idempotency key: a duplicate key answers with
          the original session's state/result instead of re-running. *)
}

type request =
  | Submit of submit
  | Status of string
  | Result of string
  | Cancel of string
  | Watch of string
      (** Live telemetry: each [watch] of a session answers
          [{"state":...,"metrics":...}] where [metrics] is the
          registry {e diff} since this session's previous [watch] —
          polling it periodically streams incremental snapshots of a
          long run.  The engine publishes its counters every
          [sample_every] deliveries and at run end, so a running
          session's counters move in those steps. *)
  | Metrics
  | Shutdown

val parse_request :
  string -> (request, string option * error_code * string) result
(** Parse one frame.  A submit's optional ["engine"] member, from clients
    of the former two-engine server, must be ["classic"] or ["flat"] and is
    then ignored: there is one engine.  Any other value is a
    [Bad_request].  The error triple carries the request's ["id"] member
    when one could still be extracted, so even a rejection names the
    session it answers. *)

val ok : ?id:string -> string -> string
(** [ok ?id result_json] builds a success envelope; [result_json] is
    embedded {e verbatim} (it must be pre-rendered JSON), which is what
    makes stored session results byte-identical on every [result] call. *)

val error : ?id:string -> error_code -> string -> string
(** [error ?id code msg] builds a failure envelope. *)

val state_result : string -> string
(** [{"state":"queued"}] etc. — the [submit]/[status]/[cancel] payload. *)
