(** Execution of one submitted session.

    Everything reaching {!run} was validated at the protocol edge and the
    graph resolved from the server table.  The hard contract is
    {e determinism}: the result payload is a pure function of
    (graph, submit fields) — fixed key order, engine-report counters only,
    no wall clock, no session id — so equal submissions render
    byte-identical JSON regardless of concurrent server load. *)

type done_run = {
  json : string;  (** The deterministic result payload. *)
  r_outcome : Runtime.Engine.outcome;
  r_deliveries : int;
  r_total_bits : int;
}

val run :
  stop:(unit -> bool) ->
  ?obs:Obs.t ->
  step_limit:int ->
  Proto.submit ->
  Digraph.t ->
  done_run
(** Runs on the calling domain; [stop] is the engine's cooperative
    cancellation hook, [step_limit] the server default (a per-session
    [step_limit] overrides it), [obs] the session's private telemetry
    sink (rolled up by the server afterwards).  The graph is the one the
    server built at boot, shared by every session on it. *)
