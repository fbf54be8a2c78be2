(** The long-lived multi-session broadcast service.

    One {!t} owns a graph table (family specs resolved once at startup),
    the session table, a bounded admission queue drained by worker
    domains, per-connection submission credits, and a server-wide
    [Obs.Registry] into which every finished session's telemetry is
    rolled up under the ["sessions."] prefix.

    {!handle_line} {e is} the protocol — the stdio/socket event loop, the
    in-process tests and the bench all drive the same function — and is
    safe to call from any domain.

    Reconciliation contract: a worker merges a session's registry before
    publishing its final state, so a [metrics] snapshot taken after
    observing a result already contains that session —
    ["sessions.engine.deliveries"] equals the sum of [deliveries] over
    the results observed so far, exactly.

    Durability contract (with [journal] set): every submit is journaled
    before its acknowledgement leaves {!handle_line}, and a session's
    terminal record is journaled before its state becomes pollable.
    The journal's durability rule: [Submitted], [Cancelled] and [Failed]
    records are fsynced before [append] returns; [Result] records are only
    written through, because a lost [Result] is recomputed: replay reruns
    the session deterministically and checks the digest of any [Result]
    that survived.  {!create} replays the log on boot by taking again the
    steps the live server took when it wrote each record — acknowledged ⇒
    replayable, and the serve layer's byte-determinism makes replay {e be}
    recovery. *)

type config = {
  graphs : (string * string) list;
      (** Name -> family spec ({!Digraph.Families.of_spec} grammar). *)
  workers : int;  (** 0 = no domains; drain with {!step} (tests). *)
  max_queue : int;  (** Admission-queue bound; beyond it: [overloaded]. *)
  credits : int;
      (** Max unfinished sessions per connection; beyond it: [no_credit]. *)
  step_limit : int;  (** Default when a submit names none. *)
  sample_every : int;  (** Per-session [Obs] sampling cadence. *)
  max_line : int;  (** Wire frame bound. *)
  journal : string option;
      (** Write-ahead log path; [None] disables durability. *)
  journal_sync : bool;
      (** Apply the journal's durability rule (group-committed fsyncs).
          [false] = every record written through without fsync, for
          throwaway servers and tests. *)
}

val default_config : config
(** One graph ["small" = comb:8], 2 workers, queue 64, 32 credits; no
    journal. *)

(** What journal replay did at boot — all zeros / [false] for a fresh
    log.  Mirrored exactly into ["server.recovered.*"] counters. *)
type recovery = {
  rec_replayed : int;  (** Submits re-executed during recovery. *)
  rec_verified : int;
      (** Re-executed results whose bytes matched the journaled digest. *)
  rec_mismatched : int;  (** Determinism violations — should be 0. *)
  rec_completed : int;
      (** Acknowledged-but-unfinished submits finished by recovery. *)
  rec_cancelled : int;
      (** Restored from [Cancelled] records, not re-run.  Rollback records
          (a submit admission refused) are not counted: replay drops
          that session as admission did, leaving the id and key free. *)
  rec_failed : int;  (** Restored from [Failed] records, not re-run. *)
  rec_orphans : int;  (** Terminal records with no surviving submit. *)
  rec_unreplayable : int;
      (** Journaled sessions that need a rerun (no terminal record, or a
          [Result] to verify) but that this process can no longer run —
          e.g. their graph was dropped from the config — restored as
          [Failed]; also submit records whose line no longer parses.  A
          journaled cancel or failure is restored without a rerun, so it
          never counts here. *)
  rec_torn : bool;  (** The log had a damaged tail (truncated away). *)
}

type t

val create : ?config:config -> unit -> (t, string) result
(** Resolves every graph spec; [Error] names the offending spec.  With a
    [journal] path, scans the log, truncates any torn tail, replays it
    (blocking until recovery completes) and opens it for append.  Worker
    domains are NOT spawned yet — {!serve_loop} does, or call
    {!start_workers} yourself. *)

val handle_line : t -> conn:int -> string -> string
(** Process one request frame, return one response frame (no newline).
    [conn] scopes submission credits; any int is a valid connection. *)

val handle_overflow : t -> string
(** The response for an over-long frame ({!Wire.event.Overflow}); counts
    it on ["server.frame_errors"] and ["server.wire.overflows"]. *)

val start_workers : t -> unit
(** Spawn the worker domains. *)

val step : t -> bool
(** Run one queued session inline on the calling domain ([false] = queue
    empty).  Deterministic drain for [workers = 0] tests. *)

val stop : t -> unit
(** Close the admission queue, join the workers (accepted sessions finish
    first), fail anything still queued, close the journal.  Queued sessions drained here get no terminal journal
    record, so the next boot re-executes them.  Idempotent. *)

val shutting_down : t -> bool
(** A [shutdown] request was received (or {!stop} ran). *)

val serve_loop : ?socket:string -> ?stdio:bool -> t -> unit
(** Run the single-threaded select loop until a [shutdown] request (or
    EOF on stdin in stdio-only mode), then {!stop}.  [socket] is a Unix
    domain socket path (unlinked and rebound on entry, removed on exit);
    [stdio] serves connection 0 on stdin/stdout.  At least one of the two
    is required.  Ignores [SIGPIPE]. *)

(** {1 Introspection} (tests and bench) *)

val registry : t -> Obs.Registry.t

val recovery : t -> recovery option
(** [Some] iff this server booted with a journal (fresh log ⇒ all-zero
    summary). *)

val journal_stats : t -> Journal.stats option

val await : t -> string -> Session.state option
(** Block until the session finishes; [None] = unknown id.  Needs a
    drainer (workers or a {!step} caller) to ever return. *)

val session_times : t -> string -> (float * float) option
(** [(submitted, finished)] wall-clock stamps, for latency measurement. *)

