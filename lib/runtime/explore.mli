(** Exhaustive schedule-space model checking.

    The paper's correctness claims (Theorems 3.1, 4.2, 5.1 and the Section 6
    mapping argument) are quantified over {e every} asynchronous schedule.
    The engine samples schedules; this module enumerates them: a depth-first
    search over the full tree of delivery interleavings, where a node is the
    configuration (vertex states, visited flags, multiset of in-flight
    messages) and each branch delivers one in-flight message, mirroring
    {!Engine.Make} delivery-for-delivery (including its halt-on-acceptance
    rule and send numbering).

    At every distinct configuration an invariant suite runs: the protocol's
    conservation law across the linear cut ({!Protocol_intf.CHECKABLE}),
    per-vertex structural invariants, broadcast soundness (never halt
    accepting while a reachable vertex is unvisited) and, on quiescence of a
    protocol expected to terminate, premature-quiescence detection.

    Three reductions keep the tree tractable, all exact:
    - identical in-flight copies (same edge, same wire bits) collapse into
      one branch ([pruned_dup]);
    - configurations are canonicalized ({!Canonical}) and memoized, with
      re-expansion governed by stored sleep sets ([pruned_memo]);
    - sleep sets prune one of the two orders of independent deliveries —
      deliveries at distinct non-terminal vertices commute ([pruned_sleep]).

    Past a configurable state/depth budget the search flips [truncated] and
    degrades to seeded bounded random walks running the same invariant
    suite.  Either way a violation carries a concrete delivery schedule that
    {!Make.replay} feeds back through the real engine via
    {!Scheduler.Replay}. *)

type violation_kind =
  | False_termination of int list
      (** Halted accepting with these reachable vertices unvisited. *)
  | Premature_quiescence
      (** No message in flight, terminal not accepting, on a protocol
          expected to terminate. *)
  | Conservation_violation of string
  | Local_invariant_violation of int  (** The offending vertex. *)

type violation = {
  kind : violation_kind;
  schedule : int list;
      (** The delivery sequence (engine send numbers) reaching the violating
          configuration from the initial one. *)
}

type stats = {
  states : int;  (** Distinct configurations fingerprinted. *)
  transitions : int;  (** Deliveries executed by the DFS. *)
  pruned_sleep : int;  (** Branches skipped by sleep sets. *)
  pruned_memo : int;  (** Branches skipped at covered revisits. *)
  pruned_dup : int;  (** Identical-copy branches collapsed. *)
  peak_depth : int;
  max_in_flight : int;
  truncated : bool;  (** A state/depth budget was hit. *)
  walks : int;  (** Random walks run in degraded mode. *)
  walk_deliveries : int;
}

type result = { stats : stats; violations : violation list }

val pruned_fraction : stats -> float
(** Fraction of considered branches pruned:
    [(sleep + memo + dup) / (transitions + sleep + memo + dup)]. *)

val describe_kind : violation_kind -> string

type replay = {
  r_outcome : Engine.outcome;
  r_deliveries : int;
  r_unreached : int list;
      (** Reachable-but-unvisited vertices when the replay stopped. *)
  r_trace : string;  (** Rendered {!Trace} of the replayed run. *)
}

module Make (P : Protocol_intf.CHECKABLE) : sig
  val explore :
    ?max_states:int ->
    ?max_depth:int ->
    ?max_violations:int ->
    ?walks:int ->
    ?walk_len:int ->
    ?walk_seed:int ->
    ?expect_termination:bool ->
    ?obs:Obs.t ->
    Digraph.t ->
    result
  (** Defaults: [max_states = 200_000] distinct configurations,
      [max_depth = 2_000] deliveries per path, stop after
      [max_violations = 1], degrade to [walks = 64] random walks of at most
      [walk_len = 5_000] deliveries seeded from [walk_seed];
      [expect_termination] (default [true]) controls whether quiescence
      without acceptance is a violation.

      [obs], when given, records [explore.*] telemetry: atomic counters
      (states, transitions, the three prune tallies, memo hits, walks,
      walk deliveries, conservation checks) accumulated at the end of
      the search — atomically, so parallel sweeps can share one sink —
      plus [explore.dfs] / [explore.walks] spans and, every
      [sample_every] transitions, timeline samples of states seen,
      states/second, current frontier depth, sleep-set prunes and the
      memo hit rate.  The timeline track is the running domain's id. *)

  val replay :
    ?payload_bits:int ->
    ?trace_limit:int ->
    Digraph.t ->
    int list ->
    replay
  (** Re-run a recorded schedule through {!Engine.Make} under
      [Scheduler.Replay], returning the outcome, the soundness diagnosis and
      the rendered trace.  Deterministic: same schedule, same run.  Raises
      [Invalid_argument] if [payload_bits < 0]. *)
end
