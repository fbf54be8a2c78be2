(** Multicore execution of an anonymous protocol: the sequential
    {!Runtime.Engine} semantics, sharded across domains.

    Vertices are partitioned across [domains] shards; each shard's domain
    owns the states, visited flags and per-edge counters of its vertices
    ([edge_messages]/[edge_bits] entries are charged at delivery, and every
    edge is delivered to exactly one owner), so those arrays need no locks —
    each index has a single writer, and [Domain.join] publishes them to the
    caller.  A delivery that produces sends pushes each copy into the target
    owner's lock-free {!Mailbox}.

    Termination uses a global in-flight counter: incremented {e before} a
    copy enters a mailbox (or a shard's delay queue), decremented only
    {e after} its delivery has been fully processed — children already
    counted — so the counter reads zero iff the whole network is quiescent,
    and zero is stable.  The first shard to observe zero (or an accepting
    terminal, or the step limit) publishes the outcome with a
    compare-and-set; the others stop at their next loop check.

    The delivery order so produced is just another legal asynchronous
    schedule (DESIGN §5): for the paper's protocols the outcome, the visited
    set and any conservation law agree with the sequential engine, while
    schedule-dependent measures (deliveries for non-tree protocols, bit
    high-water marks) may legitimately differ.

    Fault plans are honored with per-shard {!Runtime.Faults} instances.
    Because an edge's sends all originate in the shard owning its source
    vertex, each edge's [on_send] draw stream is consumed by exactly one
    instance and reproduces the sequential per-edge stream; only
    delivery-time [corrupt_bit] draws interleave differently (so with
    [corrupt = 0] the merged fault counters match the sequential run
    exactly — see the parity test).

    {!Runtime.Vfaults} plans are honored the same way, with per-shard
    instances: all deliveries addressed to a vertex happen in its owner's
    shard, so each vertex's fault stream and downtime clock (measured in
    deliveries {e to that vertex}) live in exactly one instance, and
    scripted crash fates fire at the same per-vertex delivery counts as in
    the sequential engine.  Checkpointing for [Restore] recovery runs at
    the fixed sound cadence of 1 (snapshot after every completed receive);
    the {!Runtime.Supervisor} retransmission layer is sequential-engine
    only — it needs the global quiescence probe the shards only pass at
    shutdown — so [vfault_stats.replayed] is always 0 here.

    {!Runtime.Churn} specs ride the same single-writer argument once more:
    an edge's offers all happen in the shard owning its target vertex, so
    each edge's churn clock (measured in offers {e on that edge}) and PRNG
    stream live in exactly one per-shard instance, and churn fates — which
    copies an absent edge swallows, when outages heal — match the
    sequential engine offer-for-offer.  [churn_stats] is the sum over
    shard instances and reconciles exactly with the [engine.churn.*]
    counters when [obs] is supplied. *)

type sharding =
  [ `Round_robin  (** [owner v = v mod domains]. *)
  | `Bfs_layers
    (** Owner by BFS depth from [s] mod [domains]: keeps a wavefront's
        vertices together, so tree/DAG floods hand whole layers between
        shards instead of scattering every delivery. *) ]

module Make (P : Runtime.Protocol_intf.PROTOCOL) : sig
  type full = {
    report : P.state Runtime.Engine.report;
    leftover : P.message list;
        (** Messages still in flight when the run stopped (pooled, delayed
            or stranded in a mailbox) — the in-flight part of the final
            linear cut, as [Engine]'s [on_undelivered] hook reports it. *)
  }

  val run_full :
    ?domains:int ->
    ?sharding:sharding ->
    ?payload_bits:int ->
    ?step_limit:int ->
    ?faults:Runtime.Faults.t ->
    ?vfaults:Runtime.Vfaults.t ->
    ?churn:Runtime.Churn.t ->
    ?stop:(unit -> bool) ->
    ?obs:Obs.t ->
    ?lineage:Obs.Lineage.t ->
    Digraph.t ->
    full
  (** Defaults: [domains = Domain.recommended_domain_count ()] (clamped to
      at least 1), [sharding = `Round_robin], [payload_bits = 0],
      [step_limit = 10_000_000], no faults, no [stop] hook.  The report's
      [final_in_flight] always equals [List.length leftover].

      [stop], when given, must be safe to call from any domain (the serve
      layer reads one [Atomic.t]); every shard polls it once per scheduling
      round, and the first [true] publishes outcome
      {!Runtime.Engine.Cancelled} via the same compare-and-set as the other
      stop conditions — undelivered copies land in [leftover] with in-flight
      accounting intact.

      [obs], when given, records per-shard telemetry on track [d] (the
      shard index): a [par.shard] span covering the worker's life,
      [par.idle] spans around quiescence-polling stretches, and — every
      [sample_every] local deliveries — samples of cumulative shard
      deliveries, the last mailbox batch size and the global in-flight
      count.  At worker exit each shard flushes atomic counters
      [par.shard<d>.deliveries], the grand total [par.deliveries] (always
      equal to the report's [deliveries]) and [par.idle_spins].

      [lineage], when given, records the causal forest with per-shard
      recorders merged into the caller's after join.  Node ids come from
      the global delivery-slot claim (unique, 1-based, reconciling with
      [deliveries]); [n_track] is the delivering shard.  Unlike the
      sequential engine the id {e assignment} is schedule-dependent, so
      there is no cross-engine parity contract here — only the
      node-count reconciliation. *)

  val run :
    ?domains:int ->
    ?sharding:sharding ->
    ?payload_bits:int ->
    ?step_limit:int ->
    ?faults:Runtime.Faults.t ->
    ?vfaults:Runtime.Vfaults.t ->
    ?churn:Runtime.Churn.t ->
    ?stop:(unit -> bool) ->
    ?obs:Obs.t ->
    ?lineage:Obs.Lineage.t ->
    Digraph.t ->
    P.state Runtime.Engine.report
  (** [run_full] without the leftover list. *)
end
