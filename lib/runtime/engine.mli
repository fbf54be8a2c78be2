(** Asynchronous execution of an anonymous protocol over a network.

    The engine injects the protocol's initial emission on the out-edges of
    [s], then repeatedly asks the {!Scheduler} for an in-flight message,
    delivers it to its target vertex, applies the protocol's [receive], and
    puts the produced messages in flight.  It stops as soon as the terminal's
    state becomes accepting ([Terminated]), when no message is in flight
    ([Quiescent] — how "the protocol never halts" manifests in a finite
    simulation of the paper's non-termination cases), or at a step limit.

    Every delivery is charged its exact encoded size in bits (plus
    [payload_bits], modelling the broadcast message [m] that rides on every
    protocol message), giving the paper's three complexity measures directly:
    total communication, required bandwidth (max bits over one edge), and
    message-size bounds.  Per-vertex memory (the state-space quality measure
    of Section 2) is tracked as [max_state_bits].

    When a {!Faults} specification is supplied, every send is filtered
    through its per-edge plan: copies may be dropped, duplicated, held back
    ([delay] — re-entering the pool at a later step, which reorders even the
    [Fifo] schedule), corrupted (one bit of the wire encoding flipped, then
    pushed through the protocol's real [decode] — an unparseable encoding is
    consumed undelivered and counted in [garbled_drops], a parseable-but-
    different one is delivered and counted in [corrupted_deliveries]), or
    lost to a permanently killed edge; and every copy popped for delivery
    meets the edge's churn state, which may have taken the edge away.
    Faulty runs are reproducible: all draws come from per-edge PRNG streams
    derived from the fault seeds.

    A {!Vfaults} specification makes the {e vertices} unreliable as well:
    deliveries can be stuttered away, swallowed by a down vertex, or trigger
    a crash (crash-stop, restart-with-amnesia, restart-from-checkpoint).
    A {!Supervisor} config arms the self-healing layer: a per-vertex state
    checkpoint after every completed receive (see {!Supervisor} for why
    that cadence is the sound one), and when the pool runs dry with the
    terminal not accepting, up to [max_retries] exponential-backoff
    retransmission rounds of each edge's last message.  Both compose with
    edge faults and are reproducible from their seeds.

    The executor walks the graph's CSR arrays, encodes each distinct
    message value once into an arena, and — for a fault-free, hook-free
    [Fifo], [Lifo] or [Random] run of a protocol a pre-run probe certifies
    as flood-shaped — delivers through a specialized loop over an int ring
    (Fifo) or stack (Lifo, Random) of edge indices.  None of that is
    observable: reports, Obs counters and lineage are those of a plain
    delivery-by-delivery execution, pinned by [test/test_engine_oracle.ml],
    and a [Random] run makes the same draws from its generator. *)

type outcome =
  | Terminated  (** The terminal's stopping predicate fired. *)
  | Quiescent  (** No messages in flight and the terminal never accepted. *)
  | Step_limit  (** Aborted; indicates a diverging protocol or a tiny limit. *)
  | Cancelled
      (** The caller's [stop] hook returned [true] between two deliveries
          (cooperative cancellation — deadlines and [cancel] requests in the
          serving layer).  In-flight accounting is intact: undelivered
          copies stay counted in [final_in_flight] and reach
          [on_undelivered], exactly as under [Step_limit]. *)

type fault_stats = {
  dropped_copies : int;
      (** Copies lost to the drop coin or to a dead edge. *)
  extra_copies : int;  (** Duplicates materialized beyond the originals. *)
  delayed_copies : int;  (** Copies held back at least one step. *)
  corrupted_deliveries : int;
      (** Deliveries whose decoded message differed from what was sent. *)
  garbled_drops : int;
      (** Corrupted copies whose encoding no longer decoded; consumed
          undelivered. *)
  checksum_rejects : int;
      (** Corrupted copies a checksum-bearing codec {e detected} and
          refused (it raised {!Protocol_intf.Checksum_reject}); consumed
          undelivered but, unlike [garbled_drops], counted as a success of
          the redundancy layer. *)
  dead_edges : int list;  (** Dense indices of permanently killed edges. *)
  adds : int;  (** Initially-absent edges that appeared. *)
  removes : int;  (** Churn removal transitions fired. *)
  heals : int;  (** Removed edges that came back up. *)
  messages_lost_in_flight : int;
      (** Copies swallowed by an absent edge (charged no bits — they never
          crossed the wire). *)
  window_violations : int;
      (** Outages breaching the installed T-interval contract; 0 without a
          contract, and 0 by construction after {!Faults.constrain}. *)
}

val no_faults_stats : fault_stats
(** All-zero counters, as reported by fault-free runs. *)

type vertex_fault_stats = {
  crashes : int;  (** Crash events fired (any recovery mode). *)
  restarts : int;  (** Crashes that came back up (amnesia or restore). *)
  lost_state_bits : int;
      (** State bits destroyed by crashes: the full pre-crash state under
          amnesia, the gap down to the checkpoint under restore. *)
  down_drops : int;
      (** Deliveries swallowed by a down or stopped vertex. *)
  stuttered : int;  (** Deliveries silently swallowed by a healthy vertex. *)
  stopped_vertices : int list;  (** Crash-stopped vertices, sorted. *)
  checkpoints : int;  (** Per-vertex state snapshots taken. *)
  replayed : int;  (** Copies re-sent by supervisor retransmission rounds. *)
}

val no_vfaults_stats : vertex_fault_stats

type 'state report = {
  outcome : outcome;
  deliveries : int;  (** Total messages delivered. *)
  total_bits : int;  (** Total communication complexity, in bits. *)
  max_edge_bits : int;  (** Required bandwidth: max bits over a single edge. *)
  max_message_bits : int;  (** Largest single message. *)
  max_state_bits : int;  (** Largest per-vertex state ever held. *)
  max_in_flight : int;  (** Channel high-water mark: most messages in flight. *)
  final_in_flight : int;
      (** Messages still pooled (or delay-held) when the run stopped: 0 for
          genuine quiescence, positive under [Step_limit] or early
          termination — distinguishing starvation from true quiescence. *)
  distinct_messages : int;  (** |Sigma_G|: distinct symbols seen on edges. *)
  edge_messages : int array;  (** Per dense edge index. *)
  edge_bits : int array;
  visited : bool array;
      (** Vertices that processed at least one (parseable) message. *)
  states : 'state array;  (** Final state of every vertex. *)
  fault_stats : fault_stats;  (** What the edge adversary actually did. *)
  vfault_stats : vertex_fault_stats;
      (** What the vertex-fault plan and the supervisor actually did. *)
  rounds : int;
      (** The longest causal chain delivered ({!Obs.Lineage.max_depth}): the
          synchronous round count under [Fifo] or [Rounds] without faults. *)
}

type event = {
  step : int;
  seq : int;
      (** The delivered copy's global send sequence number — the currency
          of {!Scheduler.Replay} schedules. *)
  from_vertex : Digraph.vertex;
  from_port : int;
  to_vertex : Digraph.vertex;
  to_port : int;
  bits : int;
}
(** One delivery, as seen by a trace hook. *)

exception Codec_mismatch of string
(** Raised in [verify_codec] mode when a message does not round-trip
    through its wire encoding. *)

module Make (P : Protocol_intf.PROTOCOL) : sig
  type state = P.state
  type message = P.message

  val run :
    ?scheduler:Scheduler.t ->
    ?payload_bits:int ->
    ?step_limit:int ->
    ?faults:Faults.t ->
    ?vfaults:Vfaults.t ->
    ?supervisor:Supervisor.config ->
    ?verify_codec:bool ->
    ?stop:(unit -> bool) ->
    ?obs:Obs.t ->
    ?lineage:Obs.Lineage.t ->
    ?on_deliver:(event -> P.message -> unit) ->
    ?on_pop:(int -> unit) ->
    ?on_undelivered:(P.message -> unit) ->
    Digraph.t ->
    P.state report
  (** Defaults: [scheduler = Fifo], [payload_bits = 0],
      [step_limit = 10_000_000], no faults, no vertex faults, no
      supervisor, [verify_codec = false], no [stop] hook.
      Raises [Invalid_argument] if [payload_bits < 0].

      Under {!Scheduler.Rounds} the run ends [Terminated] only after the
      rest of the round the terminal accepted in: [final_in_flight] then
      counts the next round's copies, and [max_in_flight] stays the channel
      high-water mark, not the widest round.

      [stop], when given, is polled between deliveries; the first [true]
      ends the run with outcome {!Cancelled} at a message boundary — no
      partial receive, no accounting leak.  The serving layer implements
      both [cancel] requests and per-session deadlines with it.

      Churn in [faults] acts {e under} corruption and the vertex faults: a
      copy popped for delivery on a currently-absent edge is consumed
      (visible to [on_pop], so replays stay faithful) but charged no bits
      and never reaches the corrupt-bit or vertex-fault coins.  Churn clocks
      are edge-local — see {!Faults}.

      With [supervisor] armed, per-vertex checkpoints are durable: an
      [Amnesia] crash restores from the last checkpoint exactly like
      [Restore] (full state loss after a vertex forwarded its flow would
      otherwise erase coverage invisibly to the terminal's conservation
      cut and falsely terminate), and quiescence short of acceptance
      triggers retransmission rounds of each edge's last message with
      exponential backoff, up to [max_retries].

      [on_pop] fires with the seq number of {e every} consumed copy — also
      the ones a garble destroys or a down vertex swallows — which is
      exactly the stream a faithful {!Scheduler.Replay} schedule must
      contain ([on_deliver] only sees copies that reached [P.receive]).

      [obs], when given, turns on telemetry: [engine.*] counters
      (deliveries, total_bits and sends, published from the run's own
      tallies every [sample_every] deliveries and at the end of the run,
      so the registry lags the run between sample points; and the 18
      fault counters — every field of [fault_stats] and
      [vertex_fault_stats] but the lists, [engine.churn.*] for churn —
      added once at the end of the run; a registry shared by several runs
      holds their sums), [engine.message_bits] / [engine.receive_ns]
      histograms, and — every [sample_every] deliveries — gauge +
      timeline samples of in-flight depth, wavefront size (visited
      vertices) and the message-count cut residual
      [entered - delivered - in_flight], which is 0 whenever the
      engine's accounting is conserving messages.  Counter totals
      reconcile exactly with the returned {!type:report}; at a sample
      point, [engine.deliveries] counts every delivery so far and
      [engine.total_bits] / [engine.sends] stop just before the sampled
      one.  The run also
      records [engine.gc.*] gauges ({!Gc.quick_stat} allocation deltas
      and end-of-run heap size) and mirrors the timeline ring's
      overwrite count as the [timeline.dropped] counter.

      [lineage], when given, records the causal-provenance forest: every
      consumed copy becomes an {!Obs.Lineage} node (id = the 1-based
      delivery counter) whose parent is the delivery whose [P.receive]
      emitted it — 0 for root emissions and supervisor retransmissions.
      Node count reconciles exactly with [report.deliveries], and ids,
      parents and depths depend only on the schedule.

      [on_undelivered] is called once per message still in flight (pooled or
      delay-held) when the run stops — together with [states] this is the
      full final linear cut, so callers can evaluate a protocol's
      conservation law even on runs that terminate with messages pending. *)
end
