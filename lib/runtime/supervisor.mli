(** The self-healing watchdog layer of the sequential engine.

    The paper's channels deliver exactly once and its processes never die;
    {!Faults} and {!Vfaults} break both assumptions.  A supervisor restores
    liveness without breaking the anonymity model — it acts only on
    information the runtime already has (delivery counts, pool emptiness,
    per-vertex state), never on vertex identities the protocols could see:

    - {e checkpointing}: after every receive a vertex completes, the
      engine snapshots that vertex's state; a [Restore] crash resumes from
      the snapshot instead of [pi0].  The snapshot is the state after the
      last {e completed} receive, so a restore loses only the deliveries
      consumed while down — a pure commodity {e deficit}, never an excess,
      which is why checkpointed recovery cannot manufacture false
      termination (an excess could tip the terminal's linear cut past 1);

    - {e retransmission}: when the pool runs dry but the terminal is not
      accepting, the engine re-sends the last message emitted on each edge
      whose source vertex is currently healthy, holding the copies back by
      an exponential-backoff-plus-jitter delay ({!backoff}) drawn from the
      config's PRNG seed.  At most [max_retries] rounds — retransmission is
      feedback-free repetition, the only repair available when receivers
      cannot NACK, so it heals losses but cannot distinguish "everything
      arrived" from "the rest is unreachable";

    - retransmitted copies traverse the {e same} fault plans as originals
      and are deduplicated by a {!Redundant}-wrapped receiver (same wire
      encoding), so supervision composes with, rather than replaces, the
      redundancy layer.

    On the fault-free path the supervisor costs nothing until the first
    quiescence-without-termination: terminating protocols never trigger a
    retransmission, and checkpointing copies one state reference per
    receive.  E17 prices this at well under the 10% delivery budget. *)

type config = {
  max_retries : int;  (** Retransmission rounds before giving up. *)
  base_timeout : int;
      (** Base hold, in delivery steps; round [r] waits [base * 2^r], plus a
          [Uniform{0..base-1}] jitter per copy. *)
  seed : int;  (** Seed of the supervisor's own PRNG stream. *)
}

val config :
  ?max_retries:int -> ?base_timeout:int -> ?seed:int -> unit -> config
(** Defaults: 4 retries, base timeout 8, seed 0. *)

val default : config

val backoff : config -> Prng.t -> round:int -> int
(** Hold time for retransmission round [round] (0-based), jitter included;
    the exponent saturates at 2^20 to stay in integer range. *)
