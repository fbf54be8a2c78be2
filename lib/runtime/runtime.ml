(** Asynchronous simulation of anonymous protocols (Section 2's model).

    - {!Protocol_intf} — the [(Pi, Sigma, pi0, sigma0, f, g, S)] signature;
    - {!Arena} — interned wire encodings, the distinct-symbol table;
    - {!Engine} — discrete-event executor with bit-exact accounting over
      the graph's CSR arrays, with an arena of encoded messages and a
      certified fast path for flood-shaped protocols;
    - {!Scheduler} — delivery orders, including adversarial ones and the
      synchronous model's rounds;
    - {!Faults} — the per-edge adversary: channel faults (drop / duplicate /
      delay / corrupt / kill) and edge churn (remove / heal / add) with a
      T-interval-connectivity contract, all seeded;
    - {!Vfaults} — per-vertex fault plans (crash-stop, restart with amnesia
      or from checkpoint, stutter), composing with {!Faults};
    - {!Supervisor} — the self-healing layer: per-vertex checkpoints and
      backoff retransmission;
    - {!Chaos} — joint edge-and-vertex fault-space search with witness
      shrinking and replay, and the fault-search core (runner, coverage
      rule, shrink driver, job map) that {!Campaign} runs on;
    - {!Campaign} — deterministic rate-grid fault campaigns with soundness
      checking and witness shrinking;
    - {!Explore} — exhaustive schedule-space model checker with sleep-set
      partial-order reduction and replayable counterexamples;
    - {!Canonical} — configuration fingerprints and the visited-state table;
    - {!Binheap} — the min-heap behind [Edge_priority] and the delay queue;
    - {!Trace} — execution recording for tests. *)

module Protocol_intf = Protocol_intf
module Arena = Arena
module Engine = Engine
module Scheduler = Scheduler
module Faults = Faults
module Vfaults = Vfaults
module Supervisor = Supervisor
module Chaos = Chaos
module Campaign = Campaign
module Explore = Explore
module Canonical = Canonical
module Binheap = Binheap
module Trace = Trace
