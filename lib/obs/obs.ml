(** Telemetry for the execution backends.

    - {!Registry} — named counters / gauges / log₂ histograms with O(1)
      hot-path updates and deterministic JSON-able snapshots;
    - {!Timeline} — begin/end spans, instants and counter samples over a
      bounded ring buffer, with one track per domain or lane;
    - {!Export} — Chrome trace-event JSON (Perfetto) and CSV;
    - {!Lineage} — causal-provenance forest over deliveries (parent
      delivery ids, critical-path depth, per-edge/per-vertex
      attribution), threaded through the engines via [?lineage];
    - {!Json} — the tree's shared JSON emission helpers and parser.

    An {!t} bundles one registry and one timeline with a sampling period;
    pass it as the [?obs] argument of [Runtime.Engine.Make.run] or
    [Runtime.Explore.Make.explore] and the backend streams its internal
    state into it.  Totals that concurrent domains (serve workers, [Par]
    pool sweeps) bump together live in {!Registry.acounter}s, and the
    timeline ring is multi-writer. *)

module Json = Json
module Registry = Registry
module Timeline = Timeline
module Export = Export
module Lineage = Lineage

type t = {
  registry : Registry.t;
  timeline : Timeline.t;
  sample_every : int;
      (** Instrumented backends emit timeline samples every [sample_every]
          deliveries (or transitions).  The engine publishes its counters
          there too: they are exact at every sample point and at run end,
          and lag the run in between.  The explorer's are published at
          run end. *)
}

let create ?(sample_every = 256) ?clock ?(capacity = 1 lsl 16) () =
  if sample_every < 1 then invalid_arg "Obs.create: sample_every < 1";
  {
    registry = Registry.create ();
    timeline = Timeline.create ?clock ~capacity ();
    sample_every;
  }
