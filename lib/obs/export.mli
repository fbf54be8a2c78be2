(** Exporters: Chrome trace-event JSON (Perfetto / chrome://tracing) and a
    flat CSV time-series dump. *)

val chrome_trace : ?process_name:string -> ?lineage:Lineage.t -> Timeline.t -> string
(** The timeline's retained window as a Chrome trace-event JSON document:
    [{"displayTimeUnit":"ms","traceEvents":[...]}], timestamps in
    microseconds, [tid] = the event's track.  [Begin]/[End] become ["B"]/
    ["E"] duration events, [Instant] ["i"], [Sample] ["C"] counter events
    (Perfetto plots those as per-name graphs).  With [?lineage], every
    stored parent→child delivery pair additionally becomes a Perfetto
    flow event: an ["s"] start at the parent and an ["f"] (["bp":"e"])
    finish at the child, sharing the child's node id — causal arrows
    in the UI.  ["otherData"] always carries the timeline's
    ["dropped"] count (and ["lineage_dropped"] when [?lineage] is
    given).  Open the file at {{:https://ui.perfetto.dev}ui.perfetto.dev}. *)

val timeline_csv : Timeline.t -> string
(** [ts_s,track,kind,name,value] rows, oldest first, after a
    [# dropped=N] comment line and the column-header line. *)

val metrics_json : ?meta:(string * string) list -> Registry.snapshot -> string
(** The snapshot as one JSON object; [meta] key/value strings are prepended
    at the top level (e.g. protocol and family names), the snapshot itself
    lands under ["metrics"]. *)
