(** Deterministic fault campaigns.

    A campaign sweeps the full cross product
    {e runners × graph cases × fault grid × seeds}, runs every cell through
    the asynchronous engine, and checks the soundness invariant that the
    paper's termination machinery (Lemma 3.5's linear cut) is supposed to
    guarantee: a run may never report [Terminated] while a vertex that is
    reachable from [s] was left unvisited.  Violations are recorded — they
    are findings, not crashes, since e.g. duplication provably breaks the
    bare broadcast protocols — and shrunk to a minimal failing (fault-rate,
    seed) pair.  [Quiescent] runs are diagnosed: which reachable vertices
    starved and which edges went dark (were killed by the plan).

    Everything is seeded: a campaign is bit-for-bit reproducible (the
    summary, every diagnostic and the JSON rendering), which makes a failing
    cell a regression test for free. *)

type fault_point = {
  label : string;
  fault_plan : Faults.plan;  (** Applied uniformly to every edge. *)
}

val point :
  ?drop:float ->
  ?duplicate:float ->
  ?max_delay:int ->
  ?corrupt:float ->
  ?kill:float ->
  ?label:string ->
  unit ->
  fault_point
(** A grid point; the default label encodes the non-zero rates. *)

val grid :
  ?drops:float list ->
  ?duplicates:float list ->
  ?max_delays:int list ->
  ?corrupts:float list ->
  ?kills:float list ->
  unit ->
  fault_point list
(** Cross product of the given axes (each defaults to [[0]]/[[0.0]]). *)

type runner = {
  r_name : string;
  run : faults:Faults.t -> step_limit:int -> Digraph.t -> Chaos.summary;
}
(** A protocol under test, abstracted so the campaign machinery does not
    depend on any concrete protocol library. *)

(** Wrap a protocol's engine as a campaign runner: the {!Chaos} runner with
    no vertex faults, no supervisor and no schedule recording. *)
module Of_protocol (P : Protocol_intf.PROTOCOL) : sig
  val runner : ?scheduler:Scheduler.t -> ?name:string -> unit -> runner
  (** Defaults: [Fifo] (keeps the campaign deterministic), [P.name]. *)
end

type graph_case = Chaos.graph_case = {
  g_name : string;
  build : seed:int -> Digraph.t;
}
(** A graph family; [build] must be deterministic in [seed]. *)

type violation = {
  v_runner : string;
  v_graph : string;
  v_point : fault_point;
  v_seed : int;
  unreached : int list;
      (** Vertices reachable from [s] but unvisited at [Terminated]. *)
  shrunk_point : fault_point;  (** Minimal rates that still fail. *)
  shrunk_seed : int;  (** Smallest sweep seed failing at [shrunk_point]. *)
}

type starvation = {
  s_runner : string;
  s_graph : string;
  s_point : fault_point;
  s_seed : int;
  starved : int list;  (** Reachable vertices never visited. *)
  dark_edges : int list;  (** Edges the plan killed. *)
}

type cell = {
  c_runner : string;
  c_graph : string;
  c_point : fault_point;
  runs : int;
  terminated : int;  (** Sound terminations. *)
  false_terminated : int;  (** Terminations violating soundness. *)
  quiescent : int;
  step_limited : int;
  total_deliveries : int;
  total_bits : int;
}
(** Aggregates over the seeds of one (runner, graph, fault point). *)

type result = {
  cells : cell list;
  violations : violation list;
  starvations : starvation list;
}

val run :
  ?map:Chaos.map ->
  ?step_limit:int ->
  runners:runner list ->
  graphs:graph_case list ->
  grid:fault_point list ->
  seeds:int list ->
  unit ->
  result
(** Sweep everything: one job per (runner, graph, point) cell, evaluated
    through [map] (default {!Chaos.sequential}) and listed in that nesting
    order, so the result does not depend on [map].  Default
    [step_limit = 200_000].  A cell shrinks its first violation once and
    every violation of the cell carries that witness: the cell's seeds
    share its fault plan, and the shrink rescans them for the smallest
    failing one.  Fault seeds are taken verbatim from [seeds], so a
    reported [(point, seed)] pair replays with
    [Faults.uniform point.fault_plan ~seed]. *)

val sound : result -> bool
(** No violation anywhere in the sweep. *)

val to_json : result -> string
(** Stable JSON rendering of the whole result (cells, violations,
    starvation diagnostics), suitable for dashboards and diffing. *)
