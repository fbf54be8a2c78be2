(** Joint edge-and-vertex fault-space search ("chaos campaigns").

    {!Campaign} sweeps a fixed grid of {e rates}; this module {e searches}
    the space of {e discrete} fault sets — "kill this edge, crash that
    vertex at its 3rd delivery" — for minimal combinations that break a
    protocol's broadcast guarantees:

    - {e soundness} ([Unsound]): the terminal's stopping predicate fired
      while some required vertex was never reached — a false positive of
      the paper's linear-cut termination machinery;
    - {e liveness} ([Starved]): the run went quiet (or hit the step limit)
      with required vertices unreached.

    "Required" degrades gracefully with the injected faults: a vertex is
    required iff it is reachable from [s] through live edges and
    non-crash-stopped vertices — crash-stopped vertices are excused (they
    cannot complete a receive) and do not forward.  This is exactly the
    partial-coverage contract of the {!Supervisor} layer.

    The search is seeded random generation over fault sets of bounded size,
    followed by greedy-bisection shrinking of every hit (delta-debugging:
    halves first, then single atoms, then parameter lowering) preserving
    the violation kind, canonical-key deduplication of the shrunk sets, and
    a replayable witness per surviving set: the exact delivery schedule of
    the violating run, recorded seq-by-seq, re-runnable through
    {!Scheduler.Replay} for a byte-identical report.

    This module is also the fault-search core {!Campaign} runs on: one
    runner and summary, one coverage rule ({!missing}), one shrink driver
    ({!first_failing} moves iterated by {!fixpoint}) and one job map
    ({!map}), which a domain pool ([Par.map]) can stand in for.

    Everything is deterministic from [config.seed], whatever [map] does:
    trial sets are keyed by (seed, trial), and shrinking, dedup and
    witness recording run in trial order. *)

type fault =
  | Kill_edge of int  (** Permanently kill a dense edge index. *)
  | Crash_vertex of Vfaults.crash_event
  | Churn_edge of Faults.event
      (** One churn-script atom: a bounded outage ([Remove]) or an
          initially-absent edge appearing mid-run ([Add]). *)

val describe_fault : fault -> string
(** Stable, canonical rendering; used for the dedup key and JSON. *)

val canonical_key : fault list -> string
(** Order-insensitive canonical key of a fault set. *)

val compile : fault list -> Faults.t * Vfaults.t
(** The engine-level fault specifications a fault set denotes: kills become
    per-edge [kill = 1.0] plans and churn atoms the churn script of the one
    {!Faults.t} (extra [Add]s on one edge are dropped, keeping the first);
    crashes become a {!Vfaults.script}. *)

val required : Digraph.t -> fault list -> bool array
(** The degraded coverage obligation described above.  [Churn_edge Add]
    atoms excuse like kills (the edge only appears if traffic heals it);
    [Remove] atoms excuse nothing — their outages are bounded. *)

(** {1 Runners} *)

type summary = {
  outcome : Engine.outcome;
  visited : bool array;
  deliveries : int;
  total_bits : int;
  fault_stats : Engine.fault_stats;
  vfault_stats : Engine.vertex_fault_stats;
  schedule : int list;
      (** Consumed-copy seq numbers in order, when recorded; [[]] else. *)
}

type runner = {
  r_name : string;
  run :
    scheduler:Scheduler.t ->
    record:bool ->
    faults:Faults.t ->
    vfaults:Vfaults.t ->
    supervisor:Supervisor.config option ->
    step_limit:int ->
    ?obs:Obs.t ->
    ?lineage:Obs.Lineage.t ->
    Digraph.t ->
    summary;
}

module Of_protocol (P : Protocol_intf.PROTOCOL) : sig
  val runner : ?name:string -> unit -> runner
end

val missing : Digraph.t -> fault list -> summary -> int list
(** The one coverage rule: vertices {!required} under the fault set but
    not visited in the run, in vertex order.  Non-empty at [Terminated] is
    a soundness violation.  Rate faults excuse nothing, so a campaign uses
    [missing g []]. *)

(** {1 Shrinking} *)

val first_failing : ('a -> bool) -> ('a -> 'a list) list -> 'a -> 'a
(** [first_failing fails moves x] is one greedy pass: each move, in order,
    proposes candidates for the current value, and the first candidate
    that still [fails] replaces it. *)

val fixpoint : ?limit:int -> ('a -> 'a) -> 'a -> 'a
(** Apply a pass until it changes nothing (structural equality), or at
    most [limit] times (default unbounded). *)

(** {1 Search} *)

type graph_case = { g_name : string; build : seed:int -> Digraph.t }
(** A graph family; [build] must be deterministic in [seed]. *)

type map = { map : 'a 'b. ('a -> 'b) -> 'a array -> 'b array }
(** How a search evaluates its independent jobs: it must return [f]'s
    results in input order.  [Par.map] spreads them over a domain pool. *)

val sequential : map
(** [Array.map]: the default of {!run} and {!Campaign.run}. *)

type config = {
  budget : int;  (** Random fault sets per (runner, graph). *)
  max_faults : int;  (** Max atoms per generated set. *)
  seed : int;
  p_edge : float;  (** Probability an atom is an edge kill. *)
  recoveries : Vfaults.recovery list;  (** Crash recovery modes drawn. *)
  max_at : int;  (** Crash positions drawn from [1..max_at]. *)
  max_downtime : int;
  step_limit : int;
  supervisor : Supervisor.config option;
      (** Armed on every run the search performs, including replays. *)
  p_churn : float;
      (** Probability an atom is a churn event.  With the default [0.0] the
          generator draws exactly the PRNG stream it always did, so
          pre-churn seeds keep their witnesses byte-for-byte. *)
  churn_t : int option;
      (** When set, every run (trials, shrinks, replays) installs the
          T-interval contract for {e accounting}
          ({!Faults.with_contract}): fates are unchanged — replays stay
          byte-identical — and [fault_stats.window_violations] reports
          contract breaches. *)
}

val config :
  ?budget:int ->
  ?max_faults:int ->
  ?seed:int ->
  ?p_edge:float ->
  ?recoveries:Vfaults.recovery list ->
  ?max_at:int ->
  ?max_downtime:int ->
  ?step_limit:int ->
  ?supervisor:Supervisor.config ->
  ?p_churn:float ->
  ?churn_t:int ->
  unit ->
  config
(** Defaults: budget 500, max_faults 4, seed 0, p_edge 0.5, all three
    recoveries, max_at 6, max_downtime 4, step_limit 200_000, no
    supervisor, p_churn 0.0, no churn_t. *)

type kind =
  | Unsound
  | Starved
  | Livelock
      (** Full coverage but [Step_limit]: the run never stopped spinning —
          e.g. amnesiac flooding after a churned-in edge closes a cycle.
          [w_missing] is empty for these witnesses. *)

val describe_kind : kind -> string

type witness = {
  w_runner : string;
  w_graph : string;
  w_kind : kind;
  w_trial : int;  (** Trial index that first hit this (pre-shrink). *)
  w_original_size : int;  (** Atoms in the unshrunk set. *)
  w_faults : fault list;  (** The shrunk set. *)
  w_missing : int list;  (** Required-but-unvisited vertices. *)
  w_outcome : Engine.outcome;
  w_deliveries : int;
  w_total_bits : int;
  w_schedule : int list;  (** Replayable delivery schedule. *)
}

type result = {
  trials_run : int;
  hits : int;  (** Violating trials before shrinking / dedup. *)
  duplicates : int;  (** Hits whose shrunk set was already witnessed. *)
  witnesses : witness list;
  unsound : int;  (** Witnesses of kind [Unsound]. *)
  starved : int;
  livelocked : int;  (** Witnesses of kind [Livelock]. *)
}

val eval_trial :
  config -> runner -> graph:Digraph.t -> fault list -> (kind * int list) option
(** Run one fault set; [Some (kind, missing)] iff it violates. *)

val run :
  ?map:map -> config -> runners:runner list -> graphs:graph_case list -> result
(** Full search: generate, evaluate (through [map]), shrink each hit
    preserving its kind (through [map]), then dedup by {!canonical_key}
    and record a replay schedule per witness, in trial order.  Shrinking
    halves the set, then drops single atoms, then lowers parameters in
    one left-to-right pass over the current set (a crash's downtime,
    then its position; a churn outage's length, then its position; an
    [Add]'s position), keeping each step only if the whole set still
    violates with the same kind.  Graphs are
    built with [seed = config.seed]. *)

val replay :
  ?obs:Obs.t ->
  ?lineage:Obs.Lineage.t ->
  config ->
  runner ->
  graph_case ->
  witness ->
  summary
(** Re-run a witness through {!Scheduler.Replay} on its recorded schedule
    (with the same compiled faults and supervisor), instrumented with [obs]
    and [lineage] when given. *)

val confirms : witness -> summary -> bool
(** Whether a replayed summary reproduces the witness: same outcome,
    delivery count, bit total and missing-vertex set. *)

val to_json : result -> string
