(** Distributed broadcasting and mapping protocols in directed anonymous
    networks — an OCaml reproduction of Langberg, Schwartz & Bruck
    (PODC 2007).

    The typical session builds a network ({!Digraph}), runs a protocol on it
    through one of the {e convenience runners} below (or an {e engine} for
    full reports), and inspects the returned {!stats}:

    {[
      let prng = Prng.create 7 in
      let g =
        Digraph.Families.random_digraph prng ~n:50 ~extra_edges:30
          ~back_edges:10 ~t_edge_prob:0.2
      in
      let stats = Anonet.broadcast_general g in
      assert (stats.Anonet.outcome = Runtime.Engine.Terminated)
    ]} *)

(** {1 Protocol modules}

    Each implements {!Runtime.Protocol_intf.PROTOCOL}; run them through the
    engines below, with {!Runtime.Scheduler.Rounds} for the synchronous
    model. *)

module Commodity = Commodity
module Flood = Flood
module Scalar_broadcast = Scalar_broadcast
module Dag_broadcast = Dag_broadcast
module Interval_core = Interval_core
module Interval_protocol = Interval_protocol
module General_broadcast = General_broadcast
module Labeling = Labeling
module Mapping = Mapping
module Undirected_labeling = Undirected_labeling
module Lower_bounds = Lower_bounds

module Amnesiac_flood = Amnesiac_flood
(** Stateless flooding (Austin et al.): terminates on DAGs, livelocks the
    moment a cycle edge exists — the dynamic-network negative control. *)

module Counting = Counting
(** Anonymous counting: dyadic broadcast flow carrying a mint-once counter
    ledger; the terminal learns [n] exactly (see {!Counting.census}). *)

module Redundant = Redundant
(** k-repetition resilience wrapper for any protocol — the feedback-free
    defense against lossy channels (see {!Redundant.Make}). *)

module Resilient = Resilient
(** Self-healing stacks: {!Redundant} composed with {!Runtime.Supervisor},
    adaptive escalation of the repetition factor, and the chaos-search
    runners/graphs the [anonet chaos] CLI and the E17 bench consume. *)

module Check_suite = Check_suite
(** The model-checking suite for [anonet check] / [bench -- check]: every
    protocol on every small family it must be correct on, plus the
    sabotaged-split negative control (see {!Runtime.Explore}). *)

module Tree_broadcast : module type of Scalar_broadcast.Make (Commodity.Pow2_dyadic)
(** Section 3.1's grounded-tree protocol: power-of-two flow splitting. *)

module Tree_broadcast_naive :
  module type of Scalar_broadcast.Make (Commodity.Even_rational)
(** The naive [x/d] splitting baseline of Section 3.1. *)

module Dag_broadcast_pow2 : module type of Dag_broadcast.Make (Commodity.Pow2_dyadic)
(** Section 3.3's DAG protocol under the power-of-two rule. *)

module Dag_broadcast_naive :
  module type of Dag_broadcast.Make (Commodity.Even_rational)
(** Section 3.3's DAG protocol under the naive rule. *)

(** {1 Protocols by name}

    The one name table of the CLI's [--protocol] and the session server's
    [submit]. *)

val protocol_names : string list
(** flood, amnesiac, counting, tree, tree-naive, dag, general, labeling,
    mapping, undirected — in this order. *)

val protocol_of_name : string -> (module Runtime.Protocol_intf.PROTOCOL) option

(** {1 Engines}

    Pre-instantiated asynchronous engines, one per protocol; their [run]
    accepts schedulers, fault injection, codec verification and payload
    size — see {!Runtime.Engine.Make}. *)

module Flood_engine : module type of Runtime.Engine.Make (Flood)
module Amnesiac_engine : module type of Runtime.Engine.Make (Amnesiac_flood)
module Counting_engine : module type of Runtime.Engine.Make (Counting)
module Tree_engine : module type of Runtime.Engine.Make (Tree_broadcast)
module Tree_naive_engine : module type of Runtime.Engine.Make (Tree_broadcast_naive)
module Dag_engine : module type of Runtime.Engine.Make (Dag_broadcast_pow2)
module Dag_naive_engine : module type of Runtime.Engine.Make (Dag_broadcast_naive)
module General_engine : module type of Runtime.Engine.Make (General_broadcast)
module Labeling_engine : module type of Runtime.Engine.Make (Labeling)
module Mapping_engine : module type of Runtime.Engine.Make (Mapping)
module Undirected_engine : module type of Runtime.Engine.Make (Undirected_labeling)

(** {1 Convenience runners} *)

type stats = {
  outcome : Runtime.Engine.outcome;
  deliveries : int;  (** Messages delivered before the run stopped. *)
  total_bits : int;  (** Total communication complexity. *)
  max_edge_bits : int;  (** Required bandwidth (busiest edge). *)
  max_message_bits : int;  (** Largest single message. *)
  distinct_messages : int;  (** Distinct symbols observed — [|Sigma_G|]. *)
  all_visited : bool;  (** Did every vertex receive at least one message? *)
}
(** The protocol-independent summary of an execution. *)

val stats_of_report : _ Runtime.Engine.report -> stats

val broadcast_tree :
  ?scheduler:Runtime.Scheduler.t -> ?payload_bits:int -> Digraph.t -> stats
(** Section 3.1's protocol.  Halts iff every vertex of a grounded tree is
    connected to [t]; [payload_bits] models the broadcast message [m]. *)

val broadcast_tree_naive :
  ?scheduler:Runtime.Scheduler.t -> ?payload_bits:int -> Digraph.t -> stats
(** The [x/d] ablation baseline. *)

val broadcast_dag :
  ?scheduler:Runtime.Scheduler.t -> ?payload_bits:int -> Digraph.t -> stats
(** Section 3.3's protocol: one message per edge on DAGs; deadlocks
    (reports [Quiescent]) on cyclic inputs. *)

val broadcast_general :
  ?scheduler:Runtime.Scheduler.t -> ?payload_bits:int -> Digraph.t -> stats
(** The paper's main protocol (Section 4): terminates on arbitrary directed
    networks iff every vertex lies on a path to [t]. *)

val assign_labels :
  ?scheduler:Runtime.Scheduler.t ->
  ?payload_bits:int ->
  Digraph.t ->
  stats * Intervals.Iset.t array
(** Section 5's protocol.  Returns the per-vertex labels (indexed by vertex;
    empty for [s], single non-empty disjoint intervals for every internal
    vertex on termination). *)

val assign_labels_undirected :
  ?scheduler:Runtime.Scheduler.t ->
  ?payload_bits:int ->
  Digraph.t ->
  stats * int option array
(** The token-DFS baseline for {e undirected} anonymous networks
    (bidirected families with aligned ports): consecutive integer labels of
    [O(log |V|)] bits — the other side of the conclusion's exponential
    gap. *)

val map_network :
  ?scheduler:Runtime.Scheduler.t ->
  ?payload_bits:int ->
  Digraph.t ->
  stats * (Mapping.network_map, string) result
(** The mapping protocol: on termination, the reconstructed port-numbered
    network (provably isomorphic to the input — check with
    {!Mapping.map_isomorphic}). *)
