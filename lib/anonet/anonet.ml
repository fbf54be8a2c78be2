(** Distributed broadcasting and mapping protocols in directed anonymous
    networks — an OCaml reproduction of Langberg, Schwartz & Bruck
    (PODC 2007).

    The protocols run over {!Digraph} networks inside the asynchronous
    {!Runtime} simulator.  Quick start:

    {[
      let g = Digraph.Families.random_digraph prng ~n:50 ~extra_edges:30
                ~back_edges:10 ~t_edge_prob:0.2 in
      let stats = Anonet.broadcast_general g in
      assert (stats.Anonet.outcome = Runtime.Engine.Terminated)
    ]} *)

(** {1 Protocol modules} *)

module Commodity = Commodity
module Flood = Flood
module Amnesiac_flood = Amnesiac_flood
module Counting = Counting
module Scalar_broadcast = Scalar_broadcast
module Dag_broadcast = Dag_broadcast
module Interval_core = Interval_core
module Interval_protocol = Interval_protocol
module General_broadcast = General_broadcast
module Labeling = Labeling
module Mapping = Mapping
module Undirected_labeling = Undirected_labeling
module Lower_bounds = Lower_bounds
module Redundant = Redundant
module Resilient = Resilient
module Check_suite = Check_suite

module Tree_broadcast = Scalar_broadcast.Make (Commodity.Pow2_dyadic)
(** Section 3.1's grounded-tree protocol: power-of-two flow splitting. *)

module Tree_broadcast_naive = Scalar_broadcast.Make (Commodity.Even_rational)
(** The naive [x/d] splitting baseline of Section 3.1. *)

module Dag_broadcast_pow2 = Dag_broadcast.Make (Commodity.Pow2_dyadic)
(** Section 3.3's DAG protocol under the power-of-two rule. *)

module Dag_broadcast_naive = Dag_broadcast.Make (Commodity.Even_rational)
(** Section 3.3's DAG protocol under the naive rule. *)

(** {1 Protocols by name} *)

let protocols : (string * (module Runtime.Protocol_intf.PROTOCOL)) list =
  [
    ("flood", (module Flood));
    ("amnesiac", (module Amnesiac_flood));
    ("counting", (module Counting));
    ("tree", (module Tree_broadcast));
    ("tree-naive", (module Tree_broadcast_naive));
    ("dag", (module Dag_broadcast_pow2));
    ("general", (module General_broadcast));
    ("labeling", (module Labeling));
    ("mapping", (module Mapping));
    ("undirected", (module Undirected_labeling));
  ]

let protocol_names = List.map fst protocols
let protocol_of_name name = List.assoc_opt name protocols

(** {1 Engines} *)

module Flood_engine = Runtime.Engine.Make (Flood)
module Amnesiac_engine = Runtime.Engine.Make (Amnesiac_flood)
module Counting_engine = Runtime.Engine.Make (Counting)
module Tree_engine = Runtime.Engine.Make (Tree_broadcast)
module Tree_naive_engine = Runtime.Engine.Make (Tree_broadcast_naive)
module Dag_engine = Runtime.Engine.Make (Dag_broadcast_pow2)
module Dag_naive_engine = Runtime.Engine.Make (Dag_broadcast_naive)
module General_engine = Runtime.Engine.Make (General_broadcast)
module Labeling_engine = Runtime.Engine.Make (Labeling)
module Mapping_engine = Runtime.Engine.Make (Mapping)
module Undirected_engine = Runtime.Engine.Make (Undirected_labeling)

(** {1 Convenience runners} *)

type stats = {
  outcome : Runtime.Engine.outcome;
  deliveries : int;
  total_bits : int;
  max_edge_bits : int;
  max_message_bits : int;
  distinct_messages : int;
  all_visited : bool;
}

let stats_of_report (r : _ Runtime.Engine.report) =
  {
    outcome = r.outcome;
    deliveries = r.deliveries;
    total_bits = r.total_bits;
    max_edge_bits = r.max_edge_bits;
    max_message_bits = r.max_message_bits;
    distinct_messages = r.distinct_messages;
    all_visited = Array.for_all (fun v -> v) r.visited;
  }

let broadcast_tree ?scheduler ?payload_bits g =
  stats_of_report (Tree_engine.run ?scheduler ?payload_bits g)

let broadcast_tree_naive ?scheduler ?payload_bits g =
  stats_of_report (Tree_naive_engine.run ?scheduler ?payload_bits g)

let broadcast_dag ?scheduler ?payload_bits g =
  stats_of_report (Dag_engine.run ?scheduler ?payload_bits g)

let broadcast_general ?scheduler ?payload_bits g =
  stats_of_report (General_engine.run ?scheduler ?payload_bits g)

let assign_labels ?scheduler ?payload_bits g =
  let r = Labeling_engine.run ?scheduler ?payload_bits g in
  (stats_of_report r, Array.map Labeling.label r.states)

let assign_labels_undirected ?scheduler ?payload_bits g =
  let r = Undirected_engine.run ?scheduler ?payload_bits g in
  (stats_of_report r, Array.map Undirected_labeling.vertex_id r.states)

let map_network ?scheduler ?payload_bits g =
  let r = Mapping_engine.run ?scheduler ?payload_bits g in
  let map =
    match r.outcome with
    | Runtime.Engine.Terminated ->
        Mapping.extract_map r.states.(Digraph.terminal g)
    | Runtime.Engine.Quiescent -> Error "protocol did not terminate (quiescent)"
    | Runtime.Engine.Step_limit -> Error "step limit reached"
    | Runtime.Engine.Cancelled -> Error "run cancelled"
  in
  (stats_of_report r, map)
