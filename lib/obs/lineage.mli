(** Causal-provenance recorder: a happens-before forest over deliveries.

    Each delivery gets a node whose id is the engine's 1-based delivery
    counter, and records the node id of the receive that caused its send
    (0 for root emissions and supervisor retransmissions) plus its causal
    depth (parent depth + 1; roots have depth 1).  Aggregates — node
    count, longest chain, per-depth counts, per-edge max depth,
    per-vertex first-receive depth — are exact; the store of individual
    nodes is sampled (countdown like the engine's receive-timing sampler)
    and capacity-bounded with an explicit [dropped] counter.

    The record is exposed concretely so engine hot paths can update the
    sampling countdown inline; treat the fields as read-only outside
    [lib/runtime]. *)

type journal = {
  j_packed : int array;  (** edge lor (parent lsl journal_shift) *)
  j_heads : int array;  (** CSR edge -> target vertex *)
  j_count : int;
  j_track : int;
}
(** A whole run's pop journal, handed over by [note_journal] and
    replayed into the aggregates lazily on first query. *)

val journal_shift : int
(** Bit position separating a journal slot's edge (low bits) from its
    run-local parent id (high bits): 31, so both must be below [2^31]. *)

type t = {
  mutable nodes : int;
  mutable max_depth : int;
  mutable deepest : int;
  mutable depth_counts : int array;
  mutable edge_max_depth : int array;
  mutable vertex_first_depth : int array;
  mutable s_id : int array;
  mutable s_parent : int array;
  mutable s_edge : int array;
  mutable s_vertex : int array;
  mutable s_depth : int array;
  mutable s_track : int array;
  mutable s_ts : float array;
  mutable stored : int;
  mutable dropped : int;
  mutable until_sample : int;
  mutable pending : journal list;
  mutable bound_nv : int;
  mutable bound_ne : int;
  sample_every : int;
  capacity : int;
  clock : unit -> float;
}

type node = {
  n_id : int;
  n_parent : int;  (** 0 = root emission / supervisor retransmission *)
  n_edge : int;  (** -1 = root emission (no edge traversed) *)
  n_vertex : int;
  n_depth : int;
  n_track : int;
  n_ts : float;
}

val create :
  ?sample_every:int ->
  ?capacity:int ->
  ?clock:(unit -> float) ->
  unit ->
  t
(** [sample_every] (default 1) stores every k-th node; [capacity]
    (default 65536) bounds the store; [clock] (default
    [Unix.gettimeofday]) timestamps stored nodes. *)

val bind : t -> n_vertices:int -> n_edges:int -> unit
(** Size the per-edge / per-vertex attribution arrays for a graph.
    Growing preserves entries, so one recorder can span a sweep.  O(1):
    allocation is deferred off the engine's timed path. *)

val note :
  t ->
  id:int ->
  parent:int ->
  depth:int ->
  edge:int ->
  vertex:int ->
  track:int ->
  unit
(** Record one delivery.  [id] is the 1-based delivery counter; [edge]
    is the dense edge index (-1 for root emissions); [track] is the obs
    timeline lane that performed the delivery. *)

val note_journal :
  t -> packed:int array -> heads:int array -> count:int -> track:int -> unit
(** Hand over a whole run's pop journal in O(1): slot [k] of [packed]
    describes node [nodes + k + 1] — its traversed edge in the low
    [journal_shift] bits and its run-local parent id above them (0 =
    root emission); the node's vertex is [heads.(edge)] and its depth
    is reconstructed as parent depth + 1.  The caller transfers
    ownership of [packed]; it is replayed into the aggregates and
    sampled store on first query, producing exactly the note stream
    inline recording would have — except that stored samples are
    timestamped at realization, not delivery.  This is how the flat
    flood fast path keeps recording off its hot loop. *)

val nodes : t -> int
val max_depth : t -> int
val stored : t -> int
val dropped : t -> int

val width : t -> int
(** Max nodes at any single depth: the causal width of the broadcast. *)

val depth_histogram : t -> int array
(** Nodes per depth; index [i] holds the count at depth [i+1]. *)

val vertex_first_depth : t -> int -> int option
(** Depth at which a vertex first received, if it ever did. *)

val critical_edges : t -> k:int -> (int * int) list
(** Top-[k] [(edge, max_depth)] pairs, depth-descending. *)

val find : t -> int -> node option
(** Look a node id up in the (sorted) store. *)

val iter_stored : t -> (node -> unit) -> unit

val critical_path : t -> node list
(** Walk parent links from the deepest node through whatever prefix of
    the chain the store retained, deepest node first.  Exact end-to-end
    when sampling is off and nothing was dropped. *)

val to_json : t -> string
(** RFC 8259 object with nodes/max_depth/width/dropped, the depth
    histogram, top critical edges, the reconstructed critical path,
    per-vertex depths and the stored nodes. *)
