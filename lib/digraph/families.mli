(** Graph families: the paper's lower-bound constructions and the synthetic
    workloads used by the experiment harness.

    Every function returns a network satisfying the model of Section 2 ([s]
    with in-degree 0 / out-degree 1, [t] with out-degree 0) unless explicitly
    stated (the [add_trap]/[add_trap_cycle] transformers intentionally break
    co-reachability to exercise the non-termination guarantee). *)

val comb : int -> Graph.t
(** [comb n] is the grounded tree [G_n] of Theorem 3.2 / Figure 5:
    [s -> v_1 -> ... -> v_n], plus [v_i -> t] for every [i].  [n+2] vertices,
    [2n] edges; forces any broadcasting protocol to use at least [n+1]
    distinct symbols. *)

val path : int -> Graph.t
(** [s -> v_1 -> ... -> v_n -> t]. *)

val diamond : unit -> Graph.t
(** Smallest reconverging DAG: [s -> a], [a -> b], [a -> c], [b -> d],
    [c -> d], [d -> t]. *)

val full_tree : height:int -> degree:int -> Graph.t
(** Figure 6(a): [s] feeding a complete [degree]-ary tree of the given
    height; every leaf points to [t].  Used by the label lower bound
    (Theorem 5.2). *)

val full_tree_leaf : height:int -> degree:int -> path_ports:int list -> Graph.vertex
(** The leaf of {!full_tree} reached from the root by taking the given child
    port at each level.  [path_ports] must have length [height]. *)

val pruned_tree : height:int -> degree:int -> Graph.t
(** Figure 6(b): the pruned graph of Theorem 5.2 — the root-to-leaf path
    survives; all other child edges are rewired to [t].  [height + 3]
    vertices, yet the surviving leaf receives the same
    [Omega(height * log degree)]-bit label as in the full tree. *)

val pruned_tree_leaf : height:int -> Graph.vertex
(** The surviving leaf [v] of {!pruned_tree}. *)

val skeleton : n:int -> subset:bool array -> Graph.t
(** Figure 4: the commodity-preserving lower-bound family (Theorem 3.8).
    A splitting spine [v_0 .. v_{2n-1}] with hang-off vertices
    [u_0 .. u_{2n-2}]; odd [u_i] go to [t]; even [u_{2i}] go to the collector
    [w] when [subset.(i)] is set, else to [t].  [subset] must have length
    [n].  Across the [2^n] subset choices the quantity entering [t] from [w]
    takes [2^n] distinct values. *)

val skeleton_w : n:int -> Graph.vertex
(** The collector vertex [w] of {!skeleton}. *)

val cycle_with_exit : k:int -> Graph.t
(** [s] enters a directed [k]-cycle; one cycle vertex exits to [t].  The
    minimal workload that exercises the beta (cycle-detection) machinery of
    Section 4. *)

val figure_eight : unit -> Graph.t
(** Two cycles sharing a vertex, single exit to [t]; nested cycle stress. *)

val grid_dag : rows:int -> cols:int -> Graph.t
(** [rows x cols] grid, edges right and down; heavy path reconvergence. *)

val random_layered_large : Prng.t -> target_edges:int -> Graph.t
(** Large layered DAG sized by edge count, for throughput benchmarks:
    [s -> hub], the hub feeding every vertex of the first layer, square-ish
    layers connected forward (one aligned spine edge per vertex plus random
    reconverging edges), the last layer feeding [t].  Every vertex is
    reachable from [s] and co-reachable to [t] by construction, and the edge
    count lands within a few percent of [target_edges] (which must be
    [>= 32]). *)

val random_grounded_tree : Prng.t -> n:int -> t_edge_prob:float -> Graph.t
(** Uniform random recursive tree over [n] internal vertices; every leaf and
    (with the given probability) every internal vertex also points to [t]. *)

val random_dag : Prng.t -> n:int -> extra_edges:int -> t_edge_prob:float -> Graph.t
(** Connected random DAG on [n] internal vertices: a random spanning
    arborescence plus [extra_edges] forward edges. *)

val random_digraph :
  Prng.t -> n:int -> extra_edges:int -> back_edges:int -> t_edge_prob:float -> Graph.t
(** {!random_dag} plus [back_edges] backward edges, creating cycles. *)

val bidirected_random : Prng.t -> n:int -> extra_edges:int -> Graph.t
(** An {e undirected} anonymous network embedded in the directed model, for
    the conclusion's gap comparison: internal vertices [1..n] form a random
    connected undirected graph represented by edge pairs with {e aligned
    ports} (vertex [v]'s bidirected out-port [j] and in-port [j] connect to
    the same neighbour, so a vertex can reply over the edge a message came
    from — the feedback directed networks lack).  Then [s -> 1], and every
    internal vertex's {e last} out-port goes to [t].  Used by
    {!Anonet.Undirected_labeling}. *)

val bidirected_ring : n:int -> Graph.t
(** Deterministic instance of the same shape: internal vertices on an
    undirected cycle. *)

val widen_root : Prng.t -> Graph.t -> extra:int -> Graph.t
(** Adds [extra] out-edges from the root to random internal vertices — the
    multi-out-degree-root extension of Section 2 (the result no longer
    passes the strict {!Graph.validate}, use [~allow_multi_root:true]). *)

val add_trap : Graph.t -> from_vertex:Graph.vertex -> Graph.t
(** Appends a sink vertex reachable from [from_vertex] but not connected to
    [t]: the protocols must then never terminate. *)

val add_trap_cycle : Graph.t -> from_vertex:Graph.vertex -> Graph.t
(** Appends a two-vertex cycle with no exit, reachable from [from_vertex]:
    non-termination despite the cycle being beta-detected locally. *)

(** {1 Dynamic scenarios} *)

val random_dynamic :
  Prng.t ->
  n:int ->
  extra_edges:int ->
  back_edges:int ->
  t_edge_prob:float ->
  Graph.t
(** The footprint of a dynamic scenario: a random digraph whose vertices
    are numbered so that every edge but the [back_edges] cycle-closing ones
    runs from a lower vertex to a higher.  Churn scripts insert the back
    edges mid-run (the amnesiac-flooding breakage scenario).
    Deterministic from the PRNG state. *)

(** {1 Family specifications} *)

val spec_doc : string
(** Human-readable grammar summary of {!of_spec}, for CLI help strings. *)

val of_spec : string -> (Graph.t, string) result
(** Parse a textual family spec — ["comb:32"], ["random:50:7"],
    ["grid:4x5"], ["layered:20000:3"], ["cycle:5+trap"], ... — into the
    graph it names.  Randomized families embed their PRNG seed in the spec,
    so a spec is a complete, reproducible name for one instance: the same
    string always yields the same graph.  This is the grammar behind the
    CLI's [--family] and the serving layer's graph table. *)
