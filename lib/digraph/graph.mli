(** Port-numbered directed multigraphs with a distinguished root [s] and
    terminal [t] — the networks of Section 2.

    Vertices are integers [0 .. n-1].  Each vertex orders its outgoing and
    incoming edges by *port*: a vertex can distinguish its ports but knows
    nothing else, which is exactly the information an anonymous protocol's
    [f] and [g] receive.  Multi-edges and self-loops are allowed.

    The representation is compressed sparse row, built once by {!make} in
    O(n + m): every local query below is a constant number of int-array
    loads, and edges are numbered densely (the out-edges of vertex 0, then
    those of vertex 1, ...), which is the numbering per-edge reports,
    fault plans, churn clocks and replay schedules all share. *)

type vertex = int

type t

val make : n:int -> s:vertex -> t:vertex -> (vertex * vertex) list -> t
(** [make ~n ~s ~t edges] builds the graph.  Out-ports (and in-ports) are
    numbered in the order edges appear in the list.
    @raise Invalid_argument on out-of-range endpoints. *)

val n_vertices : t -> int
val n_edges : t -> int
val source : t -> vertex
val terminal : t -> vertex

val out_degree : t -> vertex -> int
val in_degree : t -> vertex -> int

val out_neighbor : t -> vertex -> int -> vertex
(** [out_neighbor g v j] is the head of [v]'s [j]-th out-edge. *)

val iter_out : t -> vertex -> (int -> vertex -> unit) -> unit
(** [iter_out g v f] calls [f j head] for each out-port [j] of [v] in port
    order — the allocation-free replacement for walking [edges] or pairing
    ports by hand in hot loops. *)

val fold_out : t -> vertex -> init:'a -> ('a -> int -> vertex -> 'a) -> 'a
(** [fold_out g v ~init f] folds [f acc j head] over [v]'s out-ports in
    port order. *)

val in_origin : t -> vertex -> int -> vertex * int
(** [in_origin g v i] is [(u, j)]: [v]'s [i]-th in-edge is [u]'s [j]-th
    out-edge. *)

val out_port_target_port : t -> vertex -> int -> vertex * int
(** [out_port_target_port g u j] is [(v, i)]: [u]'s [j]-th out-edge lands on
    [v]'s [i]-th in-port.  O(1). *)

val edges : t -> (vertex * vertex) list
(** In global edge-index order. *)

val edge_index : t -> vertex -> int -> int
(** Dense index in [\[0, n_edges)] for [u]'s [j]-th out-edge; used by the
    instrumentation to account per-edge traffic. *)

val edge_of_index : t -> int -> vertex * int
(** Inverse of {!edge_index}: [(u, j)] for a dense edge index.  O(1).
    @raise Invalid_argument outside [\[0, n_edges)]. *)

(** {2 The arrays themselves}

    For executors that walk edges by dense index in their inner loop.  The
    arrays are the graph's own storage, shared rather than copied: callers
    must treat them as read-only. *)

val out_offsets : t -> int array
(** [n + 1] offsets: the out-edges of [u] are the dense indices
    [out_offsets.(u) .. out_offsets.(u+1) - 1], in port order. *)

val edge_heads : t -> int array
(** Per dense edge: the target vertex. *)

val edge_sources : t -> int array
(** Per dense edge: the source vertex. *)

val edge_target_ports : t -> int array
(** Per dense edge: the in-port of the target the edge lands on. *)

val max_out_degree : t -> int
(** The paper's [d_out]; at least 1 even for edgeless graphs so that
    [log d_out] factors are well-defined. *)

val vertices : t -> vertex list
val internal_vertices : t -> vertex list

(** {2 Structure queries} *)

val reachable_from_s : t -> bool array
val coreachable_to_t : t -> bool array

val all_reachable : t -> bool
(** Every vertex reachable from [s] (the paper's standing assumption). *)

val all_coreachable : t -> bool
(** Every vertex on a path to [t]: the condition under which the protocols
    must terminate (Theorems 3.1, 4.2, 5.1). *)

val is_dag : t -> bool
val topological_order : t -> vertex list option

val is_grounded_tree : t -> bool
(** Every vertex has in-degree 1, except [s] (in-degree 0) and [t]
    (unrestricted) — Section 1.1's definition. *)

val classify : t -> [ `Grounded_tree | `Dag | `General ]

val scc : t -> int array * int
(** Tarjan: [(comp, count)] with [comp.(v)] the component id of [v], ids in
    reverse topological order of the condensation. *)

val validate : ?allow_multi_root:bool -> t -> (unit, string) result
(** Checks the model's standing assumptions: [s] has in-degree 0 and
    out-degree 1, [t] has out-degree 0, [s <> t].  With
    [allow_multi_root:true] the root may have any positive out-degree —
    the Section 2 extension that the commodity protocols support by
    splitting the unit commodity over the root's ports. *)

val equal : t -> t -> bool
(** Structural equality including port numbering. *)

val transpose : t -> t
(** Reverse every edge and swap [s] and [t].  Out-port order of the result
    follows the original in-port order. *)

val induced_subgraph : t -> keep:bool array -> s:vertex -> t:vertex -> t
(** Restrict to the vertices with [keep] set (which must include the given
    [s] and [t]); vertices are renumbered densely, edge order preserved. *)

val condensation : t -> t * int array
(** The DAG of strongly connected components, with [s]/[t] mapped to their
    components; also returns the vertex-to-component map.  Multi-edges
    between components are kept (port structure is preserved in spirit:
    one edge per original cross-component edge). *)

val distances_from : t -> vertex -> int array
(** BFS hop distances; [-1] for unreachable vertices. *)

val longest_path_dag : t -> int
(** Number of edges on a longest path in a DAG.
    @raise Invalid_argument if the graph has a cycle. *)

val diameter_from_s : t -> int
(** Largest finite BFS distance from [s]. *)

val canonical_signature : t -> int * int * (int * int * int) list
(** Canonical form of the port-numbered network rooted at [s]: vertices are
    renamed in BFS discovery order following ports in order (the only
    port-respecting isomorphism candidate), and the result is
    [(reached_count, id of t, sorted (vertex, port, head) triples)].
    Two networks are port-isomorphic (rooted at [s], respecting [t]) iff
    their signatures are equal — the test the mapping protocol's output is
    checked with. *)

val isomorphic : t -> t -> bool
(** Equality of {!canonical_signature}s. *)

val pp : Format.formatter -> t -> unit
