(* Causal-provenance recorder: a happens-before forest over deliveries.

   Every delivery (pop) gets a node whose id is the engine's 1-based
   delivery counter — a function of the schedule alone, which is what
   makes the engine's fast and generic paths comparable byte-for-byte.  Each message copy carries the node id of the receive
   that caused its send (its parent) and its causal depth (parent depth
   + 1; root emissions have depth 1), so every aggregate below is O(1)
   per delivery with no lookups:

   - [nodes], [max_depth]/[deepest]: longest causal chain, the quantity
     the paper's round bounds speak about.
   - [depth_counts]: nodes per depth — the per-chain-length histogram;
     its max is the causal width (peak parallelism of the broadcast).
   - [edge_max_depth]: deepest delivery seen per edge; sorting gives the
     top-k critical edges.
   - [vertex_first_depth]: depth at which each vertex first received —
     the per-vertex "round number".

   The *store* of individual nodes (for flow events and critical-path
   reconstruction) is sampled with a countdown ref like the engine's
   receive-timing sampler, and capacity-bounded: once full, sampled
   nodes bump [dropped] instead.  Aggregates are always exact; only the
   store is lossy.  Ids enter in strictly increasing order, so parent
   lookups are binary searches. *)

(* A pop journal handed over wholesale by an engine: slot [k] packs the
   traversed edge in the low [journal_shift] bits and the run-local
   parent id above them, so the engine's own edge ring doubles as the
   journal with no extra arrays or stores.  Depths are reconstructed at
   replay (parent depth + 1; a parent always pops before its children
   push, so the scan below is single-pass).  Kept pending and replayed
   into the aggregates on first query ([realize]). *)
type journal = {
  j_packed : int array;  (* edge lor (parent lsl journal_shift) *)
  j_heads : int array;  (* CSR edge -> target vertex *)
  j_count : int;
  j_track : int;
}

let journal_shift = 31
let journal_mask = (1 lsl journal_shift) - 1

type t = {
  mutable nodes : int;
  mutable max_depth : int;
  mutable deepest : int;  (* node id of the first deepest node; 0 = none *)
  mutable depth_counts : int array;  (* index = depth; grows on demand *)
  mutable edge_max_depth : int array;  (* sized by [bind]; 0 = unseen *)
  mutable vertex_first_depth : int array;  (* sized by [bind]; -1 = never *)
  (* Sampled node store, parallel arrays, filled [0, stored). *)
  mutable s_id : int array;
  mutable s_parent : int array;
  mutable s_edge : int array;
  mutable s_vertex : int array;
  mutable s_depth : int array;
  mutable s_track : int array;
  mutable s_ts : float array;
  mutable stored : int;
  mutable dropped : int;  (* sampled but thrown away: store full *)
  mutable until_sample : int;
  mutable pending : journal list;  (* newest first; drained by [realize] *)
  (* Attribution-array sizes promised by [bind]; allocation is deferred
     to [realize] so binding inside a timed engine run stays O(1). *)
  mutable bound_nv : int;
  mutable bound_ne : int;
  sample_every : int;
  capacity : int;
  clock : unit -> float;
}

type node = {
  n_id : int;
  n_parent : int;  (* 0 = root emission / supervisor retransmission *)
  n_edge : int;  (* -1 = root emission (no edge traversed) *)
  n_vertex : int;
  n_depth : int;
  n_track : int;
  n_ts : float;
}

let create ?(sample_every = 1) ?(capacity = 1 lsl 16) ?clock () =
  if sample_every < 1 then invalid_arg "Lineage.create: sample_every < 1";
  if capacity < 1 then invalid_arg "Lineage.create: capacity < 1";
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  {
    nodes = 0;
    max_depth = 0;
    deepest = 0;
    depth_counts = Array.make 64 0;
    edge_max_depth = [||];
    vertex_first_depth = [||];
    s_id = Array.make (min capacity 1024) 0;
    s_parent = Array.make (min capacity 1024) 0;
    s_edge = Array.make (min capacity 1024) 0;
    s_vertex = Array.make (min capacity 1024) 0;
    s_depth = Array.make (min capacity 1024) 0;
    s_track = Array.make (min capacity 1024) 0;
    s_ts = Array.make (min capacity 1024) 0.0;
    stored = 0;
    dropped = 0;
    until_sample = 1;
    pending = [];
    bound_nv = 0;
    bound_ne = 0;
    sample_every;
    capacity;
    clock;
  }

let grow_to a n fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Size the per-edge/per-vertex attribution arrays for a graph.  Growing
   preserves existing entries so one recorder can span a sweep of runs
   over same-shaped graphs.  O(1): allocation happens in [realize]. *)
let bind t ~n_vertices ~n_edges =
  if n_vertices > t.bound_nv then t.bound_nv <- n_vertices;
  if n_edges > t.bound_ne then t.bound_ne <- n_edges

let grow_store t =
  let cur = Array.length t.s_id in
  let n = min t.capacity (max 1024 (2 * cur)) in
  if n > cur then begin
    t.s_id <- grow_to t.s_id n 0;
    t.s_parent <- grow_to t.s_parent n 0;
    t.s_edge <- grow_to t.s_edge n 0;
    t.s_vertex <- grow_to t.s_vertex n 0;
    t.s_depth <- grow_to t.s_depth n 0;
    t.s_track <- grow_to t.s_track n 0;
    t.s_ts <- grow_to t.s_ts n 0.0
  end

(* Record one delivery.  Hot path: straight-line int updates; the clock
   only runs for the sampled minority that lands in the store. *)
let note_raw t ~id ~parent ~depth ~edge ~vertex ~track =
  t.nodes <- t.nodes + 1;
  if depth > t.max_depth then begin
    t.max_depth <- depth;
    t.deepest <- id
  end;
  if depth >= Array.length t.depth_counts then
    t.depth_counts <-
      grow_to t.depth_counts (max (depth + 1) (2 * Array.length t.depth_counts)) 0;
  Array.unsafe_set t.depth_counts depth
    (Array.unsafe_get t.depth_counts depth + 1);
  if edge >= 0 && edge < Array.length t.edge_max_depth
     && depth > Array.unsafe_get t.edge_max_depth edge
  then Array.unsafe_set t.edge_max_depth edge depth;
  if vertex >= 0 && vertex < Array.length t.vertex_first_depth
     && Array.unsafe_get t.vertex_first_depth vertex < 0
  then Array.unsafe_set t.vertex_first_depth vertex depth;
  t.until_sample <- t.until_sample - 1;
  if t.until_sample <= 0 then begin
    t.until_sample <- t.sample_every;
    if t.stored >= Array.length t.s_id then grow_store t;
    if t.stored < Array.length t.s_id then begin
      let i = t.stored in
      t.s_id.(i) <- id;
      t.s_parent.(i) <- parent;
      t.s_edge.(i) <- edge;
      t.s_vertex.(i) <- vertex;
      t.s_depth.(i) <- depth;
      t.s_track.(i) <- track;
      t.s_ts.(i) <- t.clock ();
      t.stored <- i + 1
    end
    else t.dropped <- t.dropped + 1
  end

(* Replaying a journal produces the exact note stream inline recording
   would have (same ids, aggregates and sampled store) — only the
   stored samples' timestamps collapse to realization time. *)
let apply_journal t j =
  let base = t.nodes in
  let nh = Array.length j.j_heads in
  let dep = Array.make (max j.j_count 1) 0 in
  for k = 0 to j.j_count - 1 do
    let packed = Array.unsafe_get j.j_packed k in
    let e = packed land journal_mask in
    let p = packed asr journal_shift in
    let depth = if p = 0 then 1 else Array.unsafe_get dep (p - 1) + 1 in
    Array.unsafe_set dep k depth;
    let v = if e < nh then Array.unsafe_get j.j_heads e else -1 in
    note_raw t ~id:(base + k + 1)
      ~parent:(if p = 0 then 0 else base + p)
      ~depth ~edge:e ~vertex:v ~track:j.j_track
  done

let realize t =
  if Array.length t.edge_max_depth < t.bound_ne then
    t.edge_max_depth <- grow_to t.edge_max_depth t.bound_ne 0;
  if Array.length t.vertex_first_depth < t.bound_nv then
    t.vertex_first_depth <- grow_to t.vertex_first_depth t.bound_nv (-1);
  match t.pending with
  | [] -> ()
  | js ->
      t.pending <- [];
      List.iter (apply_journal t) (List.rev js)

let note t ~id ~parent ~depth ~edge ~vertex ~track =
  realize t;
  note_raw t ~id ~parent ~depth ~edge ~vertex ~track

(* Hand over a whole run's pop journal in O(1).  The caller transfers
   ownership of [packed] (the flood engine's ring is dead once the run
   returns); it is replayed lazily on first query so the run itself
   pays nothing per delivery beyond the pack. *)
let note_journal t ~packed ~heads ~count ~track =
  t.pending <-
    { j_packed = packed; j_heads = heads; j_count = count; j_track = track }
    :: t.pending

(* {1 Queries} *)

let nodes t =
  realize t;
  t.nodes

let max_depth t =
  realize t;
  t.max_depth

let stored t =
  realize t;
  t.stored

let dropped t =
  realize t;
  t.dropped

let width t =
  realize t;
  Array.fold_left Int.max 0 t.depth_counts

(* Nodes per depth, depths 1..max_depth. *)
let depth_histogram t =
  realize t;
  Array.init t.max_depth (fun i -> t.depth_counts.(i + 1))

let vertex_first_depth t v =
  realize t;
  if v >= 0 && v < Array.length t.vertex_first_depth then
    let d = t.vertex_first_depth.(v) in
    if d < 0 then None else Some d
  else None

(* Top-k edges by deepest delivery, depth-descending (edge-ascending to
   break ties deterministically). *)
let critical_edges t ~k =
  realize t;
  let all = ref [] in
  for e = Array.length t.edge_max_depth - 1 downto 0 do
    if t.edge_max_depth.(e) > 0 then all := (e, t.edge_max_depth.(e)) :: !all
  done;
  let sorted =
    List.stable_sort (fun (_, d1) (_, d2) -> compare d2 d1) !all
  in
  let rec take k = function
    | [] -> []
    | _ when k <= 0 -> []
    | x :: tl -> x :: take (k - 1) tl
  in
  take k sorted

(* Binary search the store for a node id (ids are strictly increasing in
   a run). *)
let find t id =
  realize t;
  let lo = ref 0 and hi = ref (t.stored - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = t.s_id.(mid) in
    if v = id then begin
      found := mid;
      lo := !hi + 1
    end
    else if v < id then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then None
  else
    let i = !found in
    Some
      {
        n_id = t.s_id.(i);
        n_parent = t.s_parent.(i);
        n_edge = t.s_edge.(i);
        n_vertex = t.s_vertex.(i);
        n_depth = t.s_depth.(i);
        n_track = t.s_track.(i);
        n_ts = t.s_ts.(i);
      }

let iter_stored t f =
  realize t;
  for i = 0 to t.stored - 1 do
    f
      {
        n_id = t.s_id.(i);
        n_parent = t.s_parent.(i);
        n_edge = t.s_edge.(i);
        n_vertex = t.s_vertex.(i);
        n_depth = t.s_depth.(i);
        n_track = t.s_track.(i);
        n_ts = t.s_ts.(i);
      }
  done

(* Walk parent links from the deepest node through whatever prefix of
   the chain the store retained — exact end-to-end when sampling is off
   and nothing was dropped.  Deepest-first order. *)
let critical_path t =
  realize t;
  let rec walk acc id =
    if id <= 0 then List.rev acc
    else
      match find t id with
      | None -> List.rev acc
      | Some n -> walk (n :: acc) n.n_parent
  in
  walk [] t.deepest

(* {1 JSON export}

   Shape:
   { "nodes": N, "max_depth": D, "deepest": id, "width": W,
     "stored": S, "dropped": K, "sample_every": E, "capacity": C,
     "depth_counts": [c1, ..., cD],            // index 0 = depth 1
     "critical_edges": [[edge, depth], ...],   // top 16, depth desc
     "critical_path": [[id, parent, edge, vertex, depth], ...],
     "vertex_depths": [d0, d1, ...],           // -1 = never received
     "nodes_stored": [[id, parent, edge, vertex, depth, track, ts], ...] }

   Checked by [Obs.Json.valid] in tests and CI. *)
let to_json t =
  realize t;
  let b = Buffer.create 4096 in
  let bp fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bp "{\"nodes\":%d,\"max_depth\":%d,\"deepest\":%d,\"width\":%d," t.nodes
    t.max_depth t.deepest (width t);
  bp "\"stored\":%d,\"dropped\":%d,\"sample_every\":%d,\"capacity\":%d,"
    t.stored t.dropped t.sample_every t.capacity;
  Buffer.add_string b "\"depth_counts\":[";
  let hist = depth_histogram t in
  Array.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      bp "%d" c)
    hist;
  Buffer.add_string b "],\"critical_edges\":[";
  List.iteri
    (fun i (e, d) ->
      if i > 0 then Buffer.add_char b ',';
      bp "[%d,%d]" e d)
    (critical_edges t ~k:16);
  Buffer.add_string b "],\"critical_path\":[";
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char b ',';
      bp "[%d,%d,%d,%d,%d]" n.n_id n.n_parent n.n_edge n.n_vertex n.n_depth)
    (critical_path t);
  Buffer.add_string b "],\"vertex_depths\":[";
  Array.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      bp "%d" d)
    t.vertex_first_depth;
  Buffer.add_string b "],\"nodes_stored\":[";
  for i = 0 to t.stored - 1 do
    if i > 0 then Buffer.add_char b ',';
    bp "[%d,%d,%d,%d,%d,%d,%.6f]" t.s_id.(i) t.s_parent.(i) t.s_edge.(i)
      t.s_vertex.(i) t.s_depth.(i) t.s_track.(i) t.s_ts.(i)
  done;
  Buffer.add_string b "]}";
  Buffer.contents b
