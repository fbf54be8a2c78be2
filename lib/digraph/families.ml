let comb n =
  if n < 1 then invalid_arg "Families.comb: n must be >= 1";
  let s = 0 and t = n + 1 in
  (* Port order per v_i: chain edge first, then the tooth to t. *)
  let edges =
    (s, 1)
    :: List.concat
         (List.init n (fun i ->
              let v = i + 1 in
              let tooth = (v, t) in
              if i < n - 1 then [ (v, v + 1); tooth ] else [ tooth ]))
  in
  Graph.make ~n:(n + 2) ~s ~t edges

let path n =
  if n < 1 then invalid_arg "Families.path: n must be >= 1";
  let s = 0 and t = n + 1 in
  let edges = (s, 1) :: List.init n (fun i -> (i + 1, if i = n - 1 then t else i + 2)) in
  Graph.make ~n:(n + 2) ~s ~t edges

let diamond () =
  (* s=0, a=1, b=2, c=3, d=4, t=5 *)
  Graph.make ~n:6 ~s:0 ~t:5 [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4); (4, 5) ]

(* Complete degree-d tree of the given height: node ids are assigned in BFS
   order starting from the root; [tree_size h d] nodes. *)
let tree_size height degree =
  let rec go acc level remaining =
    if remaining < 0 then acc else go (acc + level) (level * degree) (remaining - 1)
  in
  go 0 1 height

let full_tree ~height ~degree =
  if height < 1 || degree < 1 then invalid_arg "Families.full_tree";
  let nodes = tree_size height degree in
  let s = 0 and root = 1 in
  let t = nodes + 1 in
  (* Node v at BFS position p (root p=0); children of p are
     p*degree + 1 .. p*degree + degree; internal iff p < tree_size (height-1). *)
  let n_internal = tree_size (height - 1) degree in
  let edges = ref [ (s, root) ] in
  for p = 0 to nodes - 1 do
    if p < n_internal then
      for c = 1 to degree do
        edges := (root + p, root + (p * degree) + c) :: !edges
      done
    else edges := (root + p, t) :: !edges
  done;
  Graph.make ~n:(nodes + 2) ~s ~t (List.rev !edges)

let full_tree_leaf ~height ~degree ~path_ports =
  if List.length path_ports <> height then
    invalid_arg "Families.full_tree_leaf: path_ports length must equal height";
  let p =
    List.fold_left
      (fun p port ->
        if port < 0 || port >= degree then
          invalid_arg "Families.full_tree_leaf: port out of range";
        (p * degree) + 1 + port)
      0 path_ports
  in
  p + 1

let pruned_tree ~height ~degree =
  if height < 1 || degree < 1 then invalid_arg "Families.pruned_tree";
  let s = 0 in
  let u i = 1 + i in
  (* u_0 .. u_height on the surviving path; v = u_height. *)
  let t = height + 2 in
  let edges = ref [ (s, u 0) ] in
  for i = 0 to height - 1 do
    (* Port 0 continues the path (matching path_ports = all zeros in the full
       tree); the remaining degree-1 ports are rewired to t. *)
    edges := (u i, u (i + 1)) :: !edges;
    for _ = 2 to degree do
      edges := (u i, t) :: !edges
    done
  done;
  edges := (u height, t) :: !edges;
  Graph.make ~n:(height + 3) ~s ~t (List.rev !edges)

let pruned_tree_leaf ~height = height + 1

let skeleton ~n ~subset =
  if n < 1 then invalid_arg "Families.skeleton: n must be >= 1";
  if Array.length subset <> n then invalid_arg "Families.skeleton: subset length";
  let s = 0 in
  let v i = 1 + i in
  (* v_0 .. v_{2n-1} *)
  let u i = 1 + (2 * n) + i in
  (* u_0 .. u_{2n-2} *)
  let w = 1 + (2 * n) + (2 * n - 1) in
  let t = w + 1 in
  let edges = ref [ (s, v 0) ] in
  for i = 0 to (2 * n) - 2 do
    (* Port 0 = the "left" spine edge carrying the smaller quantity under the
       splitting rule; port 1 = the hang-off u_i. *)
    edges := (v i, v (i + 1)) :: !edges;
    edges := (v i, u i) :: !edges
  done;
  edges := (v ((2 * n) - 1), t) :: !edges;
  for i = 0 to (2 * n) - 2 do
    if i mod 2 = 1 then edges := (u i, t) :: !edges
    else begin
      let idx = i / 2 in
      if subset.(idx) then edges := (u i, w) :: !edges
      else edges := (u i, t) :: !edges
    end
  done;
  edges := (w, t) :: !edges;
  Graph.make ~n:(t + 1) ~s ~t (List.rev !edges)

let skeleton_w ~n = 1 + (2 * n) + (2 * n - 1)

let cycle_with_exit ~k =
  if k < 2 then invalid_arg "Families.cycle_with_exit: k must be >= 2";
  let s = 0 and t = k + 1 in
  let a i = 1 + ((i - 1) mod k) in
  (* Cycle a_1 -> a_2 -> ... -> a_k -> a_1; exit near the middle. *)
  let exit = 1 + (k / 2) in
  let edges =
    ((s, a 1) :: List.init k (fun i -> (a (i + 1), a (i + 2)))) @ [ (exit, t) ]
  in
  Graph.make ~n:(k + 2) ~s ~t edges

let figure_eight () =
  (* s=0; shared hub=1; loop A: 1->2->3->1; loop B: 1->4->5->1; 3->t. *)
  Graph.make ~n:7 ~s:0 ~t:6
    [ (0, 1); (1, 2); (2, 3); (3, 1); (1, 4); (4, 5); (5, 1); (3, 6) ]

let grid_dag ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Families.grid_dag";
  let s = 0 in
  let cell r c = 1 + (r * cols) + c in
  let t = 1 + (rows * cols) in
  let edges = ref [ (s, cell 0 0) ] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (cell r c, cell r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (cell r c, cell (r + 1) c) :: !edges;
      if c + 1 >= cols && r + 1 >= rows then edges := (cell r c, t) :: !edges
    done
  done;
  Graph.make ~n:(t + 1) ~s ~t (List.rev !edges)

(* Large layered DAG for throughput benchmarks, sized by edge count.  The
   shape is s -> hub -> L layers of [width] vertices -> t: the hub fans out
   to the whole first layer, vertex j of layer i always feeds vertex j of
   layer i+1 (so every vertex is reachable and co-reachable by
   construction), and [fan - 1] extra random forward edges per vertex supply
   the reconvergence.  Edge count lands within a few percent of
   [target_edges]. *)
let random_layered_large prng ~target_edges =
  if target_edges < 32 then
    invalid_arg "Families.random_layered_large: target_edges must be >= 32";
  let fan = 4 in
  let width =
    Stdlib.max 4 (int_of_float (sqrt (float_of_int target_edges /. float_of_int fan)))
  in
  (* 1 (s->hub) + width (hub->layer0) + (layers-1)*width*fan + width (->t). *)
  let layers =
    Stdlib.max 2 (1 + ((target_edges - 1 - (2 * width)) / (width * fan)))
  in
  let s = 0 and hub = 1 in
  let vertex layer j = 2 + (layer * width) + j in
  let t = 2 + (layers * width) in
  let edges = ref [ (s, hub) ] in
  for j = width - 1 downto 0 do
    edges := (hub, vertex 0 j) :: !edges
  done;
  for layer = 0 to layers - 2 do
    for j = 0 to width - 1 do
      (* The aligned spine edge first, then fan-1 random forward edges. *)
      edges := (vertex layer j, vertex (layer + 1) j) :: !edges;
      for _ = 2 to fan do
        edges := (vertex layer j, vertex (layer + 1) (Prng.int prng width)) :: !edges
      done
    done
  done;
  for j = 0 to width - 1 do
    edges := (vertex (layers - 1) j, t) :: !edges
  done;
  Graph.make ~n:(t + 1) ~s ~t (List.rev !edges)

let random_grounded_tree prng ~n ~t_edge_prob =
  if n < 1 then invalid_arg "Families.random_grounded_tree";
  let s = 0 and t = n + 1 in
  let children = Array.make (n + 1) 0 in
  let parent_edges = ref [] in
  for i = 2 to n do
    let p = Prng.int_in prng 1 (i - 1) in
    children.(p) <- children.(p) + 1;
    parent_edges := (p, i) :: !parent_edges
  done;
  let t_edges = ref [] in
  for v = 1 to n do
    if children.(v) = 0 || Prng.chance prng t_edge_prob then
      t_edges := (v, t) :: !t_edges
  done;
  Graph.make ~n:(n + 2) ~s ~t (((s, 1) :: List.rev !parent_edges) @ List.rev !t_edges)

let random_dag prng ~n ~extra_edges ~t_edge_prob =
  if n < 1 then invalid_arg "Families.random_dag";
  let s = 0 and t = n + 1 in
  let edges = ref [ (s, 1) ] in
  let out_count = Array.make (n + 1) 0 in
  for i = 2 to n do
    let p = Prng.int_in prng 1 (i - 1) in
    out_count.(p) <- out_count.(p) + 1;
    edges := (p, i) :: !edges
  done;
  for _ = 1 to extra_edges do
    if n >= 2 then begin
      let i = Prng.int_in prng 2 n in
      let j = Prng.int_in prng 1 (i - 1) in
      out_count.(j) <- out_count.(j) + 1;
      edges := (j, i) :: !edges
    end
  done;
  for v = 1 to n do
    if out_count.(v) = 0 || Prng.chance prng t_edge_prob then
      edges := (v, t) :: !edges
  done;
  Graph.make ~n:(n + 2) ~s ~t (List.rev !edges)

let random_digraph prng ~n ~extra_edges ~back_edges ~t_edge_prob =
  if n < 1 then invalid_arg "Families.random_digraph";
  let s = 0 and t = n + 1 in
  let edges = ref [ (s, 1) ] in
  let out_count = Array.make (n + 1) 0 in
  for i = 2 to n do
    let p = Prng.int_in prng 1 (i - 1) in
    out_count.(p) <- out_count.(p) + 1;
    edges := (p, i) :: !edges
  done;
  for _ = 1 to extra_edges do
    if n >= 2 then begin
      let i = Prng.int_in prng 2 n in
      let j = Prng.int_in prng 1 (i - 1) in
      out_count.(j) <- out_count.(j) + 1;
      edges := (j, i) :: !edges
    end
  done;
  for _ = 1 to back_edges do
    if n >= 2 then begin
      let i = Prng.int_in prng 2 n in
      let j = Prng.int_in prng 1 (i - 1) in
      (* Backward edge i -> j closes a cycle. *)
      out_count.(i) <- out_count.(i) + 1;
      edges := (i, j) :: !edges
    end
  done;
  for v = 1 to n do
    if out_count.(v) = 0 || Prng.chance prng t_edge_prob then
      edges := (v, t) :: !edges
  done;
  (* Back edges can close cycles with no exit; repair by wiring every vertex
     that cannot reach t straight to it, so the standing model assumption
     (all vertices on a path to t) holds. *)
  let g = Graph.make ~n:(n + 2) ~s ~t (List.rev !edges) in
  let coreach = Graph.coreachable_to_t g in
  let repairs = ref [] in
  for v = 1 to n do
    if not coreach.(v) then repairs := (v, t) :: !repairs
  done;
  if !repairs = [] then g
  else Graph.make ~n:(n + 2) ~s ~t (Graph.edges g @ List.rev !repairs)

(* Build the bidirected embedding from an undirected edge list over internal
   vertices 1..n.  Inserting both directions of each undirected edge
   consecutively keeps every internal vertex's out-port and in-port counts in
   lock-step, which is exactly the port-alignment property the undirected
   baseline protocol relies on; s's edge and the t-edges are appended last so
   they occupy the trailing ports. *)
let bidirected_of_undirected ~n undirected =
  let s = 0 and t = n + 1 in
  let both = List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) undirected in
  let t_edges = List.init n (fun i -> (i + 1, t)) in
  Graph.make ~n:(n + 2) ~s ~t (both @ ((s, 1) :: t_edges))

let bidirected_random prng ~n ~extra_edges =
  if n < 1 then invalid_arg "Families.bidirected_random";
  let undirected = ref [] in
  for i = 2 to n do
    undirected := (Prng.int_in prng 1 (i - 1), i) :: !undirected
  done;
  for _ = 1 to extra_edges do
    if n >= 2 then begin
      let u = Prng.int_in prng 1 n in
      let v = Prng.int_in prng 1 n in
      if u <> v then undirected := (u, v) :: !undirected
    end
  done;
  bidirected_of_undirected ~n (List.rev !undirected)

let bidirected_ring ~n =
  if n < 1 then invalid_arg "Families.bidirected_ring";
  let undirected =
    if n = 1 then []
    else if n = 2 then [ (1, 2) ]
    else List.init (n - 1) (fun i -> (i + 1, i + 2)) @ [ (n, 1) ]
  in
  bidirected_of_undirected ~n undirected

let widen_root prng g ~extra =
  let s = Graph.source g and t = Graph.terminal g in
  let candidates =
    List.filter (fun v -> v <> s && v <> t) (Graph.vertices g)
  in
  if candidates = [] then g
  else begin
    let new_edges =
      List.init extra (fun _ -> (s, Prng.pick_list prng candidates))
    in
    Graph.make ~n:(Graph.n_vertices g) ~s ~t (Graph.edges g @ new_edges)
  end

let add_trap g ~from_vertex =
  let n = Graph.n_vertices g in
  Graph.make ~n:(n + 1) ~s:(Graph.source g) ~t:(Graph.terminal g)
    (Graph.edges g @ [ (from_vertex, n) ])

let add_trap_cycle g ~from_vertex =
  let n = Graph.n_vertices g in
  Graph.make ~n:(n + 2) ~s:(Graph.source g) ~t:(Graph.terminal g)
    (Graph.edges g @ [ (from_vertex, n); (n, n + 1); (n + 1, n) ])

(* {1 Dynamic scenarios} *)

(* The footprint of the Austin et al. edge-insertion scenario: a random
   digraph whose vertices are numbered so that every edge but the
   [back_edges] cycle-closing ones runs from a lower vertex to a higher.
   Scripts add the back edges mid-run (a DAG-quiet amnesiac flood goes
   non-terminating the moment a cycle edge appears). *)
let random_dynamic prng ~n ~extra_edges ~back_edges ~t_edge_prob =
  if n < 2 then invalid_arg "Families.random_dynamic: n must be >= 2";
  let s = 0 and t = n + 1 in
  let edges = ref [ (s, 1) ] in
  let out_count = Array.make (n + 1) 0 in
  for i = 2 to n do
    let p = Prng.int_in prng 1 (i - 1) in
    out_count.(p) <- out_count.(p) + 1;
    edges := (p, i) :: !edges
  done;
  for _ = 1 to extra_edges do
    let i = Prng.int_in prng 2 n in
    let j = Prng.int_in prng 1 (i - 1) in
    out_count.(j) <- out_count.(j) + 1;
    edges := (j, i) :: !edges
  done;
  for _ = 1 to back_edges do
    let i = Prng.int_in prng 2 n in
    let j = Prng.int_in prng 1 (i - 1) in
    out_count.(i) <- out_count.(i) + 1;
    edges := (i, j) :: !edges
  done;
  for v = 1 to n do
    if out_count.(v) = 0 || Prng.chance prng t_edge_prob then
      edges := (v, t) :: !edges
  done;
  Graph.make ~n:(n + 2) ~s ~t (List.rev !edges)

(* {1 Family specifications}

   One textual grammar for naming a family instance — shared by the CLI's
   [--family] converter and the serving layer's graph table, so a spec that
   works on the command line is exactly what a server config or a [submit]
   request may use. *)

let spec_doc =
  "comb:N | path:N | diamond | fig8 | cycle:K | grid:RxC | full-tree:H:D | \
   pruned:H:D | skeleton:N | random-tree:N:SEED | random-dag:N:SEED | \
   random:N:SEED | layered:EDGES[:SEED] | ring:N | bidirected:N:SEED; \
   append '+trap' to hang a trap vertex off the first internal vertex"

let of_spec spec =
  let spec, trap =
    match String.index_opt spec '+' with
    | Some i when String.sub spec i (String.length spec - i) = "+trap" ->
        (String.sub spec 0 i, true)
    | _ -> (spec, false)
  in
  let parts = String.split_on_char ':' spec in
  let int s = int_of_string_opt s in
  let base =
    match parts with
    | [ "comb"; n ] -> Option.map comb (int n)
    | [ "path"; n ] -> Option.map path (int n)
    | [ "diamond" ] -> Some (diamond ())
    | [ "fig8" ] -> Some (figure_eight ())
    | [ "cycle"; k ] -> Option.map (fun k -> cycle_with_exit ~k) (int k)
    | [ "grid"; rc ] -> (
        match String.split_on_char 'x' rc with
        | [ r; c ] -> (
            match (int r, int c) with
            | Some rows, Some cols -> Some (grid_dag ~rows ~cols)
            | _ -> None)
        | _ -> None)
    | [ "full-tree"; h; d ] -> (
        match (int h, int d) with
        | Some height, Some degree -> Some (full_tree ~height ~degree)
        | _ -> None)
    | [ "pruned"; h; d ] -> (
        match (int h, int d) with
        | Some height, Some degree -> Some (pruned_tree ~height ~degree)
        | _ -> None)
    | [ "skeleton"; n ] ->
        Option.map (fun n -> skeleton ~n ~subset:(Array.make n true)) (int n)
    | [ "random-tree"; n; seed ] -> (
        match (int n, int seed) with
        | Some n, Some seed ->
            Some (random_grounded_tree (Prng.create seed) ~n ~t_edge_prob:0.3)
        | _ -> None)
    | [ "random-dag"; n; seed ] -> (
        match (int n, int seed) with
        | Some n, Some seed ->
            Some (random_dag (Prng.create seed) ~n ~extra_edges:n ~t_edge_prob:0.2)
        | _ -> None)
    | [ "random"; n; seed ] -> (
        match (int n, int seed) with
        | Some n, Some seed ->
            Some
              (random_digraph (Prng.create seed) ~n ~extra_edges:n
                 ~back_edges:(n / 4) ~t_edge_prob:0.2)
        | _ -> None)
    | [ "layered"; e ] ->
        Option.map
          (fun e -> random_layered_large (Prng.create 42) ~target_edges:e)
          (int e)
    | [ "layered"; e; seed ] -> (
        match (int e, int seed) with
        | Some e, Some seed ->
            Some (random_layered_large (Prng.create seed) ~target_edges:e)
        | _ -> None)
    | [ "ring"; n ] -> Option.map (fun n -> bidirected_ring ~n) (int n)
    | [ "bidirected"; n; seed ] -> (
        match (int n, int seed) with
        | Some n, Some seed ->
            Some (bidirected_random (Prng.create seed) ~n ~extra_edges:n)
        | _ -> None)
    | _ -> None
  in
  match base with
  | None -> Error (Printf.sprintf "cannot parse family %S" spec)
  | Some g ->
      Ok
        (if trap then
           match Graph.internal_vertices g with
           | v :: _ -> add_trap g ~from_vertex:v
           | [] -> g
         else g)
