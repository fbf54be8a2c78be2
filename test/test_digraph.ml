module G = Digraph
module F = Digraph.Families
open Helpers

(* {1 Core graph type} *)

let test_make_and_accessors () =
  let g = G.make ~n:4 ~s:0 ~t:3 [ (0, 1); (1, 2); (1, 3); (2, 3) ] in
  Alcotest.(check int) "vertices" 4 (G.n_vertices g);
  Alcotest.(check int) "edges" 4 (G.n_edges g);
  Alcotest.(check int) "out_degree 1" 2 (G.out_degree g 1);
  Alcotest.(check int) "in_degree 3" 2 (G.in_degree g 3);
  Alcotest.(check int) "out port order" 2 (G.out_neighbor g 1 0);
  Alcotest.(check int) "out port order 2" 3 (G.out_neighbor g 1 1);
  Alcotest.(check (pair int int)) "in origin" (1, 1) (G.in_origin g 3 0);
  Alcotest.(check (pair int int)) "in origin 2" (2, 0) (G.in_origin g 3 1)

let test_make_rejects () =
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Graph.make: edge endpoint out of range") (fun () ->
      ignore (G.make ~n:2 ~s:0 ~t:1 [ (0, 5) ]));
  Alcotest.check_raises "tiny graph"
    (Invalid_argument "Graph.make: need at least s and t") (fun () ->
      ignore (G.make ~n:1 ~s:0 ~t:0 []))

let test_multi_edges_and_self_loops () =
  let g = G.make ~n:3 ~s:0 ~t:2 [ (0, 1); (1, 1); (1, 2); (1, 2) ] in
  Alcotest.(check int) "multi out degree" 3 (G.out_degree g 1);
  Alcotest.(check int) "self loop in degree" 2 (G.in_degree g 1);
  Alcotest.(check int) "t in degree" 2 (G.in_degree g 2)

let test_edge_index_roundtrip () =
  let g = F.grid_dag ~rows:3 ~cols:4 in
  List.iter
    (fun u ->
      for j = 0 to G.out_degree g u - 1 do
        let idx = G.edge_index g u j in
        Alcotest.(check (pair int int)) "roundtrip" (u, j) (G.edge_of_index g idx)
      done)
    (G.vertices g)

let test_out_port_target_port () =
  let g = G.make ~n:4 ~s:0 ~t:3 [ (0, 1); (1, 2); (1, 3); (2, 3) ] in
  let v, i = G.out_port_target_port g 1 1 in
  Alcotest.(check (pair int int)) "lands on t port 0" (3, 0) (v, i);
  let v, i = G.out_port_target_port g 2 0 in
  Alcotest.(check (pair int int)) "lands on t port 1" (3, 1) (v, i)

let test_validate () =
  let ok = F.path 3 in
  Alcotest.(check bool) "valid model graph" true (G.validate ok = Ok ());
  let bad_s = G.make ~n:3 ~s:0 ~t:2 [ (0, 1); (0, 2) ] in
  Alcotest.(check bool) "s out-degree 2 rejected" true (G.validate bad_s <> Ok ());
  let bad_t = G.make ~n:3 ~s:0 ~t:1 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "t with out-edge rejected" true (G.validate bad_t <> Ok ())

(* {1 Structure queries} *)

let test_reachability () =
  let g = F.diamond () in
  Alcotest.(check bool) "all reachable" true (G.all_reachable g);
  Alcotest.(check bool) "all coreachable" true (G.all_coreachable g);
  let trapped = F.add_trap g ~from_vertex:1 in
  Alcotest.(check bool) "trap reachable" true (G.all_reachable trapped);
  Alcotest.(check bool) "trap not coreachable" false (G.all_coreachable trapped)

let test_dag_and_topo () =
  Alcotest.(check bool) "grid is dag" true (G.is_dag (F.grid_dag ~rows:3 ~cols:3));
  Alcotest.(check bool) "cycle not dag" false (G.is_dag (F.cycle_with_exit ~k:4));
  match G.topological_order (F.diamond ()) with
  | None -> Alcotest.fail "diamond has a topo order"
  | Some order ->
      let pos = Array.make 6 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      List.iter
        (fun (u, v) ->
          Alcotest.(check bool) "topo respects edges" true (pos.(u) < pos.(v)))
        (G.edges (F.diamond ()))

let test_grounded_tree_recognition () =
  Alcotest.(check bool) "comb" true (G.is_grounded_tree (F.comb 5));
  Alcotest.(check bool) "path" true (G.is_grounded_tree (F.path 4));
  Alcotest.(check bool) "diamond not" false (G.is_grounded_tree (F.diamond ()));
  Alcotest.(check bool) "classify comb" true (G.classify (F.comb 3) = `Grounded_tree);
  Alcotest.(check bool) "classify diamond" true (G.classify (F.diamond ()) = `Dag);
  Alcotest.(check bool) "classify cycle" true
    (G.classify (F.cycle_with_exit ~k:3) = `General)

let test_scc () =
  let g = F.cycle_with_exit ~k:5 in
  let comp, count = G.scc g in
  (* s, t, and the 5-cycle as one component: 3 components. *)
  Alcotest.(check int) "component count" 3 count;
  let cycle_comp = comp.(1) in
  for i = 1 to 5 do
    Alcotest.(check int) "cycle vertices together" cycle_comp comp.(i)
  done;
  Alcotest.(check bool) "s separate" true (comp.(0) <> cycle_comp)

let test_scc_dag_all_singletons () =
  let g = F.grid_dag ~rows:3 ~cols:3 in
  let _, count = G.scc g in
  Alcotest.(check int) "dag: n components" (G.n_vertices g) count

(* A 400k-vertex path: the recursive Tarjan blew the stack around 10^5
   frames, so this passing is what certifies the explicit-stack rewrite. *)
let test_scc_deep_path () =
  let n = 400_000 in
  let g = F.path n in
  let comp, count = G.scc g in
  Alcotest.(check int) "path: all singletons" (G.n_vertices g) count;
  Alcotest.(check int) "ids reverse-topological" 0 comp.(G.terminal g)

let test_scc_deep_cycle () =
  let n = 300_000 in
  (* s -> 0 -> 1 -> ... -> n-1 -> 0, plus n-1 -> t: one giant component. *)
  let edges =
    ((n + 0, 0) :: List.init n (fun i -> (i, (i + 1) mod n)))
    @ [ (n - 1, n + 1) ]
  in
  let g = G.make ~n:(n + 2) ~s:n ~t:(n + 1) edges in
  let comp, count = G.scc g in
  Alcotest.(check int) "s + cycle + t" 3 count;
  Alcotest.(check int) "cycle collapsed" comp.(0) comp.(n - 1)

let test_random_layered_large () =
  let target_edges = 5_000 in
  let g = F.random_layered_large (Prng.create 11) ~target_edges in
  Alcotest.(check bool) "valid" true (G.validate g = Ok ());
  Alcotest.(check bool) "all reachable" true (G.all_reachable g);
  Alcotest.(check bool) "all coreachable" true (G.all_coreachable g);
  Alcotest.(check bool) "is a dag" true (G.is_dag g);
  let e = G.n_edges g in
  Alcotest.(check bool)
    (Printf.sprintf "|E|=%d within 25%% of target" e)
    true
    (abs (e - target_edges) * 4 <= target_edges);
  Alcotest.check_raises "tiny target rejected"
    (Invalid_argument
       "Families.random_layered_large: target_edges must be >= 32") (fun () ->
      ignore (F.random_layered_large (Prng.create 1) ~target_edges:10))

(* {1 Families} *)

let test_comb_shape () =
  let n = 7 in
  let g = F.comb n in
  Alcotest.(check int) "vertices" (n + 2) (G.n_vertices g);
  Alcotest.(check int) "edges" (2 * n) (G.n_edges g);
  Alcotest.(check bool) "valid" true (G.validate g = Ok ());
  Alcotest.(check bool) "coreachable" true (G.all_coreachable g);
  (* v_i for i < n has chain + tooth; v_n only the tooth. *)
  for i = 1 to n - 1 do
    Alcotest.(check int) "out degree 2" 2 (G.out_degree g i)
  done;
  Alcotest.(check int) "last out degree" 1 (G.out_degree g n)

let test_path_shape () =
  let g = F.path 5 in
  Alcotest.(check int) "vertices" 7 (G.n_vertices g);
  Alcotest.(check int) "edges" 6 (G.n_edges g);
  Alcotest.(check bool) "grounded tree" true (G.is_grounded_tree g)

let test_full_tree_shape () =
  let g = F.full_tree ~height:3 ~degree:2 in
  (* 15 tree nodes + s + t. *)
  Alcotest.(check int) "vertices" 17 (G.n_vertices g);
  (* s->root, 14 tree edges, 8 leaf->t edges. *)
  Alcotest.(check int) "edges" 23 (G.n_edges g);
  Alcotest.(check bool) "valid" true (G.validate g = Ok ());
  Alcotest.(check bool) "dag" true (G.is_dag g);
  Alcotest.(check bool) "grounded tree" true (G.is_grounded_tree g);
  let leaf = F.full_tree_leaf ~height:3 ~degree:2 ~path_ports:[ 0; 0; 0 ] in
  Alcotest.(check int) "leftmost leaf out-degree" 1 (G.out_degree g leaf);
  Alcotest.(check int) "leaf points to t" (G.terminal g) (G.out_neighbor g leaf 0)

let test_pruned_tree_shape () =
  let height = 4 and degree = 3 in
  let g = F.pruned_tree ~height ~degree in
  Alcotest.(check int) "h+3 vertices" (height + 3) (G.n_vertices g);
  Alcotest.(check bool) "valid" true (G.validate g = Ok ());
  Alcotest.(check bool) "coreachable" true (G.all_coreachable g);
  (* Path vertices keep full out-degree (port 0 continues the path). *)
  for i = 1 to height do
    Alcotest.(check int) "out degree d" degree (G.out_degree g i)
  done;
  let leaf = F.pruned_tree_leaf ~height in
  Alcotest.(check int) "leaf out-degree 1" 1 (G.out_degree g leaf)

let test_skeleton_shape () =
  let n = 3 in
  let subset = [| true; false; true |] in
  let g = F.skeleton ~n ~subset in
  Alcotest.(check int) "vertices" ((4 * n) + 2) (G.n_vertices g);
  Alcotest.(check bool) "valid" true (G.validate g = Ok ());
  Alcotest.(check bool) "dag" true (G.is_dag g);
  Alcotest.(check bool) "coreachable" true (G.all_coreachable g);
  let w = F.skeleton_w ~n in
  (* u_0 and u_4 (subset indices 0 and 2) feed w; u_2 does not. *)
  Alcotest.(check int) "w in-degree = |S|" 2 (G.in_degree g w);
  Alcotest.(check int) "w out-degree 1" 1 (G.out_degree g w);
  Alcotest.(check int) "w -> t" (G.terminal g) (G.out_neighbor g w 0)

let test_cycle_with_exit_shape () =
  let g = F.cycle_with_exit ~k:6 in
  Alcotest.(check bool) "valid" true (G.validate g = Ok ());
  Alcotest.(check bool) "not dag" false (G.is_dag g);
  Alcotest.(check bool) "coreachable" true (G.all_coreachable g)

let test_figure_eight_shape () =
  let g = F.figure_eight () in
  Alcotest.(check bool) "valid" true (G.validate g = Ok ());
  Alcotest.(check bool) "coreachable" true (G.all_coreachable g);
  let _, count = G.scc g in
  Alcotest.(check bool) "one big scc" true (count < G.n_vertices g)

let test_add_trap_cycle () =
  let g = F.add_trap_cycle (F.path 2) ~from_vertex:1 in
  Alcotest.(check bool) "reachable" true (G.all_reachable g);
  Alcotest.(check bool) "not coreachable" false (G.all_coreachable g);
  Alcotest.(check bool) "not dag" false (G.is_dag g)

(* {1 Random family properties} *)

let prop_grounded_trees_are_grounded =
  qcheck_to_alcotest ~count:100 "random grounded trees satisfy the definition"
    arb_grounded_tree (fun g ->
      G.is_grounded_tree g && G.validate g = Ok () && G.all_reachable g
      && G.all_coreachable g)

let prop_dags_are_dags =
  qcheck_to_alcotest ~count:100 "random DAGs are valid connected DAGs" arb_dag
    (fun g ->
      G.is_dag g && G.validate g = Ok () && G.all_reachable g && G.all_coreachable g)

let prop_digraphs_connected =
  qcheck_to_alcotest ~count:100 "random digraphs reachable and coreachable"
    arb_digraph (fun g ->
      G.validate g = Ok () && G.all_reachable g && G.all_coreachable g)

let prop_edge_count_consistent =
  qcheck_to_alcotest ~count:100 "edge list matches degree sums" arb_digraph (fun g ->
      let sum_out =
        List.fold_left (fun acc v -> acc + G.out_degree g v) 0 (G.vertices g)
      in
      let sum_in =
        List.fold_left (fun acc v -> acc + G.in_degree g v) 0 (G.vertices g)
      in
      sum_out = G.n_edges g && sum_in = G.n_edges g
      && List.length (G.edges g) = G.n_edges g)

(* {1 Algorithms added for analysis and mapping verification} *)

let test_transpose () =
  let g = F.diamond () in
  let tg = G.transpose g in
  Alcotest.(check int) "same edge count" (G.n_edges g) (G.n_edges tg);
  Alcotest.(check int) "s/t swapped" (G.terminal g) (G.source tg);
  (* Edge sets are reversed. *)
  let fwd = List.sort compare (G.edges g) in
  let bwd = List.sort compare (List.map (fun (u, v) -> (v, u)) (G.edges tg)) in
  Alcotest.(check (list (pair int int))) "edges reversed" fwd bwd;
  (* Double transpose restores edge multiset. *)
  let ttg = G.transpose tg in
  Alcotest.(check (list (pair int int))) "involution on edge multiset" fwd
    (List.sort compare (G.edges ttg))

let test_distances_and_diameter () =
  let g = F.path 4 in
  Alcotest.(check (array int)) "path distances" [| 0; 1; 2; 3; 4; 5 |]
    (G.distances_from g 0);
  Alcotest.(check int) "diameter" 5 (G.diameter_from_s g);
  let trapped = F.add_trap g ~from_vertex:1 in
  let d = G.distances_from trapped (G.terminal trapped) in
  Alcotest.(check int) "t reaches nothing forward" 0
    (Array.fold_left ( + ) 0 (Array.map (fun x -> if x > 0 then 1 else 0) d))

let test_longest_path () =
  Alcotest.(check int) "path" 6 (G.longest_path_dag (F.path 5));
  Alcotest.(check int) "grid 3x4" 7 (G.longest_path_dag (F.grid_dag ~rows:3 ~cols:4));
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Graph.longest_path_dag: graph has a cycle") (fun () ->
      ignore (G.longest_path_dag (F.cycle_with_exit ~k:3)))

let test_condensation () =
  let g = F.cycle_with_exit ~k:5 in
  let dag, comp = G.condensation g in
  Alcotest.(check bool) "condensation is a dag" true (G.is_dag dag);
  Alcotest.(check int) "three components" 3 (G.n_vertices dag);
  Alcotest.(check int) "cycle collapsed" comp.(1) comp.(3)

let test_induced_subgraph () =
  let g = F.diamond () in
  (* Drop vertex 3 (one diamond branch). *)
  let keep = Array.map (fun v -> v <> 3) (Array.of_list (G.vertices g)) in
  let sub = G.induced_subgraph g ~keep ~s:(G.source g) ~t:(G.terminal g) in
  Alcotest.(check int) "five vertices left" 5 (G.n_vertices sub);
  Alcotest.(check int) "edges through 3 dropped" 4 (G.n_edges sub);
  Alcotest.(check bool) "still coreachable" true (G.all_coreachable sub)

let test_canonical_isomorphism () =
  (* Same structure, different vertex numbering: isomorphic. *)
  let a = G.make ~n:5 ~s:0 ~t:4 [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4) ] in
  let b = G.make ~n:5 ~s:0 ~t:4 [ (0, 2); (2, 3); (2, 1); (3, 4); (1, 4) ] in
  Alcotest.(check bool) "renumbered graphs isomorphic" true (G.isomorphic a b);
  (* Swapping the port order at vertex 1 is a different port-numbered net. *)
  let c = G.make ~n:5 ~s:0 ~t:4 [ (0, 1); (1, 3); (1, 2); (2, 4); (3, 4) ] in
  Alcotest.(check bool) "port order matters only up to symmetry" true
    (G.isomorphic a c = G.isomorphic c a);
  Alcotest.(check bool) "self isomorphic" true (G.isomorphic a a);
  Alcotest.(check bool) "different shapes rejected" false
    (G.isomorphic a (F.path 3))

let prop_transpose_involution =
  qcheck_to_alcotest ~count:80 "transpose is an involution up to signature"
    arb_digraph (fun g ->
      let tt = G.transpose (G.transpose g) in
      List.sort compare (G.edges tt) = List.sort compare (G.edges g)
      && G.source tt = G.source g && G.terminal tt = G.terminal g)

let prop_condensation_dag =
  qcheck_to_alcotest ~count:80 "condensation is always a DAG" arb_digraph (fun g ->
      let dag, comp = G.condensation g in
      G.is_dag dag && Array.length comp = G.n_vertices g)

let prop_canonical_stable_under_renumbering =
  qcheck_to_alcotest ~count:60 "canonical signature survives renumbering"
    QCheck.(pair arb_digraph (int_bound 10_000))
    (fun (g, seed) ->
      (* Apply a random permutation that fixes nothing in particular. *)
      let n = G.n_vertices g in
      let perm = Array.init n (fun i -> i) in
      Prng.shuffle_in_place (Prng.create seed) perm;
      let edges = List.map (fun (u, v) -> (perm.(u), perm.(v))) (G.edges g) in
      (* Renumbered edge list must be grouped per source in original port
         order for ports to survive: sort by original dense edge index. *)
      let g' =
        G.make ~n ~s:perm.(G.source g) ~t:perm.(G.terminal g) edges
      in
      (* Edge insertion order per source is preserved by List.map, so the
         port structure is intact and the graphs are isomorphic. *)
      G.isomorphic g g')

(* {1 Local queries against a naive edge-list reference}

   The reference reads everything straight off the edge list: a vertex's
   out-ports (and in-ports) are numbered in the order its edges appear in
   the list, and dense edge indices count the out-edges of lower-numbered
   vertices first.  Small vertex counts make multi-edges and self-loops
   the common case. *)

let gen_edge_list =
  QCheck.Gen.(
    int_range 2 8 >>= fun n ->
    list_size (int_bound 30) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >|= fun es -> (n, es))

let arb_edge_list =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat "; "
           (List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) es)))
    gen_edge_list

let prop_queries_match_reference =
  qcheck_to_alcotest ~count:300 "local queries == edge-list reference"
    arb_edge_list (fun (n, es) ->
      let g = G.make ~n ~s:0 ~t:(n - 1) es in
      let indexed = List.mapi (fun k e -> (k, e)) es in
      (* Port of list position [k] among the edges satisfying [side]. *)
      let port side k =
        List.length (List.filter (fun (k', e) -> k' < k && side e) indexed)
      in
      let outs v = List.filter (fun (_, (u, _)) -> u = v) indexed in
      let ins v = List.filter (fun (_, (_, w)) -> w = v) indexed in
      let out_port k u = port (fun (u', _) -> u' = u) k in
      let in_port k v = port (fun (_, w) -> w = v) k in
      let base u = List.length (List.filter (fun (u', _) -> u' < u) es) in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      if G.n_edges g <> List.length es then fail "n_edges";
      if G.edges g <> List.stable_sort (fun (u, _) (u', _) -> compare u u') es
      then fail "edges";
      for v = 0 to n - 1 do
        let o = outs v and i = ins v in
        if G.out_degree g v <> List.length o then fail "out_degree %d" v;
        if G.in_degree g v <> List.length i then fail "in_degree %d" v;
        List.iteri
          (fun j (k, (_, w)) ->
            if G.out_neighbor g v j <> w then fail "out_neighbor %d %d" v j;
            if G.out_port_target_port g v j <> (w, in_port k w) then
              fail "out_port_target_port %d %d" v j;
            let e = G.edge_index g v j in
            if e <> base v + j then fail "edge_index %d %d" v j;
            if G.edge_of_index g e <> (v, j) then fail "edge_of_index %d" e)
          o;
        List.iteri
          (fun i (k, (u, _)) ->
            if G.in_origin g v i <> (u, out_port k u) then
              fail "in_origin %d %d" v i)
          i;
        let want = List.mapi (fun j (_, (_, w)) -> (j, w)) o in
        let got = ref [] in
        G.iter_out g v (fun j w -> got := (j, w) :: !got);
        if List.rev !got <> want then fail "iter_out %d" v;
        if G.fold_out g v ~init:[] (fun acc j w -> (j, w) :: acc) <> List.rev want
        then fail "fold_out %d" v
      done;
      true)

let test_dot_output () =
  let dot = G.Dot.to_dot (F.diamond ()) in
  Alcotest.(check bool) "mentions digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph")

let () =
  Alcotest.run "digraph"
    [
      ( "core",
        [
          Alcotest.test_case "make/accessors" `Quick test_make_and_accessors;
          Alcotest.test_case "make rejects" `Quick test_make_rejects;
          Alcotest.test_case "multi-edges & loops" `Quick test_multi_edges_and_self_loops;
          Alcotest.test_case "edge_index roundtrip" `Quick test_edge_index_roundtrip;
          Alcotest.test_case "out_port_target_port" `Quick test_out_port_target_port;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "dot" `Quick test_dot_output;
          prop_queries_match_reference;
        ] );
      ( "structure",
        [
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "dag/topo" `Quick test_dag_and_topo;
          Alcotest.test_case "grounded tree recognition" `Quick
            test_grounded_tree_recognition;
          Alcotest.test_case "scc cycle" `Quick test_scc;
          Alcotest.test_case "scc dag" `Quick test_scc_dag_all_singletons;
          Alcotest.test_case "scc deep path" `Quick test_scc_deep_path;
          Alcotest.test_case "scc deep cycle" `Quick test_scc_deep_cycle;
        ] );
      ( "families",
        [
          Alcotest.test_case "comb" `Quick test_comb_shape;
          Alcotest.test_case "path" `Quick test_path_shape;
          Alcotest.test_case "full tree" `Quick test_full_tree_shape;
          Alcotest.test_case "pruned tree" `Quick test_pruned_tree_shape;
          Alcotest.test_case "skeleton" `Quick test_skeleton_shape;
          Alcotest.test_case "cycle with exit" `Quick test_cycle_with_exit_shape;
          Alcotest.test_case "figure eight" `Quick test_figure_eight_shape;
          Alcotest.test_case "trap cycle" `Quick test_add_trap_cycle;
          Alcotest.test_case "layered large" `Quick test_random_layered_large;
        ] );
      ( "random-families",
        [
          prop_grounded_trees_are_grounded;
          prop_dags_are_dags;
          prop_digraphs_connected;
          prop_edge_count_consistent;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "distances/diameter" `Quick test_distances_and_diameter;
          Alcotest.test_case "longest path" `Quick test_longest_path;
          Alcotest.test_case "condensation" `Quick test_condensation;
          Alcotest.test_case "induced subgraph" `Quick test_induced_subgraph;
          Alcotest.test_case "canonical isomorphism" `Quick test_canonical_isomorphism;
          prop_transpose_involution;
          prop_condensation_dag;
          prop_canonical_stable_under_renumbering;
        ] );
    ]
