module Is = Intervals.Iset

type comb_result = {
  comb_n : int;
  edges : int;
  distinct_symbols : int;
  total_bits : int;
  max_edge_bits : int;
}

module Tree_protocol = Scalar_broadcast.Make (Commodity.Pow2_dyadic)
module Tree_engine = Runtime.Engine.Make (Tree_protocol)

let comb_symbols n =
  let g = Digraph.Families.comb n in
  let r = Tree_engine.run g in
  assert (r.outcome = Runtime.Engine.Terminated);
  {
    comb_n = n;
    edges = Digraph.n_edges g;
    distinct_symbols = r.distinct_messages;
    total_bits = r.total_bits;
    max_edge_bits = r.max_edge_bits;
  }

type skeleton_result = {
  skeleton_n : int;
  subsets : int;
  distinct_quantities : int;
  min_quantity_bits : int;
  max_quantity_bits : int;
}

module Skeleton_sweep (C : Commodity.S) = struct
  module P = Dag_broadcast.Make (C)
  module E = Runtime.Engine.Make (P)

  (* The quantity flowing from the collector w into t for one subset choice;
     [C.zero] when w receives nothing (the empty subset). *)
  let w_quantity ~n ~subset =
    let g = Digraph.Families.skeleton ~n ~subset in
    let w = Digraph.Families.skeleton_w ~n in
    let captured = ref C.zero in
    let hook (ev : Runtime.Engine.event) msg =
      if ev.from_vertex = w then captured := msg
    in
    let r = E.run ~on_deliver:hook g in
    (* With an empty subset w is unreachable, which legitimately leaves the
       run quiescent only if some commodity is stranded; here all commodity
       bypasses w, so the run still terminates. *)
    assert (r.outcome = Runtime.Engine.Terminated);
    !captured

  let quantity_bits q =
    let w = Bitio.Bit_writer.create () in
    C.encode w q;
    Bitio.Bit_writer.length w

  let sweep ~n =
    let subsets = 1 lsl n in
    let values = ref [] in
    for mask = 0 to subsets - 1 do
      let subset = Array.init n (fun i -> (mask lsr i) land 1 = 1) in
      values := w_quantity ~n ~subset :: !values
    done;
    let sorted = List.sort_uniq C.compare !values in
    let non_zero = List.filter (fun q -> not (C.equal q C.zero)) sorted in
    let bit_sizes = List.map quantity_bits non_zero in
    {
      skeleton_n = n;
      subsets;
      distinct_quantities = List.length sorted;
      min_quantity_bits = List.fold_left min max_int bit_sizes;
      max_quantity_bits = List.fold_left Int.max 0 bit_sizes;
    }
end

module Sweep_pow2 = Skeleton_sweep (Commodity.Pow2_dyadic)
module Sweep_naive = Skeleton_sweep (Commodity.Even_rational)

let skeleton_quantities_pow2 ~n = Sweep_pow2.sweep ~n
let skeleton_quantities_naive ~n = Sweep_naive.sweep ~n

let linear_cuts g =
  let internals = Array.of_list (Digraph.internal_vertices g) in
  let k = Array.length internals in
  if k > 20 then invalid_arg "Lower_bounds.linear_cuts: graph too large";
  let n = Digraph.n_vertices g in
  let edges = Digraph.edges g in
  let cuts = ref [] in
  for mask = 0 to (1 lsl k) - 1 do
    let v1 = Array.make n false in
    v1.(Digraph.source g) <- true;
    Array.iteri (fun i v -> v1.(v) <- (mask lsr i) land 1 = 1) internals;
    (* Linear cut iff no edge crosses from V2 into V1. *)
    let ok =
      List.for_all (fun (u, v) -> not ((not v1.(u)) && v1.(v))) edges
    in
    if ok then cuts := v1 :: !cuts
  done;
  List.rev !cuts

(* One full run determines every edge's symbol (in both the grounded-tree
   and the DAG protocol every edge carries exactly one message). *)
let crossing_of_run g v1 run =
  let ne = Digraph.n_edges g in
  let symbols = Array.make ne None in
  let hook (ev : Runtime.Engine.event) msg =
    let idx = Digraph.edge_index g ev.from_vertex ev.from_port in
    symbols.(idx) <- Some msg
  in
  run hook;
  let crossing = ref [] in
  List.iteri
    (fun idx (u, v) ->
      if v1.(u) && not v1.(v) then
        match symbols.(idx) with
        | Some x -> crossing := x :: !crossing
        | None -> assert false)
    (Digraph.edges g);
  List.sort Exact.Dyadic.compare !crossing

let cut_crossing_values g v1 =
  crossing_of_run g v1 (fun hook ->
      let r = Tree_engine.run ~on_deliver:hook g in
      assert (r.outcome = Runtime.Engine.Terminated))

module Dag_pow2_engine = Runtime.Engine.Make (Sweep_pow2.P)

let cut_crossing_values_dag g v1 =
  crossing_of_run g v1 (fun hook ->
      let r = Dag_pow2_engine.run ~on_deliver:hook g in
      assert (r.outcome = Runtime.Engine.Terminated))

let multiset_strict_subset a b =
  (* Both sorted; a strict subset of b as multisets. *)
  let rec included a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' ->
        let c = Exact.Dyadic.compare x y in
        if c = 0 then included a' b'
        else if c > 0 then included a b'
        else false
  in
  List.length a < List.length b && included a b

type label_result = {
  height : int;
  degree : int;
  vertices : int;
  label_bits : int;
}

module Label_engine = Runtime.Engine.Make (Labeling)

let iset_bits s =
  let w = Bitio.Bit_writer.create () in
  Is.write w s;
  Bitio.Bit_writer.length w

let pruned_label ~height ~degree =
  let g = Digraph.Families.pruned_tree ~height ~degree in
  let leaf = Digraph.Families.pruned_tree_leaf ~height in
  let r = Label_engine.run g in
  assert (r.outcome = Runtime.Engine.Terminated);
  {
    height;
    degree;
    vertices = Digraph.n_vertices g;
    label_bits = iset_bits (Labeling.label r.states.(leaf));
  }

let full_vs_pruned_leaf_labels ~height ~degree =
  let path_ports = List.init height (fun _ -> 0) in
  let full = Digraph.Families.full_tree ~height ~degree in
  let full_leaf = Digraph.Families.full_tree_leaf ~height ~degree ~path_ports in
  let pruned = Digraph.Families.pruned_tree ~height ~degree in
  let pruned_leaf = Digraph.Families.pruned_tree_leaf ~height in
  let r_full = Label_engine.run full in
  let r_pruned = Label_engine.run pruned in
  assert (r_full.outcome = Runtime.Engine.Terminated);
  assert (r_pruned.outcome = Runtime.Engine.Terminated);
  ( Labeling.label r_full.states.(full_leaf),
    Labeling.label r_pruned.states.(pruned_leaf) )
