type vertex = int

(* Compressed sparse row: six int arrays, built once in O(n + m).  Dense
   edge [e] is [src.(e)]'s out-port [e - row.(src.(e))]: the out-edges of
   vertex 0 come first, then those of vertex 1, and so on. *)
type t = {
  n : int;
  s : vertex;
  t : vertex;
  m : int;
  row : int array;  (* n+1: out-edges of u are row.(u) .. row.(u+1)-1 *)
  head : int array;  (* m: target vertex of edge e *)
  tgt_port : int array;  (* m: in-port of head.(e) that e lands on *)
  src : int array;  (* m: source vertex of edge e *)
  in_row : int array;  (* n+1: in-edges of v are in_row.(v) .. in_row.(v+1)-1 *)
  in_edge : int array;  (* m: the edge on each (vertex, in-port) *)
}

let make ~n ~s ~t edge_list =
  if n < 2 then invalid_arg "Graph.make: need at least s and t";
  if s < 0 || s >= n || t < 0 || t >= n then invalid_arg "Graph.make: s/t out of range";
  let row = Array.make (n + 1) 0 and in_row = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.make: edge endpoint out of range";
      row.(u + 1) <- row.(u + 1) + 1;
      in_row.(v + 1) <- in_row.(v + 1) + 1)
    edge_list;
  for v = 1 to n do
    row.(v) <- row.(v) + row.(v - 1);
    in_row.(v) <- in_row.(v) + in_row.(v - 1)
  done;
  let m = row.(n) in
  let head = Array.make m 0 and tgt_port = Array.make m 0 in
  let src = Array.make m 0 and in_edge = Array.make m 0 in
  (* Ports, out and in alike, are numbered in list order. *)
  let out_fill = Array.make n 0 and in_fill = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      let e = row.(u) + out_fill.(u) and i = in_fill.(v) in
      out_fill.(u) <- out_fill.(u) + 1;
      in_fill.(v) <- i + 1;
      head.(e) <- v;
      src.(e) <- u;
      tgt_port.(e) <- i;
      in_edge.(in_row.(v) + i) <- e)
    edge_list;
  { n; s; t; m; row; head; tgt_port; src; in_row; in_edge }

let n_vertices g = g.n
let n_edges g = g.m
let source g = g.s
let terminal g = g.t

let out_degree g v = g.row.(v + 1) - g.row.(v)
let in_degree g v = g.in_row.(v + 1) - g.in_row.(v)

let out_edge g v j =
  if j < 0 || j >= out_degree g v then invalid_arg "Graph: out-port out of range";
  g.row.(v) + j

let out_neighbor g v j = g.head.(out_edge g v j)

let in_origin g v i =
  if i < 0 || i >= in_degree g v then invalid_arg "Graph.in_origin: in-port out of range";
  let e = g.in_edge.(g.in_row.(v) + i) in
  let u = g.src.(e) in
  (u, e - g.row.(u))

let iter_out g v f =
  let lo = g.row.(v) and hi = g.row.(v + 1) in
  for e = lo to hi - 1 do
    f (e - lo) (Array.unsafe_get g.head e)
  done

let fold_out g v ~init f =
  let lo = g.row.(v) and hi = g.row.(v + 1) in
  let acc = ref init in
  for e = lo to hi - 1 do
    acc := f !acc (e - lo) (Array.unsafe_get g.head e)
  done;
  !acc

let out_port_target_port g u j =
  let e = out_edge g u j in
  (g.head.(e), g.tgt_port.(e))

let edges g = List.init g.m (fun e -> (g.src.(e), g.head.(e)))

let edge_index g u j = g.row.(u) + j

let edge_of_index g e =
  if e < 0 || e >= g.m then invalid_arg "Graph.edge_of_index";
  let u = g.src.(e) in
  (u, e - g.row.(u))

let out_offsets g = g.row
let edge_heads g = g.head
let edge_sources g = g.src
let edge_target_ports g = g.tgt_port

let max_out_degree g =
  let best = ref 1 in
  for v = 0 to g.n - 1 do
    best := Int.max !best (out_degree g v)
  done;
  !best

let vertices g = List.init g.n (fun v -> v)

let internal_vertices g =
  List.filter (fun v -> v <> g.s && v <> g.t) (vertices g)

let bfs_forward g start =
  let seen = Array.make g.n false in
  let q = Queue.create () in
  seen.(start) <- true;
  Queue.add start q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    iter_out g v (fun _ w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w q
        end)
  done;
  seen

let reachable_from_s g = bfs_forward g g.s

let coreachable_to_t g =
  let seen = Array.make g.n false in
  let q = Queue.create () in
  seen.(g.t) <- true;
  Queue.add g.t q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    for k = g.in_row.(v) to g.in_row.(v + 1) - 1 do
      let u = g.src.(g.in_edge.(k)) in
      if not seen.(u) then begin
        seen.(u) <- true;
        Queue.add u q
      end
    done
  done;
  seen

let all_reachable g = Array.for_all (fun b -> b) (reachable_from_s g)
let all_coreachable g = Array.for_all (fun b -> b) (coreachable_to_t g)

let topological_order g =
  (* Kahn's algorithm. *)
  let indeg = Array.make g.n 0 in
  Array.iter (fun v -> indeg.(v) <- indeg.(v) + 1) g.head;
  let q = Queue.create () in
  for v = 0 to g.n - 1 do
    if indeg.(v) = 0 then Queue.add v q
  done;
  let order = ref [] and seen = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    incr seen;
    order := v :: !order;
    iter_out g v (fun _ w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w q)
  done;
  if !seen = g.n then Some (List.rev !order) else None

let is_dag g = topological_order g <> None

let is_grounded_tree g =
  in_degree g g.s = 0
  && List.for_all (fun v -> in_degree g v = 1) (internal_vertices g)

let classify g =
  if is_grounded_tree g && is_dag g then `Grounded_tree
  else if is_dag g then `Dag
  else `General

let scc g =
  (* Tarjan with an explicit frame stack instead of recursion: each frame is
     (vertex, next out-port to look at), so graphs with million-edge paths do
     not overflow the OCaml call stack. *)
  let index = Array.make g.n (-1) in
  let lowlink = Array.make g.n 0 in
  let on_stack = Array.make g.n false in
  let comp = Array.make g.n (-1) in
  let stack = Stack.create () in
  let next_index = ref 0 and next_comp = ref 0 in
  let discover v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    Stack.push v stack;
    on_stack.(v) <- true
  in
  let finish v =
    if lowlink.(v) = index.(v) then begin
      let continue = ref true in
      while !continue do
        let w = Stack.pop stack in
        on_stack.(w) <- false;
        comp.(w) <- !next_comp;
        if w = v then continue := false
      done;
      incr next_comp
    end
  in
  let frames = Stack.create () in
  let strongconnect root =
    discover root;
    Stack.push (root, 0) frames;
    while not (Stack.is_empty frames) do
      let v, i = Stack.pop frames in
      if i < out_degree g v then begin
        Stack.push (v, i + 1) frames;
        let w = g.head.(g.row.(v) + i) in
        if index.(w) = -1 then begin
          discover w;
          Stack.push (w, 0) frames
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
      end
      else begin
        finish v;
        match Stack.top_opt frames with
        | Some (p, _) -> lowlink.(p) <- min lowlink.(p) lowlink.(v)
        | None -> ()
      end
    done
  in
  for v = 0 to g.n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (comp, !next_comp)

let validate ?(allow_multi_root = false) g =
  if g.s = g.t then Error "s and t must be distinct"
  else if in_degree g g.s <> 0 then Error "root s must have no incoming edges"
  else if (not allow_multi_root) && out_degree g g.s <> 1 then
    Error "root s must have exactly one outgoing edge"
  else if allow_multi_root && out_degree g g.s < 1 then
    Error "root s must have at least one outgoing edge"
  else if out_degree g g.t <> 0 then Error "terminal t must have no outgoing edges"
  else Ok ()

let equal a b =
  a.n = b.n && a.s = b.s && a.t = b.t && a.row = b.row && a.head = b.head

let transpose g =
  (* [in_edge] lists every vertex's in-edges in in-port order. *)
  let edges =
    List.init g.m (fun k ->
        let e = g.in_edge.(k) in
        (g.head.(e), g.src.(e)))
  in
  make ~n:g.n ~s:g.t ~t:g.s edges

let induced_subgraph g ~keep ~s ~t =
  if Array.length keep <> g.n then invalid_arg "Graph.induced_subgraph: keep size";
  if not (keep.(s) && keep.(t)) then
    invalid_arg "Graph.induced_subgraph: must keep s and t";
  let remap = Array.make g.n (-1) in
  let next = ref 0 in
  for v = 0 to g.n - 1 do
    if keep.(v) then begin
      remap.(v) <- !next;
      incr next
    end
  done;
  let edges =
    List.filter_map
      (fun (u, v) -> if keep.(u) && keep.(v) then Some (remap.(u), remap.(v)) else None)
      (edges g)
  in
  make ~n:!next ~s:remap.(s) ~t:remap.(t) edges

let condensation g =
  let comp, count = scc g in
  let cross =
    List.filter_map
      (fun (u, v) -> if comp.(u) <> comp.(v) then Some (comp.(u), comp.(v)) else None)
      (edges g)
  in
  (make ~n:count ~s:comp.(g.s) ~t:comp.(g.t) cross, comp)

let distances_from g start =
  let dist = Array.make g.n (-1) in
  let q = Queue.create () in
  dist.(start) <- 0;
  Queue.add start q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    iter_out g v (fun _ w ->
        if dist.(w) = -1 then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w q
        end)
  done;
  dist

let diameter_from_s g =
  Array.fold_left Int.max 0 (distances_from g g.s)

let longest_path_dag g =
  match topological_order g with
  | None -> invalid_arg "Graph.longest_path_dag: graph has a cycle"
  | Some order ->
      let best = Array.make g.n 0 in
      List.iter
        (fun v ->
          iter_out g v (fun _ w ->
              if best.(v) + 1 > best.(w) then best.(w) <- best.(v) + 1))
        order;
      Array.fold_left Int.max 0 best

let canonical_signature g =
  let id = Array.make g.n (-1) in
  let next = ref 0 in
  let assign v =
    if id.(v) = -1 then begin
      id.(v) <- !next;
      incr next
    end
  in
  let q = Queue.create () in
  assign g.s;
  Queue.add g.s q;
  let edges = ref [] in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    iter_out g v (fun j w ->
        if id.(w) = -1 then begin
          assign w;
          Queue.add w q
        end;
        edges := (id.(v), j, id.(w)) :: !edges)
  done;
  (!next, id.(g.t), List.sort Stdlib.compare !edges)

let isomorphic a b = canonical_signature a = canonical_signature b

let pp fmt g =
  Format.fprintf fmt "@[<v>digraph: %d vertices, %d edges, s=%d, t=%d@," g.n
    g.m g.s g.t;
  List.iter
    (fun u ->
      if out_degree g u > 0 then
        Format.fprintf fmt "  %d -> %s@," u
          (String.concat ", "
             (List.rev
                (fold_out g u ~init:[] (fun acc _ w -> string_of_int w :: acc)))))
    (vertices g);
  Format.fprintf fmt "@]"
