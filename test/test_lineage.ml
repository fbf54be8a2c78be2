(* Obs.Lineage: the causal-provenance recorder.

   The load-bearing contract is path parity: a plain Fifo flood takes the
   engine's certified fast path, which records through a packed pop
   journal realized lazily, while [verify_codec] forces the generic path,
   which notes each delivery as it happens.  Both execute the same
   delivery schedule and node ids are the 1-based delivery counter, so
   the two recorders must agree on every aggregate {e and} — with
   sampling off — on the entire stored node stream.  (The stream itself is
   pinned by [test_engine_oracle.ml].) *)

module E = Runtime.Engine
module F = Digraph.Families
module H = Helpers
module L = Obs.Lineage

module Cl = Runtime.Engine.Make (Anonet.Flood)

let stored_list l =
  let acc = ref [] in
  L.iter_stored l (fun n ->
      acc := (n.L.n_id, n.L.n_parent, n.L.n_edge, n.L.n_vertex, n.L.n_depth) :: !acc);
  List.rev !acc

(* {1 Fast path <-> generic path parity, full store} *)

let parity_prop g =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let lc = L.create ~sample_every:1 ~capacity:(1 lsl 20) () in
  let lf = L.create ~sample_every:1 ~capacity:(1 lsl 20) () in
  let cr = Cl.run ~verify_codec:true ~lineage:lc g in
  let fr = Cl.run ~lineage:lf g in
  if cr.E.deliveries <> fr.E.deliveries then fail "schedules diverged";
  (* Sampling off, capacity ample: node count reconciles exactly. *)
  if L.nodes lc <> cr.E.deliveries then
    fail "generic nodes %d <> deliveries %d" (L.nodes lc) cr.E.deliveries;
  if L.nodes lf <> fr.E.deliveries then
    fail "fast nodes %d <> deliveries %d" (L.nodes lf) fr.E.deliveries;
  if L.stored lc <> L.nodes lc then fail "generic store incomplete";
  if L.dropped lc <> 0 || L.dropped lf <> 0 then fail "unexpected drops";
  if L.max_depth lc <> L.max_depth lf then
    fail "max_depth %d <> %d" (L.max_depth lc) (L.max_depth lf);
  if cr.E.rounds <> fr.E.rounds || fr.E.rounds <> L.max_depth lc then
    fail "rounds generic %d, fast %d, max_depth %d" cr.E.rounds fr.E.rounds
      (L.max_depth lc);
  if L.width lc <> L.width lf then fail "width differs";
  if L.depth_histogram lc <> L.depth_histogram lf then
    fail "depth histogram differs";
  if L.critical_edges lc ~k:8 <> L.critical_edges lf ~k:8 then
    fail "critical edges differ";
  if stored_list lc <> stored_list lf then fail "stored node streams differ";
  true

let parity_tests =
  [
    H.qcheck_to_alcotest ~count:25 "fast == generic: trees" H.arb_grounded_tree
      parity_prop;
    H.qcheck_to_alcotest ~count:15 "fast == generic: dags" H.arb_dag parity_prop;
    H.qcheck_to_alcotest ~count:10 "fast == generic: digraphs" H.arb_digraph
      parity_prop;
  ]

(* {1 Sampling and capacity bounds} *)

let test_sampling () =
  let g = F.random_digraph (Prng.create 11) ~n:30 ~extra_edges:40 ~back_edges:8 ~t_edge_prob:0.3 in
  let exact = L.create ~sample_every:1 () in
  ignore (Cl.run ~lineage:exact g);
  let sampled = L.create ~sample_every:5 () in
  let r = Cl.run ~lineage:sampled g in
  (* Aggregates are exact regardless of sampling. *)
  Alcotest.(check int) "nodes exact" (L.nodes exact) (L.nodes sampled);
  Alcotest.(check int) "nodes = deliveries" r.E.deliveries (L.nodes sampled);
  Alcotest.(check int) "max_depth exact" (L.max_depth exact) (L.max_depth sampled);
  Alcotest.(check bool) "histogram exact" true
    (L.depth_histogram exact = L.depth_histogram sampled);
  (* The countdown samples the 1st note then every 5th. *)
  Alcotest.(check int)
    "stored counts the sampled minority"
    (1 + ((L.nodes sampled - 1) / 5))
    (L.stored sampled);
  Alcotest.(check int) "nothing dropped" 0 (L.dropped sampled)

let test_capacity () =
  let g = F.random_digraph (Prng.create 12) ~n:30 ~extra_edges:40 ~back_edges:8 ~t_edge_prob:0.3 in
  let l = L.create ~sample_every:1 ~capacity:8 () in
  ignore (Cl.run ~lineage:l g);
  Alcotest.(check int) "store capped" 8 (L.stored l);
  Alcotest.(check int)
    "overflow counted as dropped" (L.nodes l - 8) (L.dropped l);
  Alcotest.(check bool) "aggregates still exact" true (L.nodes l > 8)

(* {1 Critical path on a line graph} *)

let test_critical_path () =
  let k = 9 in
  let g = F.path k in
  let l = L.create ~sample_every:1 () in
  let r = Cl.run ~lineage:l g in
  Alcotest.(check int) "one delivery per edge" (Digraph.n_edges g) r.E.deliveries;
  Alcotest.(check int) "depth = path length" (k + 1) (L.max_depth l);
  Alcotest.(check int) "width 1" 1 (L.width l);
  let path = L.critical_path l in
  Alcotest.(check int) "full chain retained" (k + 1) (List.length path);
  (* Deepest-first: depths k+1, k, ..., 1, parent links chaining. *)
  List.iteri
    (fun i n ->
      Alcotest.(check int)
        (Printf.sprintf "depth at position %d" i)
        (k + 1 - i) n.L.n_depth)
    path;
  let rec chained = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check int) "parent link" b.L.n_id a.L.n_parent;
        chained rest
    | [ last ] -> Alcotest.(check int) "root parent" 0 last.L.n_parent
    | [] -> ()
  in
  chained path

(* {1 JSON export} *)

let test_json () =
  let g = F.random_digraph (Prng.create 13) ~n:20 ~extra_edges:25 ~back_edges:5 ~t_edge_prob:0.3 in
  let l = L.create ~sample_every:2 () in
  ignore (Cl.run ~lineage:l g);
  let s = L.to_json l in
  Alcotest.(check bool) "valid JSON" true (Obs.Json.valid s);
  let v = Result.get_ok (Obs.Json.parse s) in
  let field name =
    match Obs.Json.member name v with
    | Some (Obs.Json.Number n) -> int_of_string n
    | _ -> Alcotest.failf "missing field %s" name
  in
  Alcotest.(check int) "nodes" (L.nodes l) (field "nodes");
  Alcotest.(check int) "max_depth" (L.max_depth l) (field "max_depth");
  Alcotest.(check int) "stored" (L.stored l) (field "stored");
  Alcotest.(check int) "dropped" (L.dropped l) (field "dropped")

let () =
  Alcotest.run "lineage"
    [
      ("parity", parity_tests);
      ( "bounds",
        [
          Alcotest.test_case "sampling countdown" `Quick test_sampling;
          Alcotest.test_case "capacity + dropped" `Quick test_capacity;
        ] );
      ( "queries",
        [
          Alcotest.test_case "critical path, deepest first" `Quick
            test_critical_path;
          Alcotest.test_case "json export" `Quick test_json;
        ] );
    ]
