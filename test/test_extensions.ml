(* Tests for the model extensions the paper claims in Section 2 and the
   engine features supporting them: synchronous execution, multi-out-degree
   roots, channel faults, on-wire codec verification, and the memory
   (state-space) quality measure. *)

module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine
module Is = Intervals.Iset
open Helpers

module Sync_general = Runtime.Engine.Make (Anonet.General_broadcast)
module Sync_tree = Runtime.Engine.Make (Anonet.Tree_broadcast)
module Sync_dag = Runtime.Engine.Make (Anonet.Dag_broadcast_pow2)
module Sync_label = Runtime.Engine.Make (Anonet.Labeling)
module Sync_map = Runtime.Engine.Make (Anonet.Mapping)

(* {1 Synchronous model} *)

let test_sync_rounds_on_path () =
  (* s -> v1 -> ... -> vn -> t: the commodity needs exactly n+1 rounds. *)
  List.iter
    (fun n ->
      let r = Sync_tree.run ~scheduler:Rounds (F.path n) in
      Alcotest.check outcome "terminates" E.Terminated r.outcome;
      Alcotest.(check int) (Printf.sprintf "rounds on path %d" n) (n + 1) r.rounds)
    [ 1; 3; 10; 50 ]

let test_sync_matches_async_outcome () =
  List.iter
    (fun (name, g) ->
      let sync = Sync_general.run ~scheduler:Rounds g in
      let asy = Anonet.broadcast_general g in
      Alcotest.check outcome (name ^ ": same outcome") asy.outcome
        sync.outcome)
    [
      ("comb", F.comb 6);
      ("grid", F.grid_dag ~rows:3 ~cols:3);
      ("cycle", F.cycle_with_exit ~k:5);
      ("fig8", F.figure_eight ());
      ("trap", F.add_trap (F.diamond ()) ~from_vertex:1);
    ]

let test_sync_dag_rounds_are_depth () =
  (* On a grid the DAG protocol's round count is the longest s->t path. *)
  let r = Sync_dag.run ~scheduler:Rounds (F.grid_dag ~rows:3 ~cols:4) in
  Alcotest.check outcome "terminated" E.Terminated r.outcome;
  (* s -> (0,0) -> ... -> (2,3) -> t: 1 + (rows-1 + cols-1) + 1 + 1 hops. *)
  Alcotest.(check int) "rounds = depth" 7 r.rounds

(* E11's rows, pinned: rounds, deliveries and total bits of tree broadcast
   on paths and general broadcast on E11's random digraphs. *)
let test_sync_e11_rows () =
  List.iter
    (fun (n, bits) ->
      let r = Sync_tree.run ~scheduler:Rounds (F.path n) in
      let name = Printf.sprintf "path %d" n in
      Alcotest.check outcome name E.Terminated r.outcome;
      Alcotest.(check int) (name ^ " rounds") (n + 1) r.rounds;
      Alcotest.(check int) (name ^ " deliveries") (n + 1) r.deliveries;
      Alcotest.(check int) (name ^ " bits") bits r.total_bits)
    [ (4, 30); (16, 102); (64, 390); (256, 1542) ];
  List.iter
    (fun (n, rounds, deliveries, bits) ->
      let g =
        F.random_digraph (Prng.create (7000 + n)) ~n ~extra_edges:n
          ~back_edges:(n / 4) ~t_edge_prob:0.2
      in
      let r = Sync_general.run ~scheduler:Rounds g in
      let name = Printf.sprintf "general %d" n in
      Alcotest.check outcome name E.Terminated r.outcome;
      Alcotest.(check int) (name ^ " rounds") rounds r.rounds;
      Alcotest.(check int) (name ^ " deliveries") deliveries r.deliveries;
      Alcotest.(check int) (name ^ " bits") bits r.total_bits)
    [
      (16, 7, 99, 2846);
      (32, 8, 487, 14428);
      (64, 11, 628, 24668);
      (128, 13, 9793, 404069);
    ]

let prop_sync_general_correct =
  qcheck_to_alcotest ~count:60 "sync general broadcast correct on digraphs"
    arb_digraph (fun g ->
      let r = Sync_general.run ~scheduler:Rounds g in
      r.outcome = E.Terminated
      && Array.for_all (fun v -> v) r.visited
      && r.rounds > 0)

let prop_sync_labeling_valid =
  qcheck_to_alcotest ~count:40 "sync labeling yields disjoint labels" arb_digraph
    (fun g ->
      let r = Sync_label.run ~scheduler:Rounds g in
      let labels =
        List.map (fun v -> Anonet.Labeling.label r.states.(v))
          (G.internal_vertices g)
      in
      r.outcome = E.Terminated
      && List.for_all (fun l -> not (Is.is_empty l)) labels
      && pairwise_disjoint labels)

let prop_sync_mapping_reconstructs =
  qcheck_to_alcotest ~count:30 "sync mapping reconstructs" arb_digraph (fun g ->
      let r = Sync_map.run ~scheduler:Rounds g in
      r.outcome = E.Terminated
      &&
      match Anonet.Mapping.extract_map r.states.(G.terminal g) with
      | Ok m -> Anonet.Mapping.map_isomorphic m g
      | Error _ -> false)

(* {1 Multi-out-degree roots (Section 2 extension)} *)

let widen seed g = F.widen_root (Prng.create seed) g ~extra:3

let test_multi_root_validate () =
  let g = widen 5 (F.grid_dag ~rows:3 ~cols:3) in
  Alcotest.(check bool) "strict validate rejects" true (G.validate g <> Ok ());
  Alcotest.(check bool) "extended validate accepts" true
    (G.validate ~allow_multi_root:true g = Ok ());
  Alcotest.(check int) "root out-degree 4" 4 (G.out_degree g (G.source g))

let prop_multi_root_protocols_correct =
  qcheck_to_alcotest ~count:50 "protocols correct with multi-edge roots"
    QCheck.(pair arb_digraph (int_bound 1000))
    (fun (g, seed) ->
      let g = widen seed g in
      let general = Anonet.broadcast_general g in
      let labeling, labels = Anonet.assign_labels g in
      general.outcome = E.Terminated && general.all_visited
      && labeling.outcome = E.Terminated
      && pairwise_disjoint
           (List.map (fun v -> labels.(v)) (G.internal_vertices g)))

let prop_multi_root_dag_conserves =
  qcheck_to_alcotest ~count:50 "multi-root DAG broadcast conserves commodity"
    QCheck.(pair arb_dag (int_bound 1000))
    (fun (g, seed) ->
      let g = widen seed g in
      QCheck.assume (G.is_dag g);
      let r = Anonet.Dag_engine.run g in
      r.outcome = E.Terminated
      && Exact.Dyadic.equal
           (Anonet.Dag_broadcast_pow2.accumulated r.states.(G.terminal g))
           Exact.Dyadic.one)

let prop_multi_root_mapping =
  qcheck_to_alcotest ~count:30 "mapping reconstructs multi-root networks"
    QCheck.(pair arb_digraph (int_bound 1000))
    (fun (g, seed) ->
      let g = widen seed g in
      let r = Anonet.Mapping_engine.run g in
      r.outcome = E.Terminated
      &&
      match Anonet.Mapping.extract_map r.states.(G.terminal g) with
      | Ok m -> Anonet.Mapping.map_isomorphic m g
      | Error _ -> false)

(* {1 Channel faults} *)

let prop_drops_never_false_terminate =
  qcheck_to_alcotest ~count:60 "drops: termination still implies all visited"
    QCheck.(pair arb_digraph (int_bound 1000))
    (fun (g, seed) ->
      let faults = Runtime.Faults.create ~drop:0.15 ~seed () in
      let r = Anonet.General_engine.run ~faults g in
      match r.outcome with
      | E.Terminated -> Array.for_all (fun v -> v) r.visited
      | E.Quiescent -> true
      | E.Step_limit | E.Cancelled -> false)

let prop_drops_safe_for_scalar =
  qcheck_to_alcotest ~count:60 "drops: scalar protocols never falsely terminate"
    QCheck.(pair arb_grounded_tree (int_bound 1000))
    (fun (g, seed) ->
      let faults = Runtime.Faults.create ~drop:0.2 ~seed () in
      let r = Anonet.Tree_engine.run ~faults g in
      match r.outcome with
      | E.Terminated -> Array.for_all (fun v -> v) r.visited
      | E.Quiescent -> true
      | E.Step_limit | E.Cancelled -> false)

(* A duplicated alpha delta is indistinguishable from a detected cycle, so
   even the interval protocol can beta-flood coverage for values whose alpha
   copy is still in flight: false termination.  The paper's exactly-once
   channel assumption is therefore load-bearing — demonstrate it. *)
let test_duplication_breaks_general_broadcast () =
  let broken = ref false in
  let seed = ref 0 in
  while (not !broken) && !seed < 200 do
    incr seed;
    let prng = Prng.create !seed in
    let g =
      F.random_digraph prng ~n:15 ~extra_edges:8 ~back_edges:4 ~t_edge_prob:0.25
    in
    let faults = Runtime.Faults.create ~duplicate:0.3 ~seed:!seed () in
    let r = Anonet.General_engine.run ~faults g in
    if r.outcome = E.Terminated && not (Array.for_all (fun v -> v) r.visited) then
      broken := true
  done;
  Alcotest.(check bool) "duplication can falsely terminate general broadcast" true
    !broken

let prop_duplication_mapping_still_exact =
  qcheck_to_alcotest ~count:25 "duplication: mapping still reconstructs exactly"
    QCheck.(pair arb_digraph (int_bound 1000))
    (fun (g, seed) ->
      let faults = Runtime.Faults.create ~duplicate:0.25 ~seed () in
      let r = Anonet.Mapping_engine.run ~faults g in
      r.outcome = E.Terminated
      &&
      match Anonet.Mapping.extract_map r.states.(G.terminal g) with
      | Ok m -> Anonet.Mapping.map_isomorphic m g
      | Error _ -> false)

let test_duplication_breaks_scalar_conservation () =
  (* The scalar protocols depend on reliable channels (their stated model):
     duplicated commodity either inflates the terminal's total past 1 or
     makes it hit exactly 1 early (false termination). *)
  let g = F.comb 8 in
  let broken = ref false in
  let seed = ref 0 in
  while (not !broken) && !seed < 100 do
    incr seed;
    let faults = Runtime.Faults.create ~duplicate:0.4 ~seed:!seed () in
    let r = Anonet.Tree_engine.run ~faults g in
    let acc = Anonet.Tree_broadcast.accumulated r.states.(G.terminal g) in
    let inflated = Exact.Dyadic.compare acc Exact.Dyadic.one > 0 in
    let false_positive =
      r.outcome = E.Terminated && not (Array.for_all (fun v -> v) r.visited)
    in
    if inflated || false_positive then broken := true
  done;
  Alcotest.(check bool) "duplication breaks scalar conservation" true !broken

(* {1 Wire-codec verification in situ} *)

let test_verify_codec_all_protocols () =
  let g = F.figure_eight () in
  let tree_g = F.comb 6 in
  let dag_g = F.grid_dag ~rows:3 ~cols:3 in
  let check name outcome' =
    Alcotest.check outcome (name ^ " with codec checks") E.Terminated outcome'
  in
  check "tree" (Anonet.Tree_engine.run ~verify_codec:true tree_g).outcome;
  check "tree-naive" (Anonet.Tree_naive_engine.run ~verify_codec:true tree_g).outcome;
  check "dag" (Anonet.Dag_engine.run ~verify_codec:true dag_g).outcome;
  check "general" (Anonet.General_engine.run ~verify_codec:true g).outcome;
  check "labeling" (Anonet.Labeling_engine.run ~verify_codec:true g).outcome;
  check "mapping" (Anonet.Mapping_engine.run ~verify_codec:true g).outcome

let prop_verify_codec_random =
  qcheck_to_alcotest ~count:40 "all wire messages round-trip on random digraphs"
    arb_digraph (fun g ->
      let b = Anonet.General_engine.run ~verify_codec:true g in
      let m = Anonet.Mapping_engine.run ~verify_codec:true g in
      b.outcome = E.Terminated && m.outcome = E.Terminated)

(* {1 State-space (memory) measure} *)

let test_state_bits_reported () =
  let g = F.cycle_with_exit ~k:6 in
  let tree = Anonet.Tree_engine.run (F.comb 6) in
  let general = Anonet.General_engine.run g in
  let mapping = Anonet.Mapping_engine.run g in
  Alcotest.(check bool) "tree states are small" true
    (tree.max_state_bits > 0 && tree.max_state_bits < 200);
  Alcotest.(check bool) "general states bigger" true
    (general.max_state_bits > tree.max_state_bits);
  Alcotest.(check bool) "mapping states biggest" true
    (mapping.max_state_bits > general.max_state_bits)

let prop_state_bits_grow_with_network =
  qcheck_to_alcotest ~count:30 "interval state memory grows with coverage"
    arb_digraph (fun g ->
      let r = Anonet.General_engine.run g in
      (* The terminal ends holding all of [0,1): at least some tens of bits. *)
      r.outcome = E.Terminated && r.max_state_bits >= 16)

let () =
  Alcotest.run "extensions"
    [
      ( "synchronous",
        [
          Alcotest.test_case "rounds on paths" `Quick test_sync_rounds_on_path;
          Alcotest.test_case "matches async outcomes" `Quick
            test_sync_matches_async_outcome;
          Alcotest.test_case "dag rounds = depth" `Quick test_sync_dag_rounds_are_depth;
          Alcotest.test_case "E11 rows" `Quick test_sync_e11_rows;
          prop_sync_general_correct;
          prop_sync_labeling_valid;
          prop_sync_mapping_reconstructs;
        ] );
      ( "multi-root",
        [
          Alcotest.test_case "validate modes" `Quick test_multi_root_validate;
          prop_multi_root_protocols_correct;
          prop_multi_root_dag_conserves;
          prop_multi_root_mapping;
        ] );
      ( "faults",
        [
          prop_drops_never_false_terminate;
          prop_drops_safe_for_scalar;
          prop_duplication_mapping_still_exact;
          Alcotest.test_case "duplication breaks general broadcast" `Quick
            test_duplication_breaks_general_broadcast;
          Alcotest.test_case "duplication breaks scalar" `Quick
            test_duplication_breaks_scalar_conservation;
        ] );
      ( "codec",
        [
          Alcotest.test_case "verify_codec all protocols" `Quick
            test_verify_codec_all_protocols;
          prop_verify_codec_random;
        ] );
      ( "memory",
        [
          Alcotest.test_case "state bits ordering" `Quick test_state_bits_reported;
          prop_state_bits_grow_with_network;
        ] );
    ]
