(* The fault-injection subsystem: per-edge fault plans, the engine's delay /
   corruption / kill integration, the Redundant(k) resilience wrapper, and
   the deterministic Campaign harness. *)

module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine
module Fl = Runtime.Faults
module C = Runtime.Campaign
open Helpers

(* {1 Fault-plan distributions (the fixed Faults.copies semantics)} *)

let count_fates plan ~sends =
  (* One edge, many sends: the per-edge stream makes this a pure sample of
     the documented per-send distribution. *)
  let inst = Fl.Instance.start (Fl.uniform plan ~seed:42) in
  List.init sends (fun _ -> Fl.Instance.on_send inst ~edge:0)

let test_duplication_is_geometric () =
  let fates = count_fates (Fl.plan ~duplicate:0.5 ()) ~sends:5000 in
  let max_copies =
    List.fold_left (fun acc f -> max acc (List.length f)) 0 fates
  in
  Alcotest.(check bool) "geometric duplication exceeds the old cap of 2" true
    (max_copies > 2);
  let total = List.fold_left (fun acc f -> acc + List.length f) 0 fates in
  let mean = float_of_int total /. 5000.0 in
  (* E[1 + Geom(0.5)] = 2. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean copies %.3f ~ 2" mean)
    true
    (mean > 1.85 && mean < 2.15)

let test_drop_and_duplicate_independent () =
  (* Under the old semantics duplication was only sampled when the drop coin
     failed, so P(copies >= 2) was (1-p)*q; independent per-copy drops give
     P(copies >= 2) = q*(1-p)^2 + higher terms, and crucially E[copies] =
     (1 + q/(1-q)) * (1-p) exactly. *)
  let fates = count_fates (Fl.plan ~drop:0.5 ~duplicate:0.5 ()) ~sends:8000 in
  let total = List.fold_left (fun acc f -> acc + List.length f) 0 fates in
  let mean = float_of_int total /. 8000.0 in
  (* E = 2 * 0.5 = 1. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean surviving copies %.3f ~ 1" mean)
    true
    (mean > 0.9 && mean < 1.1);
  let dropped_all = List.length (List.filter (fun f -> f = []) fates) in
  let duplicated = List.length (List.filter (fun f -> List.length f >= 2) fates) in
  Alcotest.(check bool) "both total loss and duplication occur" true
    (dropped_all > 1000 && duplicated > 1000)

let test_fault_validation () =
  let bad f = Alcotest.check_raises "rejects" (Invalid_argument "") f in
  let check_invalid f =
    try
      f ();
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  ignore bad;
  check_invalid (fun () -> ignore (Fl.plan ~drop:1.5 ()));
  check_invalid (fun () -> ignore (Fl.plan ~duplicate:1.0 ()));
  check_invalid (fun () -> ignore (Fl.plan ~max_delay:(-1) ()));
  check_invalid (fun () -> ignore (Fl.create ~kill:(-0.1) ~seed:1 ()))

(* {1 Engine integration} *)

let digraph seed =
  F.random_digraph (Prng.create seed) ~n:15 ~extra_edges:10 ~back_edges:4
    ~t_edge_prob:0.25

let test_faulty_runs_reproducible () =
  let g = digraph 7 in
  let run () =
    let faults =
      Fl.create ~drop:0.1 ~duplicate:0.15 ~max_delay:3 ~corrupt:0.05 ~kill:0.01
        ~seed:99 ()
    in
    Anonet.General_engine.run ~faults g
  in
  let a = run () and b = run () in
  Alcotest.check outcome "same outcome" a.outcome b.outcome;
  Alcotest.(check int) "same deliveries" a.deliveries b.deliveries;
  Alcotest.(check int) "same bits" a.total_bits b.total_bits;
  Alcotest.(check int) "same final in-flight" a.final_in_flight b.final_in_flight;
  Alcotest.(check bool) "same fault stats" true (a.fault_stats = b.fault_stats)

let test_delay_reorders_but_stays_sound () =
  (* Delays lose nothing: the general protocol is schedule-free, so it must
     still terminate having visited everything — even under Fifo, which the
     delay queue quietly reorders. *)
  let delayed_total = ref 0 in
  for seed = 1 to 20 do
    let g = digraph seed in
    let faults = Fl.create ~max_delay:5 ~seed () in
    let r = Anonet.General_engine.run ~faults g in
    delayed_total := !delayed_total + r.fault_stats.delayed_copies;
    if not (r.outcome = E.Terminated && Array.for_all (fun v -> v) r.visited)
    then Alcotest.fail ("delay broke soundness: " ^ report_summary r)
  done;
  Alcotest.(check bool) "some copies actually delayed" true (!delayed_total > 0)

let test_corruption_is_counted_not_fatal () =
  let corrupted = ref 0 and garbled = ref 0 in
  for seed = 1 to 20 do
    let g = digraph seed in
    let faults = Fl.create ~corrupt:0.3 ~seed () in
    let r = Anonet.General_engine.run ~faults g in
    corrupted := !corrupted + r.fault_stats.corrupted_deliveries;
    garbled := !garbled + r.fault_stats.garbled_drops
  done;
  Alcotest.(check bool)
    (Printf.sprintf "bit flips surfaced as diagnostics (%d corrupted, %d garbled)"
       !corrupted !garbled)
    true
    (!corrupted + !garbled > 0)

let test_killed_edge_starves_path () =
  let g = F.path 4 in
  let faults = Fl.create ~kill:1.0 ~seed:5 () in
  let r = Anonet.Tree_engine.run ~faults g in
  Alcotest.check outcome "starves" E.Quiescent r.outcome;
  Alcotest.(check bool) "nothing delivered" true (r.deliveries = 0);
  Alcotest.(check bool) "the dead edge is reported" true
    (r.fault_stats.dead_edges <> []);
  Alcotest.(check int) "no residual in-flight (loss, not starvation)" 0
    r.final_in_flight

let test_step_limit_reports_in_flight () =
  (* Flood on a cycle family keeps messages moving; a tiny step limit must
     leave the residue visible in final_in_flight. *)
  let g = F.figure_eight () in
  let module Fe = Runtime.Engine.Make (Anonet.Flood) in
  let r = Fe.run ~step_limit:2 g in
  Alcotest.check outcome "stopped by limit" E.Step_limit r.outcome;
  Alcotest.(check bool) ("in-flight residue: " ^ report_summary r) true
    (r.final_in_flight > 0)

(* {1 Redundant(k) resilience wrapper} *)

module K3 = struct
  let k = 3
end

module K5 = struct
  let k = 5
end

module General_r3 = Anonet.Redundant.Make (K3) (Anonet.General_broadcast)
module Tree_r5 = Anonet.Redundant.Make (K5) (Anonet.Tree_broadcast)
module General_r3_engine = Runtime.Engine.Make (General_r3)
module Tree_r5_engine = Runtime.Engine.Make (Tree_r5)

let test_redundant_faithful_when_reliable () =
  let g = F.comb 8 in
  let bare = Anonet.Tree_engine.run g in
  let red = Tree_r5_engine.run g in
  Alcotest.check outcome "still terminates" E.Terminated red.outcome;
  Alcotest.(check bool) "all visited" true (Array.for_all (fun v -> v) red.visited);
  (* The engine stops at the accepting configuration, which can leave late
     copies undelivered — conservation holds over delivered + in-flight. *)
  Alcotest.(check int) "k-fold copies conserved"
    (5 * (bare.deliveries + bare.final_in_flight))
    (red.deliveries + red.final_in_flight);
  Alcotest.(check bool) "repetition + checksum cost real bits" true
    (red.total_bits > bare.total_bits);
  Alcotest.(check bool) "dedup memory is charged" true
    (red.max_state_bits > bare.max_state_bits)

let test_redundant_neutralizes_duplication () =
  (* The bare general protocol falsely terminates under duplication (see
     test_extensions); the dedup layer must close exactly that hole. *)
  for seed = 1 to 40 do
    let g = digraph seed in
    let faults = Fl.create ~duplicate:0.3 ~seed () in
    let r = General_r3_engine.run ~faults g in
    if r.outcome = E.Terminated && not (Array.for_all (fun v -> v) r.visited)
    then Alcotest.fail ("dedup failed on seed " ^ string_of_int seed)
  done

let drop_survivors run =
  let ok = ref 0 in
  for seed = 1 to 20 do
    let g = F.comb 8 in
    let faults = Fl.create ~drop:0.25 ~seed () in
    let r = run ~faults g in
    if r = E.Terminated then incr ok
  done;
  !ok

let test_redundancy_restores_broadcast_under_drops () =
  let bare =
    drop_survivors (fun ~faults g -> (Anonet.Tree_engine.run ~faults g).outcome)
  in
  let red =
    drop_survivors (fun ~faults g -> (Tree_r5_engine.run ~faults g).outcome)
  in
  Alcotest.(check bool)
    (Printf.sprintf "bare %d/20 vs redundant %d/20 at drop 0.25" bare red)
    true
    (bare <= 4 && red >= 15 && red > bare)

(* Reference for the wrapper's wire format: the 16-bit checksum, then the
   inner encoding copied one bit at a time. *)
let bitwise_redundant_encoding msg =
  let inner = Bitio.Bit_writer.create () in
  Anonet.General_broadcast.encode inner msg;
  let outer = Bitio.Bit_writer.create () in
  General_r3.encode outer msg;
  let checksum =
    Bitio.Bit_reader.bits
      (Bitio.Bit_reader.of_string ~length_bits:16
         (Bitio.Bit_writer.to_string outer))
      16
  in
  let w = Bitio.Bit_writer.create () in
  Bitio.Bit_writer.bits w checksum 16;
  let s = Bitio.Bit_writer.to_string inner in
  for i = 0 to Bitio.Bit_writer.length inner - 1 do
    Bitio.Bit_writer.bit w ((Char.code s.[i / 8] lsr (7 - (i mod 8))) land 1 = 1)
  done;
  (outer, w)

let prop_redundant_encode_bytewise =
  qcheck_to_alcotest "byte-wise copy = bit-wise copy"
    QCheck.(pair arb_iset arb_iset)
    (fun msg ->
      let outer, reference = bitwise_redundant_encoding msg in
      Bitio.Bit_writer.length outer = Bitio.Bit_writer.length reference
      && Bitio.Bit_writer.to_string outer = Bitio.Bit_writer.to_string reference)

let test_redundant_verify_codec () =
  for seed = 1 to 10 do
    let r = General_r3_engine.run ~verify_codec:true (digraph seed) in
    Alcotest.check outcome "terminates" E.Terminated r.outcome
  done

(* {1 Campaign harness} *)

module Tree_runner = C.Of_protocol (Anonet.Tree_broadcast)
module Dag_runner = C.Of_protocol (Anonet.Dag_broadcast_pow2)
module General_runner = C.Of_protocol (Anonet.General_broadcast)
module Tree_r5_runner = C.Of_protocol (Tree_r5)
module General_r3_runner = C.Of_protocol (General_r3)

module Dag_r3 = Anonet.Redundant.Make (K3) (Anonet.Dag_broadcast_pow2)
module Dag_r3_runner = C.Of_protocol (Dag_r3)

let seeds20 = List.init 20 (fun i -> i + 1)

let tree_case =
  {
    C.g_name = "random-tree-12";
    build =
      (fun ~seed ->
        F.random_grounded_tree (Prng.create seed) ~n:12 ~t_edge_prob:0.3);
  }

let dag_case =
  {
    C.g_name = "random-dag-12";
    build =
      (fun ~seed ->
        F.random_dag (Prng.create seed) ~n:12 ~extra_edges:12 ~t_edge_prob:0.25);
  }

let general_case =
  {
    C.g_name = "random-digraph-12";
    build =
      (fun ~seed ->
        F.random_digraph (Prng.create seed) ~n:12 ~extra_edges:8 ~back_edges:3
          ~t_edge_prob:0.25);
  }

(* The acceptance campaign: three broadcast protocols (tree, DAG, general),
   each behind the Redundant wrapper and run on its own graph family, over a
   full drop x duplicate x delay x corruption grid, 20 seeds per cell.
   Soundness must hold on every run: repetition + dedup defuses drops and
   duplication, and the wrapper's checksum turns single-bit corruption into
   a detected decode failure (a drop) instead of a silently different valid
   message — without it, a corrupted commodity amount can inflate the
   terminal's flow and falsely terminate. *)
let acceptance_grid =
  C.grid ~drops:[ 0.0; 0.1 ] ~duplicates:[ 0.0; 0.2 ] ~max_delays:[ 0; 2 ]
    ~corrupts:[ 0.0; 0.02 ] ()

let test_campaign_acceptance_sound () =
  let pairs =
    [
      (Tree_r5_runner.runner (), tree_case);
      (Dag_r3_runner.runner (), dag_case);
      (General_r3_runner.runner (), general_case);
    ]
  in
  List.iter
    (fun ((runner : C.runner), graph) ->
      let res =
        C.run ~step_limit:300_000 ~runners:[ runner ] ~graphs:[ graph ]
          ~grid:acceptance_grid ~seeds:seeds20 ()
      in
      Alcotest.(check int)
        (runner.C.r_name ^ ": full 2x2x2x2 grid")
        16 (List.length res.C.cells);
      (match res.C.violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.fail
            (Printf.sprintf "unsound: %s on %s at %s seed %d" v.C.v_runner
               v.C.v_graph v.C.v_point.C.label v.C.v_seed));
      Alcotest.(check bool) (runner.C.r_name ^ " sound") true (C.sound res))
    pairs

let test_campaign_deterministic () =
  let small () =
    C.run ~step_limit:100_000
      ~runners:[ General_runner.runner () ]
      ~graphs:[ general_case ]
      ~grid:(C.grid ~drops:[ 0.0; 0.2 ] ~duplicates:[ 0.0; 0.25 ] ())
      ~seeds:(List.init 10 (fun i -> i + 1))
      ()
  in
  Alcotest.(check string) "bit-for-bit identical JSON" (C.to_json (small ()))
    (C.to_json (small ()))

let test_campaign_drops_only_is_sound_for_bare_protocols () =
  let pairs =
    [
      (Tree_runner.runner (), tree_case);
      (Dag_runner.runner (), dag_case);
      (General_runner.runner (), general_case);
    ]
  in
  List.iter
    (fun ((runner : C.runner), graph) ->
      let res =
        C.run ~step_limit:300_000 ~runners:[ runner ] ~graphs:[ graph ]
          ~grid:(C.grid ~drops:[ 0.1; 0.3 ] ~max_delays:[ 0; 3 ] ())
          ~seeds:seeds20 ()
      in
      Alcotest.(check bool)
        (runner.C.r_name ^ ": drops and delays never cause false termination")
        true (C.sound res))
    pairs

let test_campaign_finds_and_shrinks_duplication_violation () =
  let seeds = List.init 60 (fun i -> i + 1) in
  let res =
    C.run ~step_limit:300_000
      ~runners:[ General_runner.runner () ]
      ~graphs:[ general_case ]
      ~grid:[ C.point ~duplicate:0.35 () ]
      ~seeds ()
  in
  match res.C.violations with
  | [] ->
      Alcotest.fail "expected duplication to break the bare general protocol"
  | v :: _ ->
      Alcotest.(check bool) "shrunk rate <= original" true
        (v.C.shrunk_point.C.fault_plan.Fl.duplicate
        <= v.C.v_point.C.fault_plan.Fl.duplicate);
      (* The shrunk witness must replay: same runner, same graph family,
         shrunk (rate, seed) pair still falsely terminates. *)
      let g = general_case.C.build ~seed:v.C.shrunk_seed in
      let runner = General_runner.runner () in
      let s =
        runner.C.run
          ~faults:(Fl.uniform v.C.shrunk_point.C.fault_plan ~seed:v.C.shrunk_seed)
          ~step_limit:300_000 g
      in
      let reach = G.reachable_from_s g in
      Alcotest.check outcome "witness terminates" E.Terminated s.outcome;
      Alcotest.(check bool) "witness leaves a reachable vertex unvisited" true
        (List.exists
           (fun v' -> reach.(v') && not s.visited.(v'))
           (G.vertices g))

let test_campaign_reports_starvation_and_dark_edges () =
  let res =
    C.run ~step_limit:100_000
      ~runners:[ Tree_runner.runner () ]
      ~graphs:
        [ { C.g_name = "path-4"; build = (fun ~seed:_ -> F.path 4) } ]
      ~grid:[ C.point ~kill:0.8 () ]
      ~seeds:(List.init 10 (fun i -> i + 1))
      ()
  in
  Alcotest.(check bool) "killing edges starves the path" true
    (res.C.starvations <> []);
  let s = List.hd res.C.starvations in
  Alcotest.(check bool) "dark edges named" true (s.C.dark_edges <> []);
  Alcotest.(check bool) "starved vertices named" true (s.C.starved <> [])

let () =
  Alcotest.run "faults"
    [
      ( "plans",
        [
          Alcotest.test_case "geometric duplication" `Quick
            test_duplication_is_geometric;
          Alcotest.test_case "drop/duplicate independent" `Quick
            test_drop_and_duplicate_independent;
          Alcotest.test_case "validation" `Quick test_fault_validation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "faulty runs reproducible" `Quick
            test_faulty_runs_reproducible;
          Alcotest.test_case "delay reorders, stays sound" `Quick
            test_delay_reorders_but_stays_sound;
          Alcotest.test_case "corruption counted, not fatal" `Quick
            test_corruption_is_counted_not_fatal;
          Alcotest.test_case "killed edge starves" `Quick
            test_killed_edge_starves_path;
          Alcotest.test_case "step limit reports in-flight" `Quick
            test_step_limit_reports_in_flight;
        ] );
      ( "redundant",
        [
          Alcotest.test_case "faithful when reliable" `Quick
            test_redundant_faithful_when_reliable;
          Alcotest.test_case "neutralizes duplication" `Quick
            test_redundant_neutralizes_duplication;
          Alcotest.test_case "restores broadcast under drops" `Quick
            test_redundancy_restores_broadcast_under_drops;
          prop_redundant_encode_bytewise;
          Alcotest.test_case "codec round-trips" `Quick test_redundant_verify_codec;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "acceptance grid is sound" `Slow
            test_campaign_acceptance_sound;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "drops-only sound for bare protocols" `Slow
            test_campaign_drops_only_is_sound_for_bare_protocols;
          Alcotest.test_case "finds and shrinks duplication violation" `Quick
            test_campaign_finds_and_shrinks_duplication_violation;
          Alcotest.test_case "reports starvation + dark edges" `Quick
            test_campaign_reports_starvation_and_dark_edges;
        ] );
    ]
