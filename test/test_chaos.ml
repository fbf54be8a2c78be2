(* The chaos search: joint edge x vertex fault-space exploration, witness
   shrinking and dedup, schedule replay, and the Check_suite controls. *)

open Helpers
module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine
module Fl = Runtime.Faults
module V = Runtime.Vfaults
module Ch = Runtime.Chaos
module S = Runtime.Scheduler

(* {1 Fault-set plumbing} *)

let test_canonical_key_order_insensitive () =
  let a = Ch.Kill_edge 3 in
  let b = Ch.Crash_vertex (V.event ~vertex:2 ~at:1 ()) in
  let c = Ch.Crash_vertex (V.event ~vertex:5 ~at:2 ~recovery:V.Stop ()) in
  Alcotest.(check string) "permutation invariant"
    (Ch.canonical_key [ a; b; c ])
    (Ch.canonical_key [ c; a; b ]);
  Alcotest.(check bool) "different sets differ" true
    (Ch.canonical_key [ a; b ] <> Ch.canonical_key [ a; c ])

let test_required_excuses_stopped_and_cut () =
  let g = F.path 4 in
  (* 0 -> 1 -> 2 -> 3.  Killing edge (1,2) cuts 2 and 3 off. *)
  let kill12 = Ch.Kill_edge (G.edge_index g 1 0) in
  let req = Ch.required g [ kill12 ] in
  Alcotest.(check bool) "vertex 1 still required" true req.(1);
  Alcotest.(check bool) "vertex 2 excused (unreachable)" false req.(2);
  Alcotest.(check bool) "vertex 3 excused (unreachable)" false req.(3);
  (* A crash-stopped vertex is excused and does not forward. *)
  let stop1 = Ch.Crash_vertex (V.event ~vertex:1 ~at:1 ~recovery:V.Stop ()) in
  let req = Ch.required g [ stop1 ] in
  Alcotest.(check bool) "stopped vertex excused" false req.(1);
  Alcotest.(check bool) "its subtree excused too" false req.(2);
  (* A restarting crash excuses nothing. *)
  let req = Ch.required g [ Ch.Crash_vertex (V.event ~vertex:1 ~at:1 ()) ] in
  Alcotest.(check bool) "amnesiac vertex still required" true req.(1);
  Alcotest.(check bool) "downstream still required" true req.(3)

let test_compile_round_trip () =
  let remove = Ch.Churn_edge (Fl.remove_event ~edge:2 ~at:1 ()) in
  let faults, vfaults =
    Ch.compile
      [ Ch.Kill_edge 0; Ch.Crash_vertex (V.event ~vertex:1 ~at:1 ()); remove ]
  in
  Alcotest.(check bool) "edge plan armed" true (Fl.sends faults);
  Alcotest.(check bool) "vertex plan armed" false (V.is_none vfaults);
  Alcotest.(check bool) "churn script armed" true (Fl.offers faults);
  let churn, _ = Ch.compile [ remove ] in
  Alcotest.(check bool) "churn alone arms only the offer hook" true
    (Fl.offers churn && not (Fl.sends churn));
  let nf, nv = Ch.compile [] in
  Alcotest.(check bool) "empty set compiles to none" true
    (Fl.is_none nf && V.is_none nv)

(* {1 Replay determinism under faults} *)

(* The engine records every consumed copy's seq; replaying that schedule
   with the same fault plans must reproduce the report byte-for-byte. *)
let check_replay_reproduces ~supervisor g =
  let runner = Anonet.Resilient.chaos_runner ~k:3 (module Anonet.General_broadcast) in
  let faults = Fl.create ~drop:0.15 ~duplicate:0.1 ~max_delay:2 ~corrupt:0.1 ~seed:5 () in
  let vfaults =
    V.uniform (V.plan ~crash:0.1 ~max_downtime:2 ~stutter:0.05 ()) ~seed:6
  in
  let orig =
    runner.Ch.run ~scheduler:S.Fifo ~record:true ~faults ~vfaults ~supervisor
      ~step_limit:200_000 g
  in
  Alcotest.(check bool) "schedule recorded" true (orig.Ch.schedule <> []);
  let replayed =
    runner.Ch.run
      ~scheduler:(S.Replay orig.Ch.schedule)
      ~record:false ~faults ~vfaults ~supervisor ~step_limit:200_000 g
  in
  Alcotest.check outcome "same outcome" orig.Ch.outcome replayed.Ch.outcome;
  Alcotest.(check int) "same deliveries" orig.Ch.deliveries
    replayed.Ch.deliveries;
  Alcotest.(check int) "same bits" orig.Ch.total_bits replayed.Ch.total_bits;
  Alcotest.(check bool) "same coverage" true
    (orig.Ch.visited = replayed.Ch.visited);
  Alcotest.(check bool) "same fault stats" true
    (orig.Ch.fault_stats = replayed.Ch.fault_stats);
  Alcotest.(check bool) "same vfault stats" true
    (orig.Ch.vfault_stats = replayed.Ch.vfault_stats)

let test_replay_reproduces_faulty_run () =
  for seed = 1 to 6 do
    let g =
      F.random_digraph (Prng.create seed) ~n:14 ~extra_edges:8 ~back_edges:3
        ~t_edge_prob:0.25
    in
    check_replay_reproduces ~supervisor:None g;
    check_replay_reproduces ~supervisor:(Some Runtime.Supervisor.default) g
  done

(* {1 The search itself} *)

let small_cfg ?supervisor () =
  Ch.config ~budget:40 ~seed:11 ~recoveries:[ V.Amnesia ] ~p_edge:0.0
    ?supervisor ()

let flood_runner () = Anonet.Resilient.chaos_runner ~k:1 (module Anonet.Flood)

let test_negative_control_finds_small_starvation_witness () =
  let res = Anonet.Check_suite.chaos_negative () in
  Alcotest.(check bool) "found witnesses" true (res.Ch.witnesses <> []);
  Alcotest.(check int) "flood never falsely terminates" 0 res.Ch.unsound;
  Alcotest.(check bool) "starvation witnessed" true (res.Ch.starved > 0);
  let smallest =
    List.fold_left
      (fun m w -> min m (List.length w.Ch.w_faults))
      max_int res.Ch.witnesses
  in
  Alcotest.(check bool) "shrunk to <= 4 atoms" true (smallest <= 4);
  List.iter
    (fun w ->
      Alcotest.(check bool) "shrinking never grows a witness" true
        (List.length w.Ch.w_faults <= w.Ch.w_original_size);
      Alcotest.(check bool) "missing vertices recorded" true
        (w.Ch.w_missing <> []);
      Alcotest.(check bool) "schedule recorded" true (w.Ch.w_schedule <> []))
    res.Ch.witnesses

let test_witness_replays_and_confirms () =
  (* Re-derive the chaos_negative configuration so replay sees the same
     compiled faults, then confirm every witness byte-for-byte. *)
  let cfg =
    Ch.config ~budget:60 ~seed:11 ~recoveries:[ V.Amnesia ] ~p_edge:0.0 ()
  in
  let runner = flood_runner () in
  let graphs = Anonet.Resilient.chaos_graphs () in
  let res = Ch.run cfg ~runners:[ runner ] ~graphs in
  Alcotest.(check bool) "found witnesses" true (res.Ch.witnesses <> []);
  List.iter
    (fun w ->
      let gc =
        List.find
          (fun gc -> gc.Runtime.Campaign.g_name = w.Ch.w_graph)
          graphs
      in
      let s = Ch.replay cfg runner gc w in
      Alcotest.(check bool)
        ("witness replays on " ^ w.Ch.w_graph)
        true (Ch.confirms w s))
    res.Ch.witnesses

let test_search_is_deterministic () =
  let run () =
    Ch.run (small_cfg ()) ~runners:[ flood_runner () ]
      ~graphs:(Anonet.Resilient.chaos_graphs ())
  in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical JSON" (Ch.to_json a) (Ch.to_json b)

let test_witnesses_deduplicated () =
  let res =
    Ch.run (small_cfg ()) ~runners:[ flood_runner () ]
      ~graphs:(Anonet.Resilient.chaos_graphs ())
  in
  (* Shrunk sets are unique per (runner, graph, kind); duplicates counted. *)
  let keys =
    List.map
      (fun w ->
        w.Ch.w_runner ^ "|" ^ w.Ch.w_graph ^ "|"
        ^ Ch.describe_kind w.Ch.w_kind
        ^ "|"
        ^ Ch.canonical_key w.Ch.w_faults)
      res.Ch.witnesses
  in
  Alcotest.(check int) "witness keys unique" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check int) "hits = witnesses + duplicates" res.Ch.hits
    (List.length res.Ch.witnesses + res.Ch.duplicates);
  Alcotest.(check bool) "shrinking actually collapsed some hits" true
    (res.Ch.duplicates > 0)

let test_supervised_redundant_has_no_unsound_witness () =
  let res = Anonet.Check_suite.chaos_supervised ~budget:25 () in
  Alcotest.(check int) "zero soundness violations" 0 res.Ch.unsound;
  Alcotest.(check bool) "search actually ran" true (res.Ch.trials_run >= 75)

(* Every witness's shrunk set must violate on its own, with the recorded
   kind and missing set.  Seed 2 with churn draws sets whose atoms each
   lower alone but not together (k = 1, trial 16: two crashes whose
   parameters cannot both drop to 1), so lowering must re-check the whole
   current set at every step. *)
let test_witnesses_reproduce_their_verdict () =
  let cfg = Ch.config ~budget:40 ~seed:2 ~p_churn:0.3 () in
  let graphs = Anonet.Resilient.chaos_graphs () in
  List.iter
    (fun k ->
      let runner =
        Anonet.Resilient.chaos_runner ~k (module Anonet.General_broadcast)
      in
      let res = Ch.run cfg ~runners:[ runner ] ~graphs in
      List.iter
        (fun (w : Ch.witness) ->
          let gc = List.find (fun gc -> gc.Ch.g_name = w.w_graph) graphs in
          let graph = gc.build ~seed:cfg.seed in
          Alcotest.(check bool)
            (Printf.sprintf "k=%d %s trial %d violates as recorded" k w.w_graph
               w.w_trial)
            true
            (Ch.eval_trial cfg runner ~graph w.w_faults
            = Some (w.w_kind, w.w_missing)))
        res.witnesses)
    [ 1; 3 ]

(* {1 Parallel chaos} *)

(* Trials and shrinks both go through [map]; a pool, or a map that
   evaluates back to front, must give the sequential search's bytes.  The
   flood search's hits shrink onto shared witnesses, so the trial-order
   dedup is exercised; the general one (k = 1, seed 2, churn) lowers
   crash and churn parameters while shrinking. *)
let test_par_chaos_matches_sequential () =
  let backwards =
    {
      Ch.map =
        (fun f a ->
          let n = Array.length a in
          let out = Array.make n None in
          for i = n - 1 downto 0 do
            out.(i) <- Some (f a.(i))
          done;
          Array.map Option.get out);
    }
  in
  let graphs = Anonet.Resilient.chaos_graphs () in
  List.iter
    (fun (name, cfg, runner, min_duplicates) ->
      let runners = [ runner ] in
      let seq = Ch.run cfg ~runners ~graphs in
      Alcotest.(check bool) (name ^ ": hits") true (seq.Ch.hits > 0);
      Alcotest.(check bool)
        (name ^ ": duplicates") true
        (seq.Ch.duplicates >= min_duplicates);
      List.iter
        (fun (how, map) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s gives byte-identical JSON" name how)
            (Ch.to_json seq)
            (Ch.to_json (Ch.run ~map cfg ~runners ~graphs)))
        [ ("2 domains", Par.map ~domains:2 ()); ("back to front", backwards) ])
    [
      ("flood", small_cfg (), flood_runner (), 1);
      ( "general k=1",
        Ch.config ~budget:40 ~seed:2 ~p_churn:0.3 (),
        Anonet.Resilient.chaos_runner ~k:1 (module Anonet.General_broadcast),
        0 );
    ]

let test_config_rejects_out_of_range_rates () =
  Alcotest.check_raises "p_edge > 1"
    (Invalid_argument "Chaos.config: p_edge must be in [0,1]") (fun () ->
      ignore (Ch.config ~p_edge:3.0 ()));
  Alcotest.check_raises "p_edge < 0"
    (Invalid_argument "Chaos.config: p_edge must be in [0,1]") (fun () ->
      ignore (Ch.config ~p_edge:(-0.1) ()));
  Alcotest.check_raises "p_churn > 1"
    (Invalid_argument "Chaos.config: p_churn must be in [0,1]") (fun () ->
      ignore (Ch.config ~p_churn:1.5 ()))

let () =
  Alcotest.run "chaos"
    [
      ( "fault-sets",
        [
          Alcotest.test_case "canonical key order-insensitive" `Quick
            test_canonical_key_order_insensitive;
          Alcotest.test_case "required excuses stopped + cut" `Quick
            test_required_excuses_stopped_and_cut;
          Alcotest.test_case "compile round trip" `Quick test_compile_round_trip;
          Alcotest.test_case "config rejects out-of-range rates" `Quick
            test_config_rejects_out_of_range_rates;
        ] );
      ( "replay",
        [
          Alcotest.test_case "faulty run replays byte-for-byte" `Quick
            test_replay_reproduces_faulty_run;
        ] );
      ( "search",
        [
          Alcotest.test_case "negative control: small starvation witness"
            `Quick test_negative_control_finds_small_starvation_witness;
          Alcotest.test_case "witnesses replay and confirm" `Quick
            test_witness_replays_and_confirms;
          Alcotest.test_case "deterministic" `Quick test_search_is_deterministic;
          Alcotest.test_case "witnesses deduplicated" `Quick
            test_witnesses_deduplicated;
          Alcotest.test_case "supervised R3 never unsound" `Quick
            test_supervised_redundant_has_no_unsound_witness;
          Alcotest.test_case "witnesses reproduce their verdict" `Quick
            test_witnesses_reproduce_their_verdict;
        ] );
      ( "par",
        [
          Alcotest.test_case "parallel search matches sequential" `Quick
            test_par_chaos_matches_sequential;
        ] );
    ]
