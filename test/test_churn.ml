(* The edge-churn adversary: instance fate semantics, T-interval
   constrain/contract, engine integration (zero overhead, obs
   reconciliation, supervisor healing), schedule independence of the churn
   ledger, replay determinism under combined churn + vertex faults, the
   dynamic protocols (amnesiac flooding, counting) and the chaos churn
   controls. *)

open Helpers
module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine
module C = Runtime.Faults
module V = Runtime.Vfaults
module S = Runtime.Scheduler
module Ch = Runtime.Chaos

let fate =
  let pp fmt (f : C.offer_fate) =
    Format.pp_print_string fmt
      (match f with
      | C.Cross -> "cross"
      | C.Removed n -> Printf.sprintf "removed(%d)" n
      | C.Down -> "down"
      | C.Back `Add -> "back-add"
      | C.Back `Heal -> "back-heal")
  in
  Alcotest.testable pp ( = )

(* {1 Instance fate semantics} *)

let test_script_remove_and_add_clocks () =
  let spec =
    C.script
      [ C.remove_event ~edge:0 ~at:2 ~down_for:2 (); C.add_event ~edge:1 ~at:3 ]
  in
  let i = C.Instance.start spec in
  let offer e = C.Instance.on_offer i ~edge:e in
  (* Edge 0: up, removed on the 2nd offer, two swallowed, back up. *)
  Alcotest.check fate "1st crosses" C.Cross (offer 0);
  Alcotest.check fate "2nd removed" (C.Removed 2) (offer 0);
  Alcotest.(check bool) "down while draining" false (C.Instance.is_up i ~edge:0);
  Alcotest.check fate "3rd swallowed" C.Down (offer 0);
  Alcotest.check fate "4th swallowed, heals" (C.Back `Heal) (offer 0);
  Alcotest.(check bool) "back up" true (C.Instance.is_up i ~edge:0);
  Alcotest.check fate "5th crosses again" C.Cross (offer 0);
  (* Edge 1: absent from the start, appears at its 3rd offer. *)
  Alcotest.check fate "absent: 1st swallowed" C.Down (offer 1);
  Alcotest.check fate "absent: 2nd swallowed, appears" (C.Back `Add) (offer 1);
  Alcotest.check fate "3rd delivers" C.Cross (offer 1);
  (* An unscripted edge is untouched. *)
  Alcotest.check fate "edge 2 healthy" C.Cross (offer 2);
  Alcotest.(check int) "one add" 1 (C.Instance.adds i);
  Alcotest.(check int) "one remove" 1 (C.Instance.removes i);
  Alcotest.(check int) "one heal" 1 (C.Instance.heals i);
  Alcotest.(check int) "five copies lost" 5 (C.Instance.lost i);
  Alcotest.(check int) "no contract, no violations" 0
    (C.Instance.window_violations i)

let test_add_at_one_degenerates_to_present () =
  let i = C.Instance.start (C.script [ C.add_event ~edge:4 ~at:1 ]) in
  Alcotest.check fate "present from the first offer" C.Cross
    (C.Instance.on_offer i ~edge:4);
  Alcotest.(check int) "still counted as an add" 1 (C.Instance.adds i);
  Alcotest.(check int) "nothing lost" 0 (C.Instance.lost i)

let test_stale_removal_head_fires_on_next_offer () =
  (* Two removals with the same [at]: the second's clock position is
     consumed by the first's outage, so it must fire on the next up
     offer rather than jam the queue. *)
  let spec =
    C.script
      [
        C.remove_event ~edge:0 ~at:1 ~down_for:0 ();
        C.remove_event ~edge:0 ~at:1 ~down_for:0 ();
      ]
  in
  let i = C.Instance.start spec in
  Alcotest.check fate "first removal" (C.Removed 0) (C.Instance.on_offer i ~edge:0);
  Alcotest.check fate "stale second fires next" (C.Removed 0)
    (C.Instance.on_offer i ~edge:0);
  Alcotest.check fate "then quiet" C.Cross (C.Instance.on_offer i ~edge:0);
  Alcotest.(check int) "two removes" 2 (C.Instance.removes i);
  Alcotest.(check int) "both healed immediately" 2 (C.Instance.heals i)

let test_uniform_plan_is_seed_deterministic () =
  let fates seed =
    let i = C.Instance.start (C.uniform (C.plan ~remove:0.4 ~max_downtime:2 ()) ~seed) in
    List.init 40 (fun k -> C.Instance.on_offer i ~edge:(k mod 5))
  in
  Alcotest.(check bool) "same seed, same fates" true (fates 7 = fates 7);
  Alcotest.(check bool) "different seed, different fates" true
    (fates 7 <> fates 8)

(* {1 T-interval connectivity} *)

(* s has two parallel edges to the middle vertex; only the first is in the
   BFS arborescence (and it doubles as s's shortest step toward t), so the
   second parallel edge is the one unprotected edge. *)
let parallel_pair () = G.make ~n:3 ~s:0 ~t:2 [ (0, 1); (0, 1); (1, 2) ]

let test_skeleton_protects_spanning_subgraph () =
  let g = parallel_pair () in
  let prot = C.skeleton g in
  Alcotest.(check bool) "tree edge protected" true
    prot.(G.edge_index g 0 0);
  Alcotest.(check bool) "parallel spare unprotected" false
    prot.(G.edge_index g 0 1);
  Alcotest.(check bool) "edge toward t protected" true
    prot.(G.edge_index g 1 0)

let test_constrain_caps_outages_and_drops_protected () =
  let g = parallel_pair () in
  let spare = G.edge_index g 0 1 in
  let tree = G.edge_index g 0 0 in
  (* T = 1 permits no churn at all. *)
  let spec = C.script [ C.remove_event ~edge:spare ~at:1 ~down_for:5 () ] in
  Alcotest.(check bool) "T=1 collapses to none" true
    (C.is_none (C.constrain ~t_interval:1 g spec));
  (* A protected-edge removal is dropped entirely. *)
  Alcotest.(check bool) "protected removal dropped" true
    (C.is_none
       (C.constrain ~t_interval:4 g
          (C.script [ C.remove_event ~edge:tree ~at:1 ~down_for:1 () ])));
  (* An unprotected outage is clamped below the window: down_for 5 with
     T = 3 becomes down_for 1 (outage spans 2 < 3 offers), and the clamped
     instance records zero violations by construction. *)
  let clamped = C.constrain ~t_interval:3 g spec in
  let i = C.Instance.start clamped in
  Alcotest.check fate "removal still fires" (C.Removed 1)
    (C.Instance.on_offer i ~edge:spare);
  Alcotest.check fate "heals one offer later" (C.Back `Heal)
    (C.Instance.on_offer i ~edge:spare);
  Alcotest.check fate "up again" C.Cross (C.Instance.on_offer i ~edge:spare);
  Alcotest.(check int) "constrained => zero violations" 0
    (C.Instance.window_violations i)

let test_contract_counts_but_never_changes_fates () =
  let g = parallel_pair () in
  let spare = G.edge_index g 0 1 in
  let tree = G.edge_index g 0 0 in
  let spec =
    C.script
      [
        C.remove_event ~edge:spare ~at:1 ~down_for:5 ();
        C.remove_event ~edge:tree ~at:2 ~down_for:0 ();
      ]
  in
  let run spec =
    let i = C.Instance.start spec in
    let fates =
      List.concat_map
        (fun e -> List.init 8 (fun _ -> C.Instance.on_offer i ~edge:e))
        [ spare; tree ]
    in
    (fates, C.Instance.window_violations i)
  in
  let raw_fates, raw_violations = run spec in
  let con_fates, con_violations = run (C.with_contract ~t_interval:3 g spec) in
  Alcotest.(check bool) "fates byte-identical under contract" true
    (raw_fates = con_fates);
  Alcotest.(check int) "raw spec counts nothing" 0 raw_violations;
  (* Two breaches: the long outage (6 >= 3 offers) and the protected-edge
     removal, each charged once at outage start. *)
  Alcotest.(check int) "contract counts both breaches" 2 con_violations

(* {1 Engine integration} *)

(* On a path every vertex has exactly one in-edge, so a bounded outage on
   the only copy's edge starves the bare run; the supervisor's
   retransmission rounds burn down the outage and push the heal through. *)
let test_supervisor_heals_scripted_outage_on_path () =
  let g = F.path 5 in
  let churn =
    C.script [ C.remove_event ~edge:(G.edge_index g 1 0) ~at:1 ~down_for:1 () ]
  in
  let bare = Anonet.Tree_engine.run ~faults:churn g in
  Alcotest.(check bool) "bare run does not terminate" true
    (bare.E.outcome <> E.Terminated);
  Alcotest.(check int) "the only copy was lost" 1
    bare.E.fault_stats.E.messages_lost_in_flight;
  let r =
    Anonet.Tree_engine.run ~faults:churn
      ~supervisor:Runtime.Supervisor.default g
  in
  if r.E.outcome <> E.Terminated then
    Alcotest.fail ("supervised run should terminate: " ^ report_summary r);
  Alcotest.(check bool) "all visited" true (Array.for_all Fun.id r.E.visited);
  Alcotest.(check int) "one removal" 1 r.E.fault_stats.E.removes;
  Alcotest.(check int) "healed under retransmission" 1 r.E.fault_stats.E.heals;
  Alcotest.(check bool) "retransmissions happened" true
    (r.E.vfault_stats.E.replayed > 0)

let test_churn_free_runs_have_zero_overhead () =
  for seed = 1 to 8 do
    let g =
      F.random_digraph (Prng.create seed) ~n:14 ~extra_edges:8 ~back_edges:3
        ~t_edge_prob:0.25
    in
    let bare = Anonet.General_engine.run g in
    let churned = Anonet.General_engine.run ~faults:C.none g in
    Alcotest.check outcome "same outcome" bare.E.outcome churned.E.outcome;
    Alcotest.(check int) "identical deliveries" bare.E.deliveries
      churned.E.deliveries;
    Alcotest.(check int) "identical bits" bare.E.total_bits
      churned.E.total_bits;
    Alcotest.(check bool) "same coverage" true
      (bare.E.visited = churned.E.visited);
    Alcotest.(check bool) "all-zero churn stats" true
      (churned.E.fault_stats = E.no_faults_stats);
    (* The all-stable plan collapses to [none] before the engine sees it. *)
    Alcotest.(check bool) "stable plan is none" true
      (C.is_none (C.uniform C.reliable ~seed))
  done

let test_obs_counters_reconcile_exactly () =
  for seed = 1 to 6 do
    let g =
      F.random_digraph (Prng.create seed) ~n:16 ~extra_edges:10 ~back_edges:4
        ~t_edge_prob:0.25
    in
    let churn =
      C.with_contract ~t_interval:3 g
        (C.uniform (C.plan ~remove:0.3 ~max_downtime:3 ()) ~seed)
    in
    let obs = Obs.create () in
    let r =
      Anonet.General_engine.run ~faults:churn
        ~supervisor:Runtime.Supervisor.default
        ~obs g
    in
    let c name = Obs.Registry.(value (counter obs.Obs.registry name)) in
    let cs = r.E.fault_stats in
    Alcotest.(check int) "adds" cs.E.adds (c "engine.churn.adds");
    Alcotest.(check int) "removes" cs.E.removes (c "engine.churn.removes");
    Alcotest.(check int) "heals" cs.E.heals (c "engine.churn.heals");
    Alcotest.(check int) "lost in flight" cs.E.messages_lost_in_flight
      (c "engine.churn.lost_in_flight");
    Alcotest.(check int) "window violations" cs.E.window_violations
      (c "engine.churn.window_violations");
    Alcotest.(check bool) "churn actually fired" true (cs.E.removes > 0);
    Alcotest.(check bool) "every outage lost a copy" true
      (cs.E.messages_lost_in_flight >= cs.E.removes);
    Alcotest.(check bool) "heals never exceed removes" true
      (cs.E.heals <= cs.E.removes)
  done

(* {1 Schedule independence} *)

(* Churn clocks are edge-local and flood offers each edge at most one copy,
   so every edge's fate — and therefore the whole churn ledger — is the
   same under any delivery order. *)
let test_churn_ledger_schedule_independent () =
  let fired = ref 0 in
  for seed = 1 to 8 do
    let g =
      F.random_digraph (Prng.create seed) ~n:20 ~extra_edges:12 ~back_edges:4
        ~t_edge_prob:0.25
    in
    let churn =
      C.with_contract ~t_interval:3 g
        (C.uniform (C.plan ~remove:0.25 ~max_downtime:2 ()) ~seed)
    in
    let s = Anonet.Flood_engine.run ~faults:churn g in
    fired := !fired + s.E.fault_stats.E.removes;
    List.iter
      (fun (name, scheduler) ->
        let p = Anonet.Flood_engine.run ~scheduler ~faults:churn g in
        let tag what = Printf.sprintf "seed %d, %s: %s" seed name what in
        Alcotest.(check int) (tag "same adds") s.E.fault_stats.E.adds
          p.E.fault_stats.E.adds;
        Alcotest.(check int) (tag "same removes") s.E.fault_stats.E.removes
          p.E.fault_stats.E.removes;
        Alcotest.(check int) (tag "same heals") s.E.fault_stats.E.heals
          p.E.fault_stats.E.heals;
        Alcotest.(check int) (tag "same lost")
          s.E.fault_stats.E.messages_lost_in_flight
          p.E.fault_stats.E.messages_lost_in_flight;
        Alcotest.(check int) (tag "same violations")
          s.E.fault_stats.E.window_violations
          p.E.fault_stats.E.window_violations;
        Alcotest.(check bool) (tag "same coverage") true
          (s.E.visited = p.E.visited);
        Alcotest.(check int) (tag "same deliveries") s.E.deliveries
          p.E.deliveries)
      (schedulers ~seed)
  done;
  Alcotest.(check bool) "churn actually fired" true (!fired > 0)

(* {1 Replay determinism under churn + vertex faults} *)

let check_replay_reproduces ~supervisor g =
  let runner =
    Anonet.Resilient.chaos_runner ~k:3 (module Anonet.General_broadcast)
  in
  let churn = C.uniform (C.plan ~remove:0.2 ~max_downtime:2 ()) ~seed:7 in
  let vfaults =
    V.uniform (V.plan ~crash:0.08 ~max_downtime:2 ~stutter:0.05 ()) ~seed:6
  in
  let orig =
    runner.Ch.run ~scheduler:S.Fifo ~record:true ~faults:churn ~vfaults
      ~supervisor ~step_limit:200_000 g
  in
  Alcotest.(check bool) "schedule recorded" true (orig.Ch.schedule <> []);
  let replayed =
    runner.Ch.run
      ~scheduler:(S.Replay orig.Ch.schedule)
      ~record:false ~faults:churn ~vfaults ~supervisor ~step_limit:200_000 g
  in
  Alcotest.check outcome "same outcome" orig.Ch.outcome replayed.Ch.outcome;
  Alcotest.(check int) "same deliveries" orig.Ch.deliveries
    replayed.Ch.deliveries;
  Alcotest.(check int) "same bits" orig.Ch.total_bits replayed.Ch.total_bits;
  Alcotest.(check bool) "same coverage" true
    (orig.Ch.visited = replayed.Ch.visited);
  Alcotest.(check bool) "same churn stats" true
    (orig.Ch.fault_stats = replayed.Ch.fault_stats);
  Alcotest.(check bool) "same vfault stats" true
    (orig.Ch.vfault_stats = replayed.Ch.vfault_stats)

let test_replay_reproduces_churny_run () =
  for seed = 1 to 6 do
    let g =
      F.random_digraph (Prng.create seed) ~n:14 ~extra_edges:8 ~back_edges:3
        ~t_edge_prob:0.25
    in
    check_replay_reproduces ~supervisor:None g;
    check_replay_reproduces ~supervisor:(Some Runtime.Supervisor.default) g
  done

(* {1 Dynamic scenarios} *)

let test_random_dynamic_footprint () =
  for seed = 1 to 6 do
    let g =
      F.random_dynamic (Prng.create seed) ~n:14 ~extra_edges:6 ~back_edges:2
        ~t_edge_prob:0.3
    in
    Alcotest.(check bool) "valid graph" true
      (Result.is_ok (G.validate ~allow_multi_root:true g));
    let back =
      List.concat
        (List.mapi (fun e (u, v) -> if u > v then [ e ] else []) (G.edges g))
    in
    Alcotest.(check int) "the back edges are the downward ones" 2
      (List.length back);
    (* Churned in mid-run, the back edges drive the engine without
       incident, and the engine's ledger can only report what the script
       contains. *)
    let churn = C.script (List.map (fun e -> C.add_event ~edge:e ~at:2) back) in
    let r =
      Anonet.Flood_engine.run ~faults:churn
        ~supervisor:Runtime.Supervisor.default g
    in
    Alcotest.(check bool) "adds bounded by script" true
      (r.E.fault_stats.E.adds <= 2)
  done

(* Amnesiac flooding is stateless: it quiesces on DAGs but a single cycle
   edge — present from the start or churned in — makes tokens circulate
   forever (Austin et al.). *)
let test_amnesiac_quiesces_on_dag_livelocks_on_cycle () =
  let dag = Anonet.Amnesiac_engine.run (F.grid_dag ~rows:2 ~cols:3) in
  Alcotest.(check bool) "quiesces on a DAG" true
    (dag.E.outcome <> E.Step_limit);
  Alcotest.(check bool) "covers the DAG" true
    (Array.for_all Fun.id dag.E.visited);
  let cyc =
    Anonet.Amnesiac_engine.run ~step_limit:5_000 (F.cycle_with_exit ~k:3)
  in
  Alcotest.check outcome "livelocks on a cycle" E.Step_limit cyc.E.outcome

let test_amnesiac_livelock_needs_the_churned_in_edge () =
  (* Path 0->1->2->3 plus a back edge 2->1 that starts absent.  If it is
     churned in on its first offer the cycle closes and tokens circulate
     forever; if its add point is never reached the single pass of traffic
     stays finite and the run quiesces. *)
  let g = G.make ~n:4 ~s:0 ~t:3 [ (0, 1); (1, 2); (2, 3); (2, 1) ] in
  let back = G.edge_index g 2 1 in
  let live =
    Anonet.Amnesiac_engine.run ~step_limit:5_000
      ~faults:(C.script [ C.add_event ~edge:back ~at:1 ]) g
  in
  Alcotest.check outcome "churned-in edge closes the cycle" E.Step_limit
    live.E.outcome;
  let quiet =
    Anonet.Amnesiac_engine.run ~step_limit:5_000
      ~faults:(C.script [ C.add_event ~edge:back ~at:50 ]) g
  in
  Alcotest.(check bool) "edge that never appears stays harmless" true
    (quiet.E.outcome <> E.Step_limit)

let test_counting_census_is_exact () =
  let graphs =
    [
      ("path:4", F.path 4);
      ("full-tree:2x2", F.full_tree ~height:2 ~degree:2);
      ("diamond", F.diamond ());
      ("grid:3x3", F.grid_dag ~rows:3 ~cols:3);
    ]
    @ List.init 4 (fun k ->
          let seed = k + 1 in
          ( Printf.sprintf "random-dag:%d" seed,
            F.random_dag (Prng.create seed) ~n:12 ~extra_edges:6
              ~t_edge_prob:0.3 ))
  in
  List.iter
    (fun (name, g) ->
      let r = Anonet.Counting_engine.run g in
      Alcotest.check outcome (name ^ " terminates") E.Terminated r.E.outcome;
      Alcotest.(check int)
        (name ^ " counts every vertex")
        (G.n_vertices g)
        (Anonet.Counting.census r.E.states.(G.terminal g)))
    graphs

let test_counting_survives_supervised_outage () =
  let g = F.path 5 in
  let churn =
    C.script [ C.remove_event ~edge:(G.edge_index g 2 0) ~at:1 ~down_for:2 () ]
  in
  let r =
    Anonet.Counting_engine.run ~faults:churn
      ~supervisor:Runtime.Supervisor.default g
  in
  Alcotest.check outcome "terminates through the outage" E.Terminated
    r.E.outcome;
  Alcotest.(check int) "census still exact" (G.n_vertices g)
    (Anonet.Counting.census r.E.states.(G.terminal g));
  Alcotest.(check int) "outage healed" 1 r.E.fault_stats.E.heals

(* {1 Chaos controls} *)

let test_chaos_churn_control_never_unsound () =
  let res = Anonet.Check_suite.chaos_churn ~budget:15 () in
  Alcotest.(check int) "zero soundness violations" 0 res.Ch.unsound;
  Alcotest.(check bool) "search actually ran" true (res.Ch.trials_run >= 45)

let test_chaos_amnesiac_finds_replayable_livelock () =
  let res = Anonet.Check_suite.chaos_amnesiac () in
  Alcotest.(check bool) "found witnesses" true (res.Ch.witnesses <> []);
  Alcotest.(check int) "never falsely terminates" 0 res.Ch.unsound;
  Alcotest.(check bool) "livelock witnessed" true (res.Ch.livelocked > 0);
  let cfg =
    Ch.config ~budget:12 ~seed:11 ~p_churn:1.0 ~max_faults:1
      ~step_limit:10_000 ()
  in
  let runner =
    Anonet.Resilient.chaos_runner ~k:1 (module Anonet.Amnesiac_flood)
  in
  List.iter
    (fun w ->
      Alcotest.(check bool) "livelock leaves nobody missing" true
        (w.Ch.w_kind <> Ch.Livelock || w.Ch.w_missing = []);
      let gc =
        { Runtime.Campaign.g_name = w.Ch.w_graph;
          build =
            (fun ~seed ->
              F.random_dynamic (Prng.create seed) ~n:12 ~extra_edges:6
                ~back_edges:2 ~t_edge_prob:0.3);
        }
      in
      let s = Ch.replay cfg runner gc w in
      Alcotest.(check bool)
        ("witness replays on " ^ w.Ch.w_graph)
        true (Ch.confirms w s))
    res.Ch.witnesses

let () =
  Alcotest.run "churn"
    [
      ( "instance",
        [
          Alcotest.test_case "scripted remove + add clocks" `Quick
            test_script_remove_and_add_clocks;
          Alcotest.test_case "add at 1 degenerates to present" `Quick
            test_add_at_one_degenerates_to_present;
          Alcotest.test_case "stale removal head fires next" `Quick
            test_stale_removal_head_fires_on_next_offer;
          Alcotest.test_case "uniform plan seed-deterministic" `Quick
            test_uniform_plan_is_seed_deterministic;
        ] );
      ( "t-interval",
        [
          Alcotest.test_case "skeleton protects spanning subgraph" `Quick
            test_skeleton_protects_spanning_subgraph;
          Alcotest.test_case "constrain caps outages, drops protected" `Quick
            test_constrain_caps_outages_and_drops_protected;
          Alcotest.test_case "contract counts, never changes fates" `Quick
            test_contract_counts_but_never_changes_fates;
        ] );
      ( "engine",
        [
          Alcotest.test_case "supervisor heals scripted outage" `Quick
            test_supervisor_heals_scripted_outage_on_path;
          Alcotest.test_case "churn-free runs have zero overhead" `Quick
            test_churn_free_runs_have_zero_overhead;
          Alcotest.test_case "obs counters reconcile exactly" `Quick
            test_obs_counters_reconcile_exactly;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "churn ledger schedule-independent" `Quick
            test_churn_ledger_schedule_independent;
        ] );
      ( "replay",
        [
          Alcotest.test_case "churny run replays byte-for-byte" `Quick
            test_replay_reproduces_churny_run;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "random_dynamic footprint" `Quick
            test_random_dynamic_footprint;
          Alcotest.test_case "amnesiac: DAG quiesces, cycle livelocks" `Quick
            test_amnesiac_quiesces_on_dag_livelocks_on_cycle;
          Alcotest.test_case "amnesiac: livelock needs the churned-in edge"
            `Quick test_amnesiac_livelock_needs_the_churned_in_edge;
          Alcotest.test_case "counting census exact" `Quick
            test_counting_census_is_exact;
          Alcotest.test_case "counting survives supervised outage" `Quick
            test_counting_survives_supervised_outage;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "churn control never unsound" `Quick
            test_chaos_churn_control_never_unsound;
          Alcotest.test_case "amnesiac control finds replayable livelock"
            `Quick test_chaos_amnesiac_finds_replayable_livelock;
        ] );
    ]
