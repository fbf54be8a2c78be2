(* Vertex-level fault plans (Vfaults), the self-healing supervisor, the
   Redundant checksum-reject accounting and the campaign's per-cell shrink. *)

open Helpers
module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine
module Fl = Runtime.Faults
module V = Runtime.Vfaults
module C = Runtime.Campaign

let fate =
  let pp fmt (f : V.fate) =
    Format.pp_print_string fmt
      (match f with
      | V.Deliver -> "deliver"
      | V.Stutter -> "stutter"
      | V.Down_drop -> "down-drop"
      | V.Crash (r, d) ->
          Printf.sprintf "crash(%s,%d)" (V.describe_recovery r) d)
  in
  Alcotest.testable pp ( = )

(* {1 Instance semantics} *)

let test_script_clock_and_restart () =
  let vf = V.script [ V.event ~vertex:1 ~at:2 ~downtime:2 () ] in
  let i = V.Instance.start vf in
  (* Vertex 1: deliver, crash on the 2nd, swallow 2 while down, recover. *)
  let offer () = V.Instance.on_deliver i ~vertex:1 in
  Alcotest.check fate "1st delivers" V.Deliver (offer ());
  Alcotest.check fate "2nd crashes" (V.Crash (V.Amnesia, 2)) (offer ());
  Alcotest.check fate "3rd swallowed" V.Down_drop (offer ());
  Alcotest.(check bool) "down while draining" false (V.Instance.is_up i ~vertex:1);
  Alcotest.check fate "4th swallowed, then restart" V.Down_drop (offer ());
  Alcotest.check fate "5th delivers again" V.Deliver (offer ());
  Alcotest.(check bool) "back up" true (V.Instance.is_up i ~vertex:1);
  (* An unscripted vertex is untouched. *)
  Alcotest.check fate "vertex 2 healthy" V.Deliver
    (V.Instance.on_deliver i ~vertex:2);
  Alcotest.(check int) "one crash" 1 (V.Instance.crashes i);
  Alcotest.(check int) "one restart" 1 (V.Instance.restarts i);
  Alcotest.(check int) "two down-drops" 2 (V.Instance.down_drops i);
  Alcotest.(check (list int)) "nobody stopped" [] (V.Instance.stopped i)

let test_crash_stop_is_permanent () =
  let vf = V.script [ V.event ~vertex:3 ~at:1 ~recovery:V.Stop () ] in
  let i = V.Instance.start vf in
  Alcotest.check fate "crashes immediately" (V.Crash (V.Stop, 1))
    (V.Instance.on_deliver i ~vertex:3);
  for _ = 1 to 10 do
    Alcotest.check fate "dead forever" V.Down_drop
      (V.Instance.on_deliver i ~vertex:3)
  done;
  Alcotest.(check bool) "never up again" false (V.Instance.is_up i ~vertex:3);
  Alcotest.(check (list int)) "listed as stopped" [ 3 ] (V.Instance.stopped i);
  Alcotest.(check int) "no restart" 0 (V.Instance.restarts i)

let test_stale_crash_head_fires_on_next_offer () =
  (* Two crashes with the same [at]: the second's clock position passes
     while the vertex is down after the first, so it must fire on the next
     up offer rather than jam the queue and hide the crash behind it. *)
  let vf =
    V.script
      [
        V.event ~vertex:1 ~at:2 (); V.event ~vertex:1 ~at:2 ();
        V.event ~vertex:1 ~at:4 ();
      ]
  in
  let i = V.Instance.start vf in
  let offer () = V.Instance.on_deliver i ~vertex:1 in
  Alcotest.check fate "1st delivers" V.Deliver (offer ());
  Alcotest.check fate "2nd crashes" (V.Crash (V.Amnesia, 1)) (offer ());
  Alcotest.check fate "3rd swallowed, restart" V.Down_drop (offer ());
  Alcotest.check fate "stale second fires next" (V.Crash (V.Amnesia, 1))
    (offer ());
  Alcotest.check fate "5th swallowed, restart" V.Down_drop (offer ());
  Alcotest.check fate "third at its own position" (V.Crash (V.Amnesia, 1))
    (offer ());
  for _ = 7 to 20 do
    ignore (offer ())
  done;
  Alcotest.(check int) "all three crashes fired" 3 (V.Instance.crashes i);
  Alcotest.(check int) "all three restarted" 3 (V.Instance.restarts i)

let test_uniform_stutter_swallows () =
  let vf = V.uniform (V.plan ~stutter:1.0 ()) ~seed:4 in
  let i = V.Instance.start vf in
  for _ = 1 to 5 do
    Alcotest.check fate "always stutters" V.Stutter
      (V.Instance.on_deliver i ~vertex:2)
  done;
  Alcotest.(check int) "counted" 5 (V.Instance.stuttered i);
  Alcotest.(check int) "no crash" 0 (V.Instance.crashes i)

(* {1 Engine integration} *)

(* Three parallel edges into vertex 1: the crash eats the first copy, the
   downtime the second, and the third is delivered after the restart — so
   flooding still covers the graph and the counters are schedule-free. *)
let triple_edge () = G.make ~n:3 ~s:0 ~t:2 [ (0, 1); (0, 1); (0, 1); (1, 2) ]

let test_amnesia_heals_given_redundant_copies () =
  let vfaults = V.script [ V.event ~vertex:1 ~at:1 ~downtime:1 () ] in
  let r = Anonet.Flood_engine.run ~vfaults (triple_edge ()) in
  Alcotest.(check bool) "all visited" true (Array.for_all Fun.id r.E.visited);
  Alcotest.(check int) "one crash" 1 r.E.vfault_stats.E.crashes;
  Alcotest.(check int) "one restart" 1 r.E.vfault_stats.E.restarts;
  Alcotest.(check int) "one down-drop" 1 r.E.vfault_stats.E.down_drops;
  Alcotest.(check bool) "state bits were lost" true
    (r.E.vfault_stats.E.lost_state_bits >= 0)

let test_amnesia_starves_bare_flood_on_a_path () =
  let g = F.path 4 in
  let vfaults = V.script [ V.event ~vertex:1 ~at:1 ~downtime:1 () ] in
  let r = Anonet.Flood_engine.run ~vfaults g in
  Alcotest.(check bool) "vertex 1 unreached" false r.E.visited.(1);
  Alcotest.(check bool) "downstream starves" false r.E.visited.(2);
  Alcotest.(check int) "crashed once" 1 r.E.vfault_stats.E.crashes;
  Alcotest.(check int) "no later delivery, so no restart" 0
    r.E.vfault_stats.E.restarts

let test_crash_stop_engine_counters () =
  let vfaults = V.script [ V.event ~vertex:1 ~at:1 ~recovery:V.Stop () ] in
  let r = Anonet.Flood_engine.run ~vfaults (triple_edge ()) in
  Alcotest.(check bool) "stopped vertex unvisited" false r.E.visited.(1);
  Alcotest.(check (list int)) "reported stopped" [ 1 ]
    r.E.vfault_stats.E.stopped_vertices;
  Alcotest.(check int) "two copies swallowed dead" 2
    r.E.vfault_stats.E.down_drops

(* {1 Supervisor} *)

(* On a path every vertex has exactly one in-edge, so a crash swallows the
   only copy and the bare run starves; the supervisor's retransmission
   rounds must push the message through the downtime and terminate. *)
let test_supervisor_heals_crash_on_path () =
  let g = F.path 5 in
  let vfaults =
    V.script [ V.event ~vertex:1 ~at:1 ~downtime:1 ~recovery:V.Restore () ]
  in
  let bare = Anonet.Tree_engine.run ~vfaults g in
  Alcotest.(check bool) "bare run does not terminate" true
    (bare.E.outcome <> E.Terminated);
  let r =
    Anonet.Tree_engine.run ~vfaults ~supervisor:Runtime.Supervisor.default g
  in
  if r.E.outcome <> E.Terminated then
    Alcotest.fail ("supervised run should terminate: " ^ report_summary r);
  Alcotest.(check bool) "all visited" true (Array.for_all Fun.id r.E.visited);
  Alcotest.(check bool) "retransmissions happened" true
    (r.E.vfault_stats.E.replayed > 0);
  Alcotest.(check int) "one crash" 1 r.E.vfault_stats.E.crashes;
  Alcotest.(check int) "one restart" 1 r.E.vfault_stats.E.restarts

let test_supervisor_fault_free_overhead_is_zero () =
  for seed = 1 to 10 do
    let g =
      F.random_digraph (Prng.create seed) ~n:14 ~extra_edges:8 ~back_edges:3
        ~t_edge_prob:0.25
    in
    let bare = Anonet.General_engine.run g in
    let sup =
      Anonet.General_engine.run ~supervisor:Runtime.Supervisor.default g
    in
    Alcotest.check outcome "same outcome" bare.E.outcome sup.E.outcome;
    Alcotest.(check int) "identical deliveries" bare.E.deliveries
      sup.E.deliveries;
    Alcotest.(check int) "identical bits" bare.E.total_bits sup.E.total_bits;
    Alcotest.(check int) "no retransmission fired" 0
      sup.E.vfault_stats.E.replayed;
    Alcotest.(check int) "checkpointed every delivery" sup.E.deliveries
      sup.E.vfault_stats.E.checkpoints
  done

let test_escalation_stops_when_nothing_lost () =
  let g = F.path 4 in
  let e = Anonet.Resilient.run_escalating (module Anonet.Tree_broadcast) g in
  Alcotest.(check bool) "fault-free run terminates at k0" true e.terminated;
  Alcotest.(check int) "never escalated" 1 e.final_k;
  Alcotest.(check int) "single attempt" 1 (List.length e.attempts)

let test_escalation_raises_k_under_loss () =
  (* Heavy drops starve the bare protocol but leave observable loss, so the
     policy must double k at least once; with the supervisor retransmitting
     on top, higher k eventually terminates on most seeds. *)
  let g = F.path 4 in
  let faults = Fl.create ~drop:0.55 ~seed:3 () in
  let e =
    Anonet.Resilient.run_escalating ~faults ~k_max:16
      (module Anonet.Tree_broadcast)
      g
  in
  Alcotest.(check bool) "escalated past k0" true (e.final_k > 1);
  Alcotest.(check bool) "attempt list matches final k" true
    (List.length e.attempts > 1)

(* {1 Vfaults + edge faults reconciled with Obs} *)

let test_obs_counters_reconcile_exactly () =
  let g =
    F.random_digraph (Prng.create 7) ~n:16 ~extra_edges:10 ~back_edges:4
      ~t_edge_prob:0.25
  in
  let obs = Obs.create () in
  let faults = Fl.create ~drop:0.1 ~corrupt:0.1 ~seed:5 () in
  let vfaults =
    V.uniform (V.plan ~crash:0.1 ~max_downtime:3 ~stutter:0.05 ()) ~seed:9
  in
  let r =
    Anonet.General_engine.run ~faults ~vfaults
      ~supervisor:Runtime.Supervisor.default ~obs g
  in
  let c name = Obs.Registry.(value (counter obs.Obs.registry name)) in
  Alcotest.(check int) "crashes" r.E.vfault_stats.E.crashes
    (c "engine.crashes");
  Alcotest.(check int) "restarts" r.E.vfault_stats.E.restarts
    (c "engine.restarts");
  Alcotest.(check int) "lost state bits" r.E.vfault_stats.E.lost_state_bits
    (c "engine.lost_state_bits");
  Alcotest.(check int) "down drops" r.E.vfault_stats.E.down_drops
    (c "engine.down_drops");
  Alcotest.(check int) "stuttered" r.E.vfault_stats.E.stuttered
    (c "engine.stuttered");
  Alcotest.(check int) "checkpoints" r.E.vfault_stats.E.checkpoints
    (c "engine.checkpoints");
  Alcotest.(check int) "replayed" r.E.vfault_stats.E.replayed
    (c "engine.replayed");
  Alcotest.(check int) "checksum rejects" r.E.fault_stats.E.checksum_rejects
    (c "engine.checksum_rejects");
  Alcotest.(check bool) "something actually happened" true
    (r.E.vfault_stats.E.crashes > 0 || r.E.vfault_stats.E.stuttered > 0)

(* Runs that share one [Obs] add up: each vertex-fault counter must end at
   the sum of the reports, not at the last run's total. *)
let test_obs_counters_add_up_across_runs () =
  let g =
    F.random_digraph (Prng.create 7) ~n:30 ~extra_edges:20 ~back_edges:6
      ~t_edge_prob:0.25
  in
  let obs = Obs.create () in
  let stats =
    List.map
      (fun seed ->
        let vfaults =
          V.uniform
            (V.plan ~crash:0.1 ~max_downtime:3 ~recovery:V.Amnesia ())
            ~seed
        in
        (Anonet.General_engine.run ~vfaults ~obs g).E.vfault_stats)
      [ 1; 2; 3; 4 ]
  in
  let sum f = List.fold_left (fun acc v -> acc + f v) 0 stats in
  let c name = Obs.Registry.(value (counter obs.Obs.registry name)) in
  let check name f = Alcotest.(check int) name (sum f) (c ("engine." ^ name)) in
  check "crashes" (fun v -> v.E.crashes);
  check "restarts" (fun v -> v.E.restarts);
  check "lost_state_bits" (fun v -> v.E.lost_state_bits);
  check "down_drops" (fun v -> v.E.down_drops);
  check "stuttered" (fun v -> v.E.stuttered);
  check "checkpoints" (fun v -> v.E.checkpoints);
  check "replayed" (fun v -> v.E.replayed);
  Alcotest.(check bool) "several restarts" true
    (sum (fun v -> v.E.restarts) > 4)

let test_vfaulty_runs_reproducible () =
  let g =
    F.random_digraph (Prng.create 13) ~n:14 ~extra_edges:8 ~back_edges:3
      ~t_edge_prob:0.25
  in
  let run () =
    let faults = Fl.create ~drop:0.1 ~duplicate:0.1 ~max_delay:2 ~seed:21 () in
    let vfaults =
      V.uniform (V.plan ~crash:0.08 ~max_downtime:2 ~stutter:0.05 ()) ~seed:22
    in
    Anonet.General_engine.run ~faults ~vfaults
      ~supervisor:Runtime.Supervisor.default g
  in
  let a = run () and b = run () in
  Alcotest.check outcome "same outcome" a.E.outcome b.E.outcome;
  Alcotest.(check int) "same deliveries" a.E.deliveries b.E.deliveries;
  Alcotest.(check bool) "same vfault stats" true
    (a.E.vfault_stats = b.E.vfault_stats);
  Alcotest.(check bool) "same fault stats" true
    (a.E.fault_stats = b.E.fault_stats)

(* {1 Schedule independence} *)

(* Flood sends once per edge, so each vertex is offered exactly one copy per
   visited in-neighbour; with a scripted crash the fates depend only on that
   per-vertex clock, never on the interleaving — every scheduler must agree
   on the fault ledger, the coverage and the delivery count. *)
let test_vfault_fates_schedule_independent () =
  let fired = ref 0 in
  for seed = 1 to 8 do
    let g =
      F.random_digraph (Prng.create seed) ~n:20 ~extra_edges:12 ~back_edges:4
        ~t_edge_prob:0.25
    in
    let vfaults =
      V.script
        [
          V.event ~vertex:1 ~at:1 ~downtime:1 ();
          V.event ~vertex:2 ~at:1 ~recovery:V.Stop ();
          V.event ~vertex:3 ~at:2 ~downtime:2 ~recovery:V.Restore ();
        ]
    in
    let s = Anonet.Flood_engine.run ~vfaults g in
    fired := !fired + s.E.vfault_stats.E.crashes;
    List.iter
      (fun (name, scheduler) ->
        let p = Anonet.Flood_engine.run ~scheduler ~vfaults g in
        let tag what = Printf.sprintf "seed %d, %s: %s" seed name what in
        Alcotest.(check int) (tag "same crashes") s.E.vfault_stats.E.crashes
          p.E.vfault_stats.E.crashes;
        Alcotest.(check int) (tag "same restarts") s.E.vfault_stats.E.restarts
          p.E.vfault_stats.E.restarts;
        Alcotest.(check int)
          (tag "same down drops")
          s.E.vfault_stats.E.down_drops p.E.vfault_stats.E.down_drops;
        Alcotest.(check (list int))
          (tag "same stopped set")
          s.E.vfault_stats.E.stopped_vertices
          p.E.vfault_stats.E.stopped_vertices;
        Alcotest.(check bool) (tag "same coverage") true
          (s.E.visited = p.E.visited);
        Alcotest.(check int) (tag "same deliveries") s.E.deliveries
          p.E.deliveries)
      (schedulers ~seed)
  done;
  Alcotest.(check bool) "crashes actually fired" true (!fired > 0)

(* {1 Redundant checksum rejections} *)

module K3 = struct
  let k = 3
end

module General_r3 = Anonet.Redundant.Make (K3) (Anonet.General_broadcast)
module R3_engine = Runtime.Engine.Make (General_r3)

let test_corruption_heavy_redundant_rejects_and_stays_sound () =
  let total_rejects = ref 0 in
  for seed = 1 to 15 do
    let g =
      F.random_digraph (Prng.create seed) ~n:12 ~extra_edges:8 ~back_edges:3
        ~t_edge_prob:0.25
    in
    let faults = Fl.create ~corrupt:0.25 ~seed () in
    let r = R3_engine.run ~faults g in
    total_rejects := !total_rejects + r.E.fault_stats.E.checksum_rejects;
    (* Detected corruption degrades to a drop: soundness must survive. *)
    if r.E.outcome = E.Terminated then begin
      let reach = G.reachable_from_s g in
      if
        List.exists
          (fun v -> reach.(v) && not r.E.visited.(v))
          (G.vertices g)
      then Alcotest.fail ("false termination under corruption: " ^ report_summary r)
    end
  done;
  Alcotest.(check bool) "checksums actually fired" true (!total_rejects > 50)

let test_bare_protocol_never_checksum_rejects () =
  let g =
    F.random_digraph (Prng.create 2) ~n:12 ~extra_edges:8 ~back_edges:3
      ~t_edge_prob:0.25
  in
  let faults = Fl.create ~corrupt:0.25 ~seed:2 () in
  let r = Anonet.General_engine.run ~faults g in
  Alcotest.(check int) "no checksum layer, no rejects" 0
    r.E.fault_stats.E.checksum_rejects;
  Alcotest.(check bool) "corruption lands as deliveries or garbles" true
    (r.E.fault_stats.E.corrupted_deliveries + r.E.fault_stats.E.garbled_drops
    > 0)

(* {1 Campaign per-cell shrink} *)

module General_runner = C.Of_protocol (Anonet.General_broadcast)

let general_case =
  {
    C.g_name = "random-digraph-12";
    build =
      (fun ~seed ->
        F.random_digraph (Prng.create seed) ~n:12 ~extra_edges:8 ~back_edges:3
          ~t_edge_prob:0.25);
  }

(* The many failing seeds of one (runner, graph, point) cell share one
   shrink: every violation must carry a shrunk witness, and the same one. *)
let test_shrink_memo_dedupes_identical_failures () =
  let seeds = List.init 60 (fun i -> i + 1) in
  let res =
    C.run ~step_limit:300_000
      ~runners:[ General_runner.runner () ]
      ~graphs:[ general_case ]
      ~grid:[ C.point ~duplicate:0.35 () ]
      ~seeds ()
  in
  match res.C.violations with
  | [] -> Alcotest.fail "expected duplication violations"
  | v0 :: _ as vs ->
      Alcotest.(check bool) "several seeds hit the same cell" true
        (List.length vs > 1);
      List.iter
        (fun v ->
          Alcotest.(check string) "one shrink shared by all"
            v0.C.shrunk_point.C.label v.C.shrunk_point.C.label;
          Alcotest.(check int) "one seed shared by all" v0.C.shrunk_seed
            v.C.shrunk_seed;
          Alcotest.(check bool) "shrunk rate <= original" true
            (v.C.shrunk_point.C.fault_plan.Fl.duplicate
            <= v.C.v_point.C.fault_plan.Fl.duplicate))
        vs

let () =
  Alcotest.run "vfaults"
    [
      ( "instance",
        [
          Alcotest.test_case "script clock + restart" `Quick
            test_script_clock_and_restart;
          Alcotest.test_case "crash-stop permanent" `Quick
            test_crash_stop_is_permanent;
          Alcotest.test_case "uniform stutter" `Quick
            test_uniform_stutter_swallows;
          Alcotest.test_case "stale crash head fires next" `Quick
            test_stale_crash_head_fires_on_next_offer;
        ] );
      ( "engine",
        [
          Alcotest.test_case "amnesia healed by redundant copies" `Quick
            test_amnesia_heals_given_redundant_copies;
          Alcotest.test_case "amnesia starves bare flood" `Quick
            test_amnesia_starves_bare_flood_on_a_path;
          Alcotest.test_case "crash-stop counters" `Quick
            test_crash_stop_engine_counters;
          Alcotest.test_case "vfaulty runs reproducible" `Quick
            test_vfaulty_runs_reproducible;
          Alcotest.test_case "fates schedule-independent" `Quick
            test_vfault_fates_schedule_independent;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "heals crash on a path" `Quick
            test_supervisor_heals_crash_on_path;
          Alcotest.test_case "fault-free overhead zero" `Quick
            test_supervisor_fault_free_overhead_is_zero;
          Alcotest.test_case "escalation stops without loss" `Quick
            test_escalation_stops_when_nothing_lost;
          Alcotest.test_case "escalation raises k under loss" `Quick
            test_escalation_raises_k_under_loss;
        ] );
      ( "obs",
        [
          Alcotest.test_case "counters reconcile exactly" `Quick
            test_obs_counters_reconcile_exactly;
          Alcotest.test_case "counters add up across runs" `Quick
            test_obs_counters_add_up_across_runs;
        ] );
      ( "redundant",
        [
          Alcotest.test_case "corruption-heavy rejects, stays sound" `Quick
            test_corruption_heavy_redundant_rejects_and_stays_sound;
          Alcotest.test_case "bare protocol never rejects" `Quick
            test_bare_protocol_never_checksum_rejects;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "shrink memo dedupes identical failures" `Quick
            test_shrink_memo_dedupes_identical_failures;
        ] );
    ]
