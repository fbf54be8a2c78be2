(* The domain pool and the sweeps built on it, plus the sequential
   engine's schedule-independence properties.

   Conservation: for every suite protocol on its own graph class, the final
   linear cut of a run (vertex states + undelivered messages) must satisfy
   the protocol's conservation law — under Fifo and under every adversarial
   schedule, which must also agree with Fifo on the outcome and the visited
   set.  Schedule-dependent measures (deliveries for the non-tree
   protocols, bit high-water marks) are deliberately not compared.

   Fault plans: per-edge [on_send] streams are keyed by (seed, edge), so
   with corruption off (its bit draw happens at delivery time) and
   duplication off (a duplicated copy can flip termination itself, see
   test_faults) a tree run's fault counters must be identical under any
   schedule.

   Pool sweeps: results come back in job order, so a parallel campaign
   renders byte-identically to the sequential one. *)

module E = Runtime.Engine
module F = Digraph.Families
module H = Helpers

(* {1 The final-cut conservation check} *)

let conservation_ok (type s m)
    (module P : Runtime.Protocol_intf.CHECKABLE
      with type state = s
       and type message = m) g (states : s array) (leftover : m list) =
  match P.conservation with
  | None -> true
  | Some (Runtime.Protocol_intf.Conservation c) ->
      let acc =
        List.fold_left (fun a m -> c.add a (c.of_message m)) c.zero leftover
      in
      let acc =
        List.fold_left
          (fun a v ->
            c.add a
              (c.retained
                 ~out_degree:(Digraph.out_degree g v)
                 ~in_degree:(Digraph.in_degree g v)
                 states.(v)))
          acc (Digraph.vertices g)
      in
      Result.is_ok (c.check acc)

(* {1 Sequential final cut, per suite protocol} *)

let conservation_case (type s m)
    (module P : Runtime.Protocol_intf.CHECKABLE
      with type state = s
       and type message = m) name g =
  let module Seq = Runtime.Engine.Make (P) in
  let left = ref [] in
  let r = Seq.run ~on_undelivered:(fun m -> left := m :: !left) g in
  if not (conservation_ok (module P) g r.states !left) then
    QCheck.Test.fail_reportf "%s: sequential conservation breached (%s)" name
      (H.report_summary r);
  true

let conservation_tests =
  List.map
    (fun (name, cls, p) ->
      let arb, count =
        match cls with
        | `Trees -> (H.arb_grounded_tree, 40)
        | `Dags -> (H.arb_dag, 30)
        | `Digraphs -> (H.arb_digraph, 20)
      in
      H.qcheck_to_alcotest ~count
        (Printf.sprintf "final-cut conservation: %s" name)
        arb
        (fun g ->
          let (module P : Runtime.Protocol_intf.CHECKABLE) = p in
          conservation_case (module P) name g))
    (Anonet.Check_suite.protocols ())

(* {1 Adversarial schedules, per suite protocol} *)

let schedules_case (type s m)
    (module P : Runtime.Protocol_intf.CHECKABLE
      with type state = s
       and type message = m) name g =
  let module Seq = Runtime.Engine.Make (P) in
  let fifo = Seq.run g in
  List.for_all
    (fun (sched, scheduler) ->
      let left = ref [] in
      let r = Seq.run ~scheduler ~on_undelivered:(fun m -> left := m :: !left) g in
      if r.outcome <> fifo.outcome then
        QCheck.Test.fail_reportf "%s: %s: %s, fifo %s" name sched
          (H.outcome_string r.outcome)
          (H.outcome_string fifo.outcome);
      if r.visited <> fifo.visited then
        QCheck.Test.fail_reportf "%s: %s: visited set differs" name sched;
      if r.final_in_flight <> List.length !left then
        QCheck.Test.fail_reportf
          "%s: %s: final_in_flight %d but %d leftover messages" name sched
          r.final_in_flight (List.length !left);
      if not (conservation_ok (module P) g r.states !left) then
        QCheck.Test.fail_reportf "%s: %s: conservation breached (%s)" name
          sched (H.report_summary r);
      true)
    (H.schedulers ~seed:(Digraph.n_edges g))

let schedules_tests =
  List.map
    (fun (name, cls, p) ->
      let arb, count =
        match cls with
        | `Trees -> (H.arb_grounded_tree, 40)
        | `Dags -> (H.arb_dag, 30)
        | `Digraphs -> (H.arb_digraph, 20)
      in
      H.qcheck_to_alcotest ~count
        (Printf.sprintf "adversarial schedules: %s" name)
        arb
        (fun g ->
          let (module P : Runtime.Protocol_intf.CHECKABLE) = p in
          schedules_case (module P) name g))
    (Anonet.Check_suite.protocols ())

(* {1 Fault parity} *)

(* Tree protocol, drop + delay + kill (no duplication, no corruption): every
   edge carries at most one send, so the per-edge fault streams are consumed
   identically under any schedule and the counters must equal Fifo's — as
   must the outcome, the visited set and the delivery count. *)
let fault_parity () =
  let module Seq = Runtime.Engine.Make (Anonet.Tree_broadcast) in
  for seed = 1 to 12 do
    let g =
      F.random_grounded_tree (Prng.create (100 + seed)) ~n:40 ~t_edge_prob:0.3
    in
    let faults =
      Runtime.Faults.create ~drop:0.12 ~max_delay:3 ~kill:0.05 ~seed ()
    in
    let sr = Seq.run ~faults g in
    List.iter
      (fun (sched, scheduler) ->
        let pr = Seq.run ~scheduler ~faults g in
        let ctx what = Printf.sprintf "seed %d, %s: %s" seed sched what in
        Alcotest.check H.outcome (ctx "outcome") sr.outcome pr.outcome;
        Alcotest.(check (array bool)) (ctx "visited") sr.visited pr.visited;
        Alcotest.(check int) (ctx "deliveries") sr.deliveries pr.deliveries;
        Alcotest.(check int) (ctx "dropped") sr.fault_stats.dropped_copies
          pr.fault_stats.dropped_copies;
        Alcotest.(check int) (ctx "extra") sr.fault_stats.extra_copies
          pr.fault_stats.extra_copies;
        Alcotest.(check int) (ctx "delayed") sr.fault_stats.delayed_copies
          pr.fault_stats.delayed_copies;
        Alcotest.(check (list int))
          (ctx "dead edges") sr.fault_stats.dead_edges
          pr.fault_stats.dead_edges)
      (H.schedulers ~seed)
  done

(* {1 Pool} *)

let pool_order () =
  let r = Par.Pool.run ~domains:4 100 (fun i -> i * i) in
  Alcotest.(check (array int)) "job order" (Array.init 100 (fun i -> i * i)) r;
  Alcotest.(check (list string))
    "map_list order"
    [ "a!"; "b!"; "c!" ]
    (Par.Pool.map_list ~domains:2 (fun s -> s ^ "!") [ "a"; "b"; "c" ])

let pool_empty_and_errors () =
  Alcotest.(check (array int)) "zero jobs" [||] (Par.Pool.run 0 (fun i -> i));
  Alcotest.check_raises "exception propagates" (Failure "job 7") (fun () ->
      ignore
        (Par.Pool.run ~domains:3 16 (fun i ->
             if i = 7 then failwith "job 7" else i)))

(* More domains than jobs are clamped to the job count; fewer than one is a
   caller error. *)
let pool_domain_bounds () =
  let expect = Array.init 5 (fun i -> 3 * i) in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" domains)
        expect
        (Par.Pool.run ~domains 5 (fun i -> 3 * i)))
    [ 1; 5; 64 ];
  Alcotest.check_raises "domains < 1"
    (Invalid_argument "Pool.run: domains < 1") (fun () ->
      ignore (Par.Pool.run ~domains:0 5 Fun.id))

(* {1 Parallel campaign} *)

(* E12's tree sweep: the bare protocol falsely terminates under
   duplication, so 12 of its cells shrink a violation, and a shrink must
   come out the same whichever domain runs its cell. *)
let campaign_matches_sequential () =
  let module C = Runtime.Campaign in
  let module K3 = struct
    let k = 3
  end in
  let module TR = C.Of_protocol (Anonet.Tree_broadcast) in
  let module TR3 =
    C.Of_protocol (Anonet.Redundant.Make (K3) (Anonet.Tree_broadcast))
  in
  let runners = [ TR.runner (); TR3.runner () ] in
  let graphs = [ List.hd (Anonet.Resilient.chaos_graphs ()) ] in
  let grid =
    C.grid ~drops:[ 0.0; 0.05; 0.15 ] ~duplicates:[ 0.0; 0.2 ]
      ~max_delays:[ 0; 2 ] ~corrupts:[ 0.0; 0.02 ] ()
  in
  let seeds = List.init 20 (fun i -> i + 1) in
  let step_limit = 300_000 in
  let seq = C.run ~step_limit ~runners ~graphs ~grid ~seeds () in
  let par =
    Par.Campaign.run ~domains:4 ~step_limit ~runners ~graphs ~grid ~seeds ()
  in
  Alcotest.(check int) "failing cells" 12
    (List.length
       (List.filter (fun (c : C.cell) -> c.false_terminated > 0) seq.cells));
  Alcotest.(check string)
    "identical JSON rendering" (C.to_json seq) (C.to_json par);
  Alcotest.(check bool) "sound" (C.sound seq) (C.sound par)

let () =
  Alcotest.run "par"
    [
      ("conservation", conservation_tests);
      ("schedules", schedules_tests);
      ("faults", [ Alcotest.test_case "tree fault parity" `Quick fault_parity ]);
      ( "pool",
        [
          Alcotest.test_case "deterministic order" `Quick pool_order;
          Alcotest.test_case "empty + exceptions" `Quick pool_empty_and_errors;
          Alcotest.test_case "domain bounds" `Quick pool_domain_bounds;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "par sweep == sequential sweep" `Quick
            campaign_matches_sequential;
        ] );
    ]
