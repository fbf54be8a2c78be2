module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine
module Is = Intervals.Iset
open Helpers

module GB = Anonet.General_broadcast
module GB_engine = Anonet.General_engine

let schedulers seed =
  [
    Runtime.Scheduler.Fifo;
    Runtime.Scheduler.Lifo;
    Runtime.Scheduler.Random (Prng.create seed);
    Runtime.Scheduler.Edge_priority (fun e -> -e);
    Runtime.Scheduler.Edge_priority (fun e -> e);
  ]

let test_terminates_everywhere () =
  List.iter
    (fun (name, g) ->
      let st = Anonet.broadcast_general g in
      Alcotest.check outcome (name ^ " terminates") E.Terminated st.outcome;
      Alcotest.(check bool) (name ^ " visits all") true st.all_visited)
    [
      ("path", F.path 5);
      ("comb", F.comb 8);
      ("diamond", F.diamond ());
      ("grid", F.grid_dag ~rows:3 ~cols:4);
      ("cycle", F.cycle_with_exit ~k:7);
      ("figure eight", F.figure_eight ());
      ("full tree", F.full_tree ~height:3 ~degree:2);
      ("skeleton", F.skeleton ~n:2 ~subset:[| true; false |]);
    ]

let test_terminal_covers_unit () =
  let g = F.figure_eight () in
  let r = GB_engine.run g in
  Alcotest.check iset "covered = [0,1)" Is.unit (GB.covered r.states.(G.terminal g))

let test_no_termination_on_traps () =
  List.iter
    (fun (name, g) ->
      let st = Anonet.broadcast_general g in
      Alcotest.check outcome (name ^ " must not terminate") E.Quiescent st.outcome)
    [
      ("sink trap", F.add_trap (F.cycle_with_exit ~k:4) ~from_vertex:2);
      ("cycle trap", F.add_trap_cycle (F.grid_dag ~rows:2 ~cols:3) ~from_vertex:1);
      ("trap off comb", F.add_trap (F.comb 4) ~from_vertex:2);
    ]

let test_self_loop_handled () =
  (* A self-loop is the smallest cycle: detected and beta-diverted. *)
  let g = G.make ~n:4 ~s:0 ~t:3 [ (0, 1); (1, 1); (1, 2); (2, 3) ] in
  let st = Anonet.broadcast_general g in
  Alcotest.check outcome "self-loop terminates" E.Terminated st.outcome

let test_multi_edge_handled () =
  let g = G.make ~n:4 ~s:0 ~t:3 [ (0, 1); (1, 2); (1, 2); (2, 3); (2, 3) ] in
  let st = Anonet.broadcast_general g in
  Alcotest.check outcome "multi-edges terminate" E.Terminated st.outcome

let test_two_vertex_cycle () =
  (* s -> a <-> b, a -> t: beta must carry b's stuck half back out. *)
  let g = G.make ~n:4 ~s:0 ~t:3 [ (0, 1); (1, 2); (2, 1); (1, 3) ] in
  let st = Anonet.broadcast_general g in
  Alcotest.check outcome "terminates" E.Terminated st.outcome;
  Alcotest.(check bool) "all visited" true st.all_visited

let prop_terminates_on_random_digraphs =
  qcheck_to_alcotest ~count:100 "terminates and visits all on random digraphs"
    arb_digraph (fun g ->
      let st = Anonet.broadcast_general g in
      st.outcome = E.Terminated && st.all_visited)

let prop_schedule_independent =
  qcheck_to_alcotest ~count:40 "schedule independent"
    QCheck.(pair arb_digraph (int_bound 1000))
    (fun (g, seed) ->
      schedulers seed
      |> List.for_all (fun sch ->
             let st = Anonet.broadcast_general ~scheduler:sch g in
             st.outcome = E.Terminated && st.all_visited))

let prop_trap_never_terminates =
  qcheck_to_alcotest ~count:50 "traps always prevent termination"
    QCheck.(pair arb_digraph (int_bound 1000))
    (fun (g, seed) ->
      let internals = G.internal_vertices g in
      QCheck.assume (internals <> []);
      let v = List.nth internals (seed mod List.length internals) in
      (Anonet.broadcast_general (F.add_trap g ~from_vertex:v)).outcome = E.Quiescent
      && (Anonet.broadcast_general (F.add_trap_cycle g ~from_vertex:v)).outcome
         = E.Quiescent)

(* Theorem 4.3's structural bounds, measured on real runs. *)
let prop_message_size_bounds =
  qcheck_to_alcotest ~count:40 "interval count and endpoint bits stay bounded"
    arb_digraph (fun g ->
      let max_intervals = ref 0 and max_endpoint = ref 0 in
      let hook (_ : E.event) ((alpha, beta) : GB.message) =
        max_intervals := max !max_intervals (Is.count alpha + Is.count beta);
        max_endpoint :=
          max !max_endpoint
            (max (Is.max_endpoint_bits alpha) (Is.max_endpoint_bits beta))
      in
      let r = GB_engine.run ~on_deliver:hook g in
      let e = G.n_edges g and v = G.n_vertices g in
      let logd =
        let d = G.max_out_degree g in
        let rec lg acc n = if n <= 1 then acc else lg (acc + 1) (n / 2) in
        max 1 (lg 0 d + 1)
      in
      r.outcome = E.Terminated
      (* Each vertex partitions once into <= d_out parts: O(|E|) intervals. *)
      && !max_intervals <= (4 * e) + 8
      (* Endpoints gain O(log d_out) bits per vertex on the path. *)
      && !max_endpoint <= (8 * v * logd) + 64)

(* Theorem 4.2's per-edge traffic argument: any value is alpha-carried (and
   beta-carried) at most once per edge, so an edge carries O(|E|) messages. *)
let prop_per_edge_message_bound =
  qcheck_to_alcotest ~count:40 "per-edge message count O(|E|)" arb_digraph
    (fun g ->
      let r = GB_engine.run g in
      let worst = Array.fold_left max 0 r.edge_messages in
      r.outcome = E.Terminated && worst <= (4 * G.n_edges g) + 4)

(* State-monotonicity as observed through the engine: covered sets only
   grow at the terminal. *)
let test_monotone_coverage_at_terminal () =
  let g = F.figure_eight () in
  let t = G.terminal g in
  let last = ref Is.empty in
  let ok = ref true in
  let hook (ev : E.event) ((alpha, beta) : GB.message) =
    if ev.to_vertex = t then begin
      let now = Is.union !last (Is.union alpha beta) in
      if not (Is.subset !last now) then ok := false;
      last := now
    end
  in
  let r = GB_engine.run ~on_deliver:hook g in
  Alcotest.check outcome "terminated" E.Terminated r.outcome;
  Alcotest.(check bool) "coverage monotone" true !ok;
  Alcotest.check iset "hook reconstructs coverage" (GB.covered r.states.(t)) !last

(* The broadcast payload m rides on every message: communication scales by
   |m| * deliveries, exactly the |E||m| term. *)
let test_payload_term () =
  let g = F.cycle_with_exit ~k:5 in
  let plain = GB_engine.run g in
  let with_m = GB_engine.run ~payload_bits:64 g in
  Alcotest.(check int) "payload term"
    (plain.total_bits + (64 * plain.deliveries))
    with_m.total_bits

(* E5's graphs (bench/main.ml: seed 3000 + k, n/4 back edges) with the
   deliveries, total bits and bandwidth the sort-based interval layer
   produced.  The arithmetic is the specification: a faster Iset, Dyadic
   or codec must reproduce every count exactly. *)
let e5_pinned =
  [
    (8, 1, 22, 138, 3741, 35); (8, 2, 22, 36, 883, 33); (8, 3, 22, 54, 1340, 31);
    (16, 1, 43, 220, 6197, 43); (16, 2, 40, 181, 4913, 37); (16, 3, 42, 277, 7804, 37);
    (32, 1, 87, 482, 15783, 49); (32, 2, 86, 390, 12633, 49); (32, 3, 84, 164, 5320, 45);
    (64, 1, 167, 752, 30454, 55);
    (64, 2, 168, 1036, 40673, 55);
    (64, 3, 170, 1008, 36363, 53);
    (128, 1, 337, 3237, 133838, 61); (128, 2, 337, 8558, 324230, 69);
    (128, 3, 345, 2370, 79661, 59);
    (256, 1, 681, 10133, 431187, 73); (256, 2, 687, 4349, 226236, 73);
    (256, 3, 677, 5870, 253461, 65);
  ]

let test_e5_counts_pinned () =
  List.iter
    (fun (n, seed, edges, deliveries, bits, bandwidth) ->
      let g =
        F.random_digraph (Prng.create (3000 + seed)) ~n ~extra_edges:n
          ~back_edges:(n / 4) ~t_edge_prob:0.2
      in
      let st = Anonet.broadcast_general g in
      let name what = Printf.sprintf "n=%d seed=%d %s" n seed what in
      Alcotest.(check int) (name "|E|") edges (G.n_edges g);
      Alcotest.check outcome (name "outcome") E.Terminated st.outcome;
      Alcotest.(check int) (name "deliveries") deliveries st.deliveries;
      Alcotest.(check int) (name "total bits") bits st.total_bits;
      Alcotest.(check int) (name "bandwidth") bandwidth st.max_message_bits)
    e5_pinned

(* A LIFO run whose endpoints outgrow a machine int: a [Dyadic.t] keeps
   its mantissa in an int below 2^61 and in a [Bignat] above, so the
   arithmetic must agree across that switch.  The counts are the run's,
   whichever form each endpoint takes. *)
let test_lifo_wide_endpoints_pinned () =
  let g =
    F.random_digraph (Prng.create 5256) ~n:256 ~extra_edges:256 ~back_edges:32
      ~t_edge_prob:0.2
  in
  let r = GB_engine.run ~scheduler:Runtime.Scheduler.Lifo g in
  Alcotest.check outcome "outcome" E.Terminated r.outcome;
  Alcotest.(check int) "deliveries" 19_747 r.deliveries;
  Alcotest.(check int) "total bits" 2_911_206 r.total_bits;
  let endpoints = ref 0 and wide = ref 0 and widest = ref 0 in
  Array.iter
    (fun (st : Anonet.Interval_core.t) ->
      List.iter
        (fun s ->
          List.iter
            (fun iv ->
              List.iter
                (fun d ->
                  let w = Bignat.bit_length (Exact.Dyadic.mantissa d) in
                  incr endpoints;
                  if w > 61 then incr wide;
                  widest := max !widest w)
                [ Intervals.Interval.lo iv; Intervals.Interval.hi iv ])
            (Is.intervals s))
        (st.beta :: st.seen_alpha :: st.label :: Array.to_list st.alpha))
    r.states;
  Alcotest.(check int) "final-state endpoints" 15_876 !endpoints;
  Alcotest.(check int) "endpoints wider than 61 bits" 3_678 !wide;
  Alcotest.(check int) "widest mantissa" 72 !widest

(* The delivery loop's allocation budget, on the benchmark's first
   general-cyclic graph: the stopping predicate, the state size and the
   in-flight pool allocate nothing per delivery, which leaves the interval
   arithmetic and the protocol's send lists (about 64 minor words per
   delivery under Fifo, 56 under Random).  While they still allocated, the
   run took 109 words per delivery under Fifo and 128-134 under Random.
   There is no flambda, so one bound holds in both build profiles. *)
let test_allocation_budget () =
  let g =
    F.random_digraph (Prng.create 5000) ~n:160 ~extra_edges:160 ~back_edges:40
      ~t_edge_prob:0.2
  in
  List.iter
    (fun (name, scheduler) ->
      let w0 = Gc.minor_words () in
      let r = GB_engine.run ~scheduler g in
      let per = (Gc.minor_words () -. w0) /. float_of_int r.deliveries in
      Alcotest.check outcome (name ^ " outcome") E.Terminated r.outcome;
      if per > 80.0 then
        Alcotest.failf "%s: %.1f minor words per delivery, budget 80" name per)
    [
      ("fifo", Runtime.Scheduler.Fifo);
      ("random", Runtime.Scheduler.Random (Prng.create 1));
    ]

let () =
  Alcotest.run "general-broadcast"
    [
      ( "termination",
        [
          Alcotest.test_case "families terminate" `Quick test_terminates_everywhere;
          Alcotest.test_case "coverage at t" `Quick test_terminal_covers_unit;
          Alcotest.test_case "traps block" `Quick test_no_termination_on_traps;
          Alcotest.test_case "self loop" `Quick test_self_loop_handled;
          Alcotest.test_case "multi edge" `Quick test_multi_edge_handled;
          Alcotest.test_case "two-vertex cycle" `Quick test_two_vertex_cycle;
          prop_terminates_on_random_digraphs;
          prop_schedule_independent;
          prop_trap_never_terminates;
        ] );
      ( "complexity-shape",
        [
          prop_message_size_bounds;
          prop_per_edge_message_bound;
          Alcotest.test_case "monotone coverage" `Quick test_monotone_coverage_at_terminal;
          Alcotest.test_case "payload |m| term" `Quick test_payload_term;
          Alcotest.test_case "E5 counts pinned" `Quick test_e5_counts_pinned;
          Alcotest.test_case "LIFO run past 2^61 pinned" `Quick
            test_lifo_wide_endpoints_pinned;
          Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
        ] );
    ]
