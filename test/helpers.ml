(* Shared test utilities: QCheck generators for the numeric kernel and the
   interval machinery, Alcotest testables, and graph-family samplers. *)

module B = Bignat
module Q = Exact.Rational
module Dy = Exact.Dyadic
module I = Intervals.Interval
module Is = Intervals.Iset

let qcheck_to_alcotest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* {1 Alcotest testables} *)

let bignat = Alcotest.testable B.pp B.equal
let rational = Alcotest.testable Q.pp Q.equal
let dyadic = Alcotest.testable Dy.pp Dy.equal
let interval = Alcotest.testable I.pp I.equal
let iset = Alcotest.testable Is.pp Is.equal

let outcome_string (o : Runtime.Engine.outcome) =
  match o with
  | Runtime.Engine.Terminated -> "terminated"
  | Runtime.Engine.Quiescent -> "quiescent"
  | Runtime.Engine.Step_limit -> "step-limit"
  | Runtime.Engine.Cancelled -> "cancelled"

let outcome =
  let pp fmt o = Format.pp_print_string fmt (outcome_string o) in
  Alcotest.testable pp ( = )

(* One-line run report for assertion messages: outcome, deliveries, what is
   still in flight (starvation vs true quiescence), and the fault counters. *)
let report_summary (r : _ Runtime.Engine.report) =
  let f = r.Runtime.Engine.fault_stats in
  Printf.sprintf
    "%s after %d deliveries (in-flight %d; dropped %d, extra %d, delayed %d, \
     corrupted %d, garbled %d, dead edges %d)"
    (outcome_string r.Runtime.Engine.outcome)
    r.Runtime.Engine.deliveries r.Runtime.Engine.final_in_flight
    f.Runtime.Engine.dropped_copies f.Runtime.Engine.extra_copies
    f.Runtime.Engine.delayed_copies f.Runtime.Engine.corrupted_deliveries
    f.Runtime.Engine.garbled_drops
    (List.length f.Runtime.Engine.dead_edges)

(* The adversarial schedules a run is compared against Fifo under, built
   fresh per call because [Random] carries a stateful generator. *)
let schedulers ~seed =
  let module S = Runtime.Scheduler in
  [
    ("lifo", S.Lifo);
    ("random", S.Random (Prng.create seed));
    ("edge-priority", S.Edge_priority (fun e -> -e));
  ]

(* {1 QCheck generators} *)

let gen_bignat : B.t QCheck.Gen.t =
  QCheck.Gen.(
    let small = map B.of_int (int_bound 1_000_000) in
    let big =
      map
        (fun limbs ->
          List.fold_left
            (fun acc l -> B.add (B.shift_left acc 30) (B.of_int l))
            B.zero limbs)
        (list_size (int_range 1 6) (int_bound ((1 lsl 30) - 1)))
    in
    oneof [ small; big ])

let arb_bignat = QCheck.make ~print:B.to_string gen_bignat

let gen_small_nat = QCheck.Gen.int_bound 100_000
let arb_small_nat = QCheck.make ~print:string_of_int gen_small_nat

let gen_rational : Q.t QCheck.Gen.t =
  QCheck.Gen.(
    map3
      (fun negative num den -> Q.make ~negative num (B.succ den))
      bool gen_bignat gen_bignat)

let arb_rational = QCheck.make ~print:Q.to_string gen_rational

let gen_dyadic : Dy.t QCheck.Gen.t =
  QCheck.Gen.(
    map3 (fun negative m e -> Dy.make ~negative m e) bool gen_bignat (int_bound 48))

let arb_dyadic = QCheck.make ~print:Dy.to_string gen_dyadic

(* A mantissa of exactly [w] bits, [lo <= w <= hi] (at most 66), odd or
   even: drawn around 2^61, where a dyadic switches from an int mantissa
   to a [Bignat] one. *)
let gen_wide_mantissa lo hi =
  QCheck.Gen.(
    map3
      (fun w a b ->
        let r = B.add (B.shift_left (B.of_int a) 31) (B.of_int b) in
        B.add (B.pow2 (w - 1)) (B.shift_right r (67 - w)))
      (int_range lo hi)
      (int_bound ((1 lsl 35) - 1))
      (int_bound ((1 lsl 31) - 1)))

(* A dyadic in [0, 1), endpoint-like. *)
let gen_unit_dyadic : Dy.t QCheck.Gen.t =
  QCheck.Gen.(
    map2
      (fun e m_raw ->
        let e = 1 + e in
        let m = m_raw mod (1 lsl e) in
        Dy.make (B.of_int m) e)
      (int_bound 19) (int_bound ((1 lsl 20) - 1)))

let arb_unit_dyadic = QCheck.make ~print:Dy.to_string gen_unit_dyadic

let gen_interval : I.t QCheck.Gen.t =
  QCheck.Gen.(map2 I.make gen_unit_dyadic gen_unit_dyadic)

let arb_interval = QCheck.make ~print:I.to_string gen_interval

let gen_iset : Is.t QCheck.Gen.t =
  QCheck.Gen.(map Is.of_intervals (list_size (int_range 0 8) gen_interval))

let arb_iset = QCheck.make ~print:Is.to_string gen_iset

(* {1 Graph samplers} *)

let gen_grounded_tree : Digraph.t QCheck.Gen.t =
  QCheck.Gen.(
    map2
      (fun seed n ->
        Digraph.Families.random_grounded_tree (Prng.create seed) ~n:(n + 1)
          ~t_edge_prob:0.3)
      (int_bound 10_000) (int_bound 60))

let gen_dag : Digraph.t QCheck.Gen.t =
  QCheck.Gen.(
    map2
      (fun seed n ->
        let prng = Prng.create seed in
        Digraph.Families.random_dag prng ~n:(n + 1)
          ~extra_edges:(Prng.int_in prng 0 (2 * (n + 1)))
          ~t_edge_prob:0.25)
      (int_bound 10_000) (int_bound 50))

let gen_digraph : Digraph.t QCheck.Gen.t =
  QCheck.Gen.(
    map2
      (fun seed n ->
        let prng = Prng.create seed in
        Digraph.Families.random_digraph prng ~n:(n + 1)
          ~extra_edges:(Prng.int_in prng 0 (n + 1))
          ~back_edges:(Prng.int_in prng 0 ((n / 2) + 1))
          ~t_edge_prob:0.25)
      (int_bound 10_000) (int_bound 40))

let graph_print g =
  Format.asprintf "%a" Digraph.pp g

let arb_grounded_tree = QCheck.make ~print:graph_print gen_grounded_tree
let arb_dag = QCheck.make ~print:graph_print gen_dag
let arb_digraph = QCheck.make ~print:graph_print gen_digraph

(* {1 Misc} *)

let rec pairwise_disjoint = function
  | [] -> true
  | x :: rest -> List.for_all (Is.disjoint x) rest && pairwise_disjoint rest
