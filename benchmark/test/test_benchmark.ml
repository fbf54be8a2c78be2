(* The benchmark's own checks: its vocabulary matches BENCHMARK.json, the
   percentile rule, and compare's verdicts.  Runs no workload. *)

let declared () =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  match Spec.of_benchmark_json text with
  | Ok d -> d
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)

let metric_names ms = List.map (fun (m : Spec.metric) -> (m.name, m.unit_, m.better)) ms

let names =
  Alcotest.(list (triple string string (of_pp (fun fmt b ->
    Format.pp_print_string fmt (match b with Spec.Higher -> "higher" | Lower -> "lower")))))

let test_names_match () =
  let d = declared () in
  Alcotest.(check (list string)) "workloads" Spec.workloads d.d_workloads;
  Alcotest.check names "end_to_end" (metric_names Spec.end_to_end)
    (metric_names (List.map fst d.d_end_to_end));
  Alcotest.check names "per_layer" (metric_names Spec.per_layer)
    (metric_names d.d_per_layer)

let test_bounds () =
  let d = declared () in
  let bounds = List.map (fun ((m : Spec.metric), b) -> (m.name, b)) d.d_end_to_end in
  List.iter
    (fun (name, b) ->
      Alcotest.(check bool) (name ^ " bound in (0, 0.25]") true (b > 0.0 && b <= 0.25))
    bounds;
  let setup = List.assoc "setup_s" bounds in
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun (_, b) -> b <= setup) bounds)

let test_percentile_rule () =
  let xs n = List.init n float_of_int in
  let refused p n = Result.is_error (Stats.percentile p (xs n)) in
  Alcotest.(check bool) "p99 of 999 refused" true (refused 99.0 999);
  Alcotest.(check bool) "p99 of 1000 allowed" false (refused 99.0 1000);
  Alcotest.(check bool) "p50 of 19 refused" true (refused 50.0 19);
  Alcotest.(check bool) "p50 of 20 allowed" false (refused 50.0 20);
  Alcotest.(check (float 1e-9)) "p50 value" 9.5 (Stats.percentile_exn 50.0 (xs 20))

let verdict =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Verdict.to_string v))
    ( = )

let decide better bound a b = (Verdict.decide ~better ~bound a b).verdict

(* Ten runs around [median] with a relative quartile spread of about
   [spread]. *)
let runs median spread =
  List.init 10 (fun i -> median *. (1.0 +. (spread *. (float_of_int i -. 4.5) /. 5.0)))

let test_verdicts () =
  let check name expected got = Alcotest.check verdict name expected got in
  let base = runs 100.0 0.02 in
  check "same runs" Unchanged (decide Higher 0.1 base base);
  check "all higher is better" Better (decide Higher 0.1 base (runs 120.0 0.02));
  check "all higher is worse when lower is better" Worse
    (decide Lower 0.1 base (runs 120.0 0.02));
  check "5% worse within a 10% bound" Unchanged
    (decide Higher 0.1 base (runs 95.0 0.02));
  check "30% worse" Worse (decide Higher 0.1 base (runs 70.0 0.02));
  check "spread wider than the bound" Unresolved
    (decide Higher 0.1 (runs 100.0 0.6) (runs 90.0 0.6));
  check "wide spread but every change run better" Better
    (decide Lower 0.1 (runs 100.0 0.3) (runs 10.0 0.3));
  let mixed = List.mapi (fun i x -> if i mod 2 = 0 then x *. 1.05 else x *. 0.97) base in
  check "wins half the pairs" Unchanged (decide Higher 0.1 base mixed);
  let eight = List.mapi (fun i x -> if i < 8 then x *. 1.2 else x *. 0.9) base in
  Alcotest.(check bool) "8 of 10 wins is not better" true
    (decide Higher 0.25 base eight <> Better)

let () =
  Alcotest.run "benchmark"
    [
      ( "spec",
        [
          Alcotest.test_case "names match BENCHMARK.json" `Quick test_names_match;
          Alcotest.test_case "bounds" `Quick test_bounds;
        ] );
      ("stats", [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule ]);
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ]);
    ]
