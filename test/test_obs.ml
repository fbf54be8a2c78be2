(* The telemetry subsystem: registry cells and snapshots, the timeline ring,
   the exporters (including the Chrome-trace JSON round-trip through the
   validating parser), and the reconciliation guarantees — Obs counters must
   agree exactly with the engine/explorer reports they instrument. *)

open Helpers
module R = Obs.Registry

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0
module T = Obs.Timeline
module E = Runtime.Engine
module F = Digraph.Families

(* {1 Registry} *)

let test_registry_cells () =
  let reg = R.create () in
  let c = R.counter reg "c" in
  R.incr c;
  R.add c 4;
  Alcotest.(check int) "counter" 5 (R.value c);
  let g = R.gauge reg "g" in
  R.set g 7;
  R.set g 3;
  Alcotest.(check int) "gauge keeps last" 3 (R.gauge_value g);
  let a = R.acounter reg "a" in
  R.aincr a;
  R.aadd a 9;
  Alcotest.(check int) "acounter" 10 (R.avalue a);
  let c' = R.counter reg "c" in
  R.incr c';
  Alcotest.(check int) "re-registration returns the same cell" 6 (R.value c);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Obs.Registry: \"c\" already registered with another kind")
    (fun () -> ignore (R.gauge reg "c"))

let test_histogram_buckets () =
  Alcotest.(check int) "bucket of 0" 0 (R.bucket_of 0);
  Alcotest.(check int) "bucket of -3" 0 (R.bucket_of (-3));
  Alcotest.(check int) "bucket of 1" 1 (R.bucket_of 1);
  Alcotest.(check int) "bucket of 2" 2 (R.bucket_of 2);
  Alcotest.(check int) "bucket of 3" 2 (R.bucket_of 3);
  Alcotest.(check int) "bucket of 4" 3 (R.bucket_of 4);
  Alcotest.(check int) "bucket of 1024" 11 (R.bucket_of 1024);
  (* Every positive bucket covers [2^(i-1), 2^i - 1]. *)
  for i = 1 to 20 do
    Alcotest.(check int) "lo in bucket" i (R.bucket_of (R.bucket_lo i));
    Alcotest.(check int) "hi in bucket" i (R.bucket_of (R.bucket_hi i))
  done;
  let reg = R.create () in
  let h = R.histogram reg "h" in
  List.iter (R.observe h) [ 0; 1; 1; 3; 900 ];
  match R.find_histogram (R.snapshot reg) "h" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some (count, sum, buckets) ->
      Alcotest.(check int) "count" 5 count;
      Alcotest.(check int) "sum" 905 sum;
      Alcotest.(check (list (pair int int)))
        "buckets" [ (0, 1); (1, 2); (2, 1); (10, 1) ] buckets

let test_snapshot_diff () =
  let reg = R.create () in
  let c = R.counter reg "runs.count" in
  let g = R.gauge reg "depth" in
  let h = R.histogram reg "sizes" in
  R.add c 10;
  R.set g 4;
  R.observe h 2;
  let older = R.snapshot reg in
  R.add c 5;
  R.set g 9;
  R.observe h 70;
  let newer = R.snapshot reg in
  let d = R.diff ~older ~newer in
  Alcotest.(check (option int)) "counter subtracts" (Some 5) (R.find d "runs.count");
  Alcotest.(check (option int)) "gauge keeps newer" (Some 9) (R.find d "depth");
  (match R.find_histogram d "sizes" with
  | Some (count, sum, buckets) ->
      Alcotest.(check int) "hist count diff" 1 count;
      Alcotest.(check int) "hist sum diff" 70 sum;
      Alcotest.(check (list (pair int int))) "hist buckets diff" [ (7, 1) ] buckets
  | None -> Alcotest.fail "histogram missing from diff");
  (* Names are sorted, so the JSON is deterministic; and it parses. *)
  let names = List.map fst newer in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names;
  Alcotest.(check bool) "snapshot JSON valid" true (Obs.Json.valid (R.to_json newer))

(* Rollup: fold per-session snapshots into a server-wide registry. *)
let test_merge_rollup () =
  let session = R.create () in
  R.add (R.counter session "engine.deliveries") 7;
  R.set (R.gauge session "depth") 3;
  let h = R.histogram session "bits" in
  List.iter (R.observe h) [ 1; 900 ];
  let snap = R.snapshot session in
  let server = R.create () in
  R.merge ~into:server ~prefix:"sessions." snap;
  R.merge ~into:server ~prefix:"sessions." snap;
  let merged = R.snapshot server in
  Alcotest.(check (option int))
    "counters add across merges" (Some 14)
    (R.find merged "sessions.engine.deliveries");
  Alcotest.(check (option int))
    "gauges take the incoming reading" (Some 3)
    (R.find merged "sessions.depth");
  (match R.find_histogram merged "sessions.bits" with
  | Some (count, sum, buckets) ->
      Alcotest.(check int) "hist count adds" 4 count;
      Alcotest.(check int) "hist sum adds" 1802 sum;
      Alcotest.(check (list (pair int int))) "buckets add" [ (1, 2); (10, 2) ] buckets
  | None -> Alcotest.fail "histogram missing after merge");
  (* Unprefixed merge reuses cells idempotently... *)
  let plain = R.create () in
  R.merge ~into:plain snap;
  Alcotest.(check (option int)) "no prefix" (Some 7)
    (R.find (R.snapshot plain) "engine.deliveries");
  (* ...and a kind collision under the prefixed name is loud. *)
  ignore (R.histogram server "sessions.clash");
  let bad = R.create () in
  R.incr (R.counter bad "clash");
  Alcotest.check_raises "kind collision"
    (Invalid_argument
       "Obs.Registry: \"sessions.clash\" already registered with another kind")
    (fun () -> R.merge ~into:server ~prefix:"sessions." (R.snapshot bad))

(* The value parser: bytes survive a parse/print round trip — including
   control characters and the exact lexemes of numbers. *)
let test_json_value_roundtrip () =
  let module J = Obs.Json in
  let cases =
    [
      "{\"a\":[1,2.50,-0.125e2],\"b\":\"tab\\tnl\\nq\\\"\",\"c\":null}";
      "{\"ctl\":\"\\u0000\\u001f\\u0007\"}";
      "[true,false,[],{},\"\",1e-9,100000000000000000000]";
      "\"plain\"";
      "-0.0";
    ]
  in
  List.iter
    (fun s ->
      match J.parse s with
      | Ok v -> Alcotest.(check string) "byte-faithful" s (J.to_string v)
      | Error i -> Alcotest.failf "parse %s failed at %d" s i)
    cases;
  (* escape emits parseable text for every byte. *)
  let wild = String.init 256 Char.chr in
  (match J.parse (J.escape wild) with
  | Ok v ->
      Alcotest.(check (option string)) "escape round-trips all bytes"
        (Some wild) (J.to_string_opt v)
  | Error i -> Alcotest.failf "escaped string unparseable at %d" i);
  (* accessors *)
  match J.parse "{\"n\":3,\"f\":1.5,\"s\":\"x\",\"b\":true}" with
  | Error _ -> Alcotest.fail "parse failed"
  | Ok v ->
      Alcotest.(check (option int)) "int" (Some 3)
        (Option.bind (J.member "n" v) J.to_int_opt);
      Alcotest.(check (option (float 1e-9))) "float" (Some 1.5)
        (Option.bind (J.member "f" v) J.to_float_opt);
      Alcotest.(check (option string)) "string" (Some "x")
        (Option.bind (J.member "s" v) J.to_string_opt);
      Alcotest.(check (option bool)) "bool" (Some true)
        (Option.bind (J.member "b" v) J.to_bool_opt);
      Alcotest.(check bool) "missing member" true (J.member "zz" v = None)

(* {1 Timeline} *)

let fake_clock () =
  let t = ref 0.0 in
  ((fun () -> !t), fun v -> t := v)

let test_timeline_events () =
  let clock, set = fake_clock () in
  let tl = T.create ~clock ~capacity:16 () in
  set 1.0;
  T.begin_span tl ~track:0 "work";
  set 1.5;
  T.sample tl ~track:1 "depth" 42.0;
  set 2.0;
  T.instant tl ~track:0 "tick";
  set 3.0;
  T.end_span tl ~track:0 "work";
  Alcotest.(check int) "recorded" 4 (T.recorded tl);
  Alcotest.(check int) "dropped" 0 (T.dropped tl);
  Alcotest.(check (list int)) "tracks" [ 0; 1 ] (T.tracks tl);
  match T.events tl with
  | [ b; s; i; e ] ->
      Alcotest.(check string) "begin name" "work" b.T.name;
      Alcotest.(check bool) "begin kind" true (b.T.kind = T.Begin);
      Alcotest.(check (float 1e-9)) "ts relative to create" 1.0 b.T.ts;
      Alcotest.(check (float 1e-9)) "sample value" 42.0 s.T.value;
      Alcotest.(check int) "sample track" 1 s.T.track;
      Alcotest.(check bool) "instant kind" true (i.T.kind = T.Instant);
      Alcotest.(check bool) "end kind" true (e.T.kind = T.End);
      Alcotest.(check (float 1e-9)) "end ts" 3.0 e.T.ts
  | evs -> Alcotest.failf "expected 4 events, got %d" (List.length evs)

let test_timeline_ring () =
  let clock, set = fake_clock () in
  let tl = T.create ~clock ~capacity:4 () in
  for i = 1 to 10 do
    set (float_of_int i);
    T.sample tl ~track:0 "x" (float_of_int i)
  done;
  Alcotest.(check int) "recorded counts overwrites" 10 (T.recorded tl);
  Alcotest.(check int) "dropped" 6 (T.dropped tl);
  let vals = List.map (fun (e : T.event) -> e.T.value) (T.events tl) in
  Alcotest.(check (list (float 1e-9))) "newest window, oldest first"
    [ 7.0; 8.0; 9.0; 10.0 ] vals;
  let n = ref 0 in
  T.iter (fun _ -> incr n) tl;
  Alcotest.(check int) "iter over retained window" 4 !n

(* {1 Exporters + the JSON validator} *)

let test_json_validator () =
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "valid %s" s) true (Obs.Json.valid s))
    [
      "{}"; "[]"; "null"; "-1.5e-3"; "\"a\\u00e9\\n\"";
      "{\"a\":[1,2,{\"b\":false}],\"c\":null}";
    ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "invalid %s" s) false (Obs.Json.valid s))
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "{} trailing";
      "{\"a\" 1}"; "[01]";
    ]

let test_exporters () =
  let clock, set = fake_clock () in
  let tl = T.create ~clock ~capacity:8 () in
  T.begin_span tl ~track:0 "run";
  set 0.5;
  T.sample tl ~track:2 "q\"uote" 1.25;
  set 1.0;
  T.end_span tl ~track:0 "run";
  let trace = Obs.Export.chrome_trace ~process_name:"test" tl in
  Alcotest.(check bool) "chrome trace is valid JSON" true (Obs.Json.valid trace);
  Alcotest.(check bool) "has traceEvents" true (contains trace "traceEvents");
  let csv = Obs.Export.timeline_csv tl in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int)
    "csv: dropped line + header + one row per event" 5 (List.length lines);
  Alcotest.(check string) "csv dropped line" "# dropped=0" (List.hd lines);
  Alcotest.(check string) "csv header" "ts_s,track,kind,name,value"
    (List.nth lines 1);
  Alcotest.(check bool) "chrome trace carries dropped" true
    (contains trace "\"dropped\":\"0\"");
  let reg = R.create () in
  R.add (R.counter reg "n") 3;
  let mj = Obs.Export.metrics_json ~meta:[ ("proto", "tr\"ee") ] (R.snapshot reg) in
  Alcotest.(check bool) "metrics JSON valid" true (Obs.Json.valid mj)

(* Perfetto flow events: each stored child whose parent is also stored
   yields exactly one "s"/"f" pair sharing the child's node id; children
   whose parent missed the sampled store are skipped entirely rather than
   emitted as dangling halves. *)
let test_flow_events () =
  let module J = Obs.Json in
  let module L = Obs.Lineage in
  let clock, set = fake_clock () in
  let tl = T.create ~clock ~capacity:8 () in
  T.begin_span tl ~track:0 "run";
  set 1.0;
  T.end_span tl ~track:0 "run";
  (* Chain 1 -> 2 -> 3 plus an unrelated root 4: flows for children 2, 3. *)
  let lin = L.create ~sample_every:1 ~clock () in
  L.bind lin ~n_vertices:4 ~n_edges:4;
  L.note lin ~id:1 ~parent:0 ~depth:1 ~edge:(-1) ~vertex:0 ~track:0;
  L.note lin ~id:2 ~parent:1 ~depth:2 ~edge:0 ~vertex:1 ~track:0;
  L.note lin ~id:3 ~parent:2 ~depth:3 ~edge:1 ~vertex:2 ~track:1;
  L.note lin ~id:4 ~parent:0 ~depth:1 ~edge:(-1) ~vertex:3 ~track:0;
  let trace = Obs.Export.chrome_trace ~lineage:lin tl in
  Alcotest.(check bool) "trace with flows is valid JSON" true
    (Obs.Json.valid trace);
  let v = Result.get_ok (J.parse trace) in
  let evs =
    match J.member "traceEvents" v with
    | Some (J.Array evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let id_of ev =
    match J.member "id" ev with
    | Some (J.Number n) -> int_of_string n
    | _ -> Alcotest.fail "flow event without numeric id"
  in
  let starts = ref [] and finishes = ref [] in
  List.iter
    (fun ev ->
      match J.member "ph" ev with
      | Some (J.String "s") -> starts := id_of ev :: !starts
      | Some (J.String "f") ->
          (match J.member "bp" ev with
          | Some (J.String "e") -> ()
          | _ -> Alcotest.fail "\"f\" event without bp=e");
          finishes := id_of ev :: !finishes
      | _ -> ())
    evs;
  let sorted l = List.sort compare l in
  Alcotest.(check (list int)) "one pair per stored child" [ 2; 3 ]
    (sorted !starts);
  Alcotest.(check (list int)) "every \"s\" matched by an \"f\""
    (sorted !starts) (sorted !finishes);
  Alcotest.(check int) "flow ids unique" (List.length !starts)
    (List.length (List.sort_uniq compare !starts));
  Alcotest.(check bool) "otherData carries lineage_dropped" true
    (contains trace "\"lineage_dropped\":\"0\"");
  (* sample_every:2 stores ids {1, 3}; child 3's parent 2 is missing, so
     no flow events at all — never a dangling half. *)
  let part = L.create ~sample_every:2 ~clock () in
  L.bind part ~n_vertices:4 ~n_edges:4;
  L.note part ~id:1 ~parent:0 ~depth:1 ~edge:(-1) ~vertex:0 ~track:0;
  L.note part ~id:2 ~parent:1 ~depth:2 ~edge:0 ~vertex:1 ~track:0;
  L.note part ~id:3 ~parent:2 ~depth:3 ~edge:1 ~vertex:2 ~track:0;
  let trace2 = Obs.Export.chrome_trace ~lineage:part tl in
  Alcotest.(check bool) "partial-store trace valid" true
    (Obs.Json.valid trace2);
  Alcotest.(check bool) "no dangling flow halves" false
    (contains trace2 "\"ph\":\"s\"")

(* {1 Trace satellites: growable storage, iter/to_csv, per-vertex tallies} *)

let mk_event step fv fp tv tp bits : E.event =
  {
    E.step;
    seq = step;
    from_vertex = fv;
    from_port = fp;
    to_vertex = tv;
    to_port = tp;
    bits;
  }

let test_trace_accessors () =
  let tr = Runtime.Trace.create () in
  (* Push past the initial capacity to exercise the doubling. *)
  for i = 0 to 40 do
    Runtime.Trace.hook tr (mk_event i (i mod 3) (i mod 2) ((i + 1) mod 4) 0 5) ()
  done;
  Alcotest.(check int) "length" 41 (Runtime.Trace.length tr);
  let via_iter = ref [] in
  Runtime.Trace.iter (fun ev -> via_iter := ev :: !via_iter) tr;
  Alcotest.(check bool) "iter agrees with events" true
    (List.rev !via_iter = Runtime.Trace.events tr);
  let csv = Runtime.Trace.to_csv tr in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "csv rows" 42 (List.length lines);
  Alcotest.(check string) "csv header"
    "step,from_vertex,from_port,to_vertex,to_port,bits" (List.hd lines);
  Alcotest.(check string) "csv first row" "0,0,0,1,0,5" (List.nth lines 1);
  let rendered = Runtime.Trace.render ~limit:2 tr in
  Alcotest.(check bool) "render truncation notice" true
    (contains rendered "39 more deliveries")

let test_trace_first_use_and_receives () =
  let tr = Runtime.Trace.create () in
  List.iter
    (fun (s, fv, fp, tv) -> Runtime.Trace.hook tr (mk_event s fv fp tv 0 1) ())
    [ (0, 0, 0, 1); (1, 0, 1, 2); (2, 0, 0, 1); (3, 1, 0, 2); (4, 1, 0, 2) ];
  Alcotest.(check (list (pair (pair int int) int)))
    "edge_first_use keeps first step, first-use order"
    [ ((0, 0), 0); ((0, 1), 1); ((1, 0), 3) ]
    (Runtime.Trace.edge_first_use tr);
  Alcotest.(check (list int)) "receives_per_vertex" [ 0; 2; 3 ]
    (Array.to_list (Runtime.Trace.receives_per_vertex tr ~n:3));
  Alcotest.(check (list int)) "sends_per_vertex" [ 3; 2; 0 ]
    (Array.to_list (Runtime.Trace.sends_per_vertex tr ~n:3))

let test_trace_on_real_run () =
  let module En = Runtime.Engine.Make (Anonet.Tree_broadcast) in
  let g = F.comb 6 in
  let tr = Runtime.Trace.create () in
  let r = En.run ~on_deliver:(Runtime.Trace.hook tr) g in
  Alcotest.check outcome "terminated" E.Terminated r.E.outcome;
  Alcotest.(check int) "trace caught every delivery" r.E.deliveries
    (Runtime.Trace.length tr);
  (* On a grounded tree every edge carries exactly one message (Lemma 3.3),
     so first-use covers every edge and receive counts equal in-degrees. *)
  Alcotest.(check int) "every edge used"
    (Digraph.n_edges g)
    (List.length (Runtime.Trace.edge_first_use tr));
  let recv = Runtime.Trace.receives_per_vertex tr ~n:(Digraph.n_vertices g) in
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "receives at %d = in-degree" v)
        (Digraph.in_degree g v) recv.(v))
    (Digraph.vertices g);
  Alcotest.(check int) "receives sum to deliveries" r.E.deliveries
    (Array.fold_left ( + ) 0 recv)

(* {1 Percentile boundary regression (satellite)} *)

let test_percentile_boundaries () =
  let feq = Alcotest.(check (float 1e-9)) in
  feq "p100 lands on the last element" 9.0
    (Metrics.percentile 100.0 [ 1.0; 5.0; 9.0 ]);
  feq "p0 lands on the first" 1.0 (Metrics.percentile 0.0 [ 1.0; 5.0; 9.0 ]);
  feq "singleton at p100" 7.0 (Metrics.percentile 100.0 [ 7.0 ]);
  feq "singleton at p0" 7.0 (Metrics.percentile 0.0 [ 7.0 ]);
  (* A p arbitrarily close to 100 must stay in bounds. *)
  let xs = List.init 1000 (fun i -> float_of_int i) in
  feq "p99.9999999 bounded" 999.0
    (Float.round (Metrics.percentile 99.9999999 xs))

(* {1 Reconciliation: Obs counters vs engine/explorer/par reports} *)

let counter_of snap name =
  match R.find snap name with
  | Some v -> v
  | None -> Alcotest.failf "counter %s missing" name

let test_engine_reconciles_fault_free () =
  let module En = Runtime.Engine.Make (Anonet.General_broadcast) in
  let g =
    F.random_digraph (Prng.create 11) ~n:24 ~extra_edges:24 ~back_edges:6
      ~t_edge_prob:0.2
  in
  let o = Obs.create ~sample_every:7 () in
  let r = En.run ~obs:o g in
  let snap = R.snapshot o.Obs.registry in
  Alcotest.(check int) "deliveries" r.E.deliveries (counter_of snap "engine.deliveries");
  Alcotest.(check int) "total bits" r.E.total_bits (counter_of snap "engine.total_bits");
  Alcotest.(check (option int)) "residual gauge is zero" (Some 0)
    (R.find snap "engine.cut_residual");
  (match R.find_histogram snap "engine.message_bits" with
  | Some (count, sum, _) ->
      Alcotest.(check int) "histogram count = deliveries" r.E.deliveries count;
      Alcotest.(check int) "histogram sum = total bits" r.E.total_bits sum
  | None -> Alcotest.fail "message_bits histogram missing");
  Alcotest.(check bool) "trace of the run is valid JSON" true
    (Obs.Json.valid (Obs.Export.chrome_trace o.Obs.timeline))

let prop_engine_reconciles_under_faults =
  qcheck_to_alcotest ~count:30 "obs counters == report under faults"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let module En = Runtime.Engine.Make (Anonet.General_broadcast) in
      let g =
        F.random_digraph (Prng.create seed) ~n:14 ~extra_edges:10 ~back_edges:4
          ~t_edge_prob:0.25
      in
      let faults =
        Runtime.Faults.create ~drop:0.08 ~duplicate:0.15 ~max_delay:2
          ~corrupt:0.05 ~seed ()
      in
      let o = Obs.create ~sample_every:13 () in
      let r = En.run ~faults ~step_limit:200_000 ~obs:o g in
      let snap = R.snapshot o.Obs.registry in
      let f = r.E.fault_stats in
      counter_of snap "engine.deliveries" = r.E.deliveries
      && counter_of snap "engine.total_bits" = r.E.total_bits
      && counter_of snap "engine.dropped_copies" = f.E.dropped_copies
      && counter_of snap "engine.extra_copies" = f.E.extra_copies
      && counter_of snap "engine.delayed_copies" = f.E.delayed_copies
      && counter_of snap "engine.corrupted_deliveries" = f.E.corrupted_deliveries
      && counter_of snap "engine.garbled_drops" = f.E.garbled_drops)

let test_obs_accumulates_across_runs () =
  let module En = Runtime.Engine.Make (Anonet.Tree_broadcast) in
  let g = F.comb 8 in
  let o = Obs.create ~sample_every:5 () in
  let r1 = En.run ~obs:o g in
  let r2 = En.run ~obs:o g in
  let snap = R.snapshot o.Obs.registry in
  Alcotest.(check int) "two runs accumulate"
    (r1.E.deliveries + r2.E.deliveries)
    (counter_of snap "engine.deliveries")

(* Both engine paths publish [engine.*] from the run's own tallies: a
   plain Flood run (certified onto the fast path) and the same run with
   [~verify_codec] (the generic path) agree with each other and with the
   report.  A fault-free FIFO run pops a copy on every loop turn, so the
   [i]-th call of [stop] comes after [i] deliveries; the registry must
   read exactly that at every sample point and hold the last sample
   point's count in between. *)
let test_engine_publishes_at_sample_points () =
  let module En = Runtime.Engine.Make (Anonet.Flood) in
  let g =
    F.random_digraph (Prng.create 5) ~n:40 ~extra_edges:60 ~back_edges:12
      ~t_edge_prob:0.1
  in
  let every = 7 in
  let run ~verify_codec =
    let o = Obs.create ~sample_every:every () in
    let c = R.counter o.Obs.registry "engine.deliveries" in
    let seen = ref [] in
    let stop () =
      seen := R.value c :: !seen;
      false
    in
    let r = En.run ~verify_codec ~stop ~obs:o g in
    let seen = List.rev !seen in
    Alcotest.(check (list int)) "deliveries published at each stop call"
      (List.mapi (fun i _ -> i - (i mod every)) seen)
      seen;
    Alcotest.(check bool) "several sample points" true
      (List.length seen > 3 * every);
    let snap = R.snapshot o.Obs.registry in
    let counters =
      List.map (counter_of snap)
        [ "engine.deliveries"; "engine.total_bits"; "engine.sends" ]
    in
    Alcotest.(check (list int)) "counters = report"
      [ r.E.deliveries; r.E.total_bits; r.E.deliveries + r.E.final_in_flight ]
      counters;
    let hist = R.find_histogram snap "engine.message_bits" in
    (match hist with
    | Some (count, sum, _) ->
        Alcotest.(check (pair int int)) "message_bits = report"
          (r.E.deliveries, r.E.total_bits) (count, sum)
    | None -> Alcotest.fail "message_bits histogram missing");
    (counters, hist)
  in
  let fast = run ~verify_codec:false and generic = run ~verify_codec:true in
  Alcotest.(check bool) "fast and generic paths publish the same" true
    (fast = generic)

let test_explore_reconciles () =
  let cases = Anonet.Check_suite.cases ~max_edges:6 () in
  let c = List.hd cases in
  let o = Obs.create ~sample_every:16 () in
  let r = c.Anonet.Check_suite.c_explore ~obs:o () in
  let snap = R.snapshot o.Obs.registry in
  let st = r.Runtime.Explore.stats in
  Alcotest.(check int) "states" st.Runtime.Explore.states
    (counter_of snap "explore.states");
  Alcotest.(check int) "transitions" st.Runtime.Explore.transitions
    (counter_of snap "explore.transitions");
  Alcotest.(check int) "pruned_sleep" st.Runtime.Explore.pruned_sleep
    (counter_of snap "explore.pruned_sleep");
  Alcotest.(check int) "pruned_memo" st.Runtime.Explore.pruned_memo
    (counter_of snap "explore.pruned_memo");
  Alcotest.(check int) "pruned_dup" st.Runtime.Explore.pruned_dup
    (counter_of snap "explore.pruned_dup");
  Alcotest.(check int) "walks" st.Runtime.Explore.walks
    (counter_of snap "explore.walks")

let test_obs_create_validates () =
  Alcotest.check_raises "sample_every < 1"
    (Invalid_argument "Obs.create: sample_every < 1") (fun () ->
      ignore (Obs.create ~sample_every:0 ()))

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "cells" `Quick test_registry_cells;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "snapshot + diff + json" `Quick test_snapshot_diff;
          Alcotest.test_case "merge rollup" `Quick test_merge_rollup;
          Alcotest.test_case "json value round-trip" `Quick test_json_value_roundtrip;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "events" `Quick test_timeline_events;
          Alcotest.test_case "ring wrap" `Quick test_timeline_ring;
        ] );
      ( "export",
        [
          Alcotest.test_case "json validator" `Quick test_json_validator;
          Alcotest.test_case "chrome trace + csv + metrics" `Quick test_exporters;
          Alcotest.test_case "flow-event pairing" `Quick test_flow_events;
        ] );
      ( "trace",
        [
          Alcotest.test_case "growable accessors" `Quick test_trace_accessors;
          Alcotest.test_case "first-use + per-vertex" `Quick
            test_trace_first_use_and_receives;
          Alcotest.test_case "real run" `Quick test_trace_on_real_run;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "percentile boundaries" `Quick
            test_percentile_boundaries;
        ] );
      ( "reconciliation",
        [
          Alcotest.test_case "engine fault-free" `Quick
            test_engine_reconciles_fault_free;
          prop_engine_reconciles_under_faults;
          Alcotest.test_case "accumulates across runs" `Quick
            test_obs_accumulates_across_runs;
          Alcotest.test_case "engine publishes at sample points" `Quick
            test_engine_publishes_at_sample_points;
          Alcotest.test_case "explore" `Quick test_explore_reconciles;
          Alcotest.test_case "create validates" `Quick test_obs_create_validates;
        ] );
    ]
