(* The benchmark's vocabulary: every workload and metric name it emits,
   with unit and direction.  BENCHMARK.json at the repository root carries
   the same names plus the regression bounds; the tier-1 test in test/
   keeps the two equal. *)

type better = Higher | Lower

type metric = { name : string; unit_ : string; better : better }

let workloads = [ "flood-layered"; "general-cyclic"; "serve-mixed"; "sweep-faults" ]

let m name unit_ better = { name; unit_; better }

(* Reported by every workload with tracing off.  A "run" is one protocol
   execution: an engine run, a campaign cell seed, or a serve session. *)
let end_to_end =
  [
    m "deliveries_per_s" "1/s" Higher;
    m "runs_per_s" "1/s" Higher;
    m "peak_rss_mb" "MB" Lower;
    m "setup_s" "s" Lower;
  ]

(* Reported by every workload from the traced round; a layer the workload
   does not exercise reads 0. *)
let per_layer =
  [
    m "runtime.engine.fifo_ns_per_delivery" "ns" Lower;
    m "runtime.engine.nonfifo_ns_per_delivery" "ns" Lower;
    m "runtime.engine.self_share" "fraction" Lower;
    m "runtime.engine.alloc_words_per_delivery" "words" Lower;
    m "runtime.engine.max_in_flight" "count" Lower;
    m "anonet.flood.receive_ns" "ns" Lower;
    m "anonet.general.receive_ns" "ns" Lower;
    m "anonet.general.encode_ns" "ns" Lower;
    m "anonet.general.state_bits_ns" "ns" Lower;
    m "anonet.general.receive_calls" "count" Lower;
    m "anonet.general.share" "fraction" Lower;
    m "anonet.bits_per_message" "bits" Lower;
    m "anonet.total_bits" "bits" Lower;
    m "intervals.iset.union_ns" "ns" Lower;
    m "intervals.iset.diff_ns" "ns" Lower;
    m "intervals.iset.inter_ns" "ns" Lower;
    m "intervals.iset.canonical_partition_ns" "ns" Lower;
    m "intervals.iset.operand_count_mean" "count" Lower;
    m "intervals.interval.split_ns" "ns" Lower;
    m "exact.dyadic.compare_ns" "ns" Lower;
    m "exact.dyadic.add_ns" "ns" Lower;
    m "exact.dyadic.endpoint_bits_mean" "bits" Lower;
    m "bignat.add_ns" "ns" Lower;
    m "bignat.compare_ns" "ns" Lower;
    m "bitio.iset_write_ns_per_bit" "ns" Lower;
    m "bitio.iset_read_ns_per_bit" "ns" Lower;
    m "digraph.families.build_ms" "ms" Lower;
    m "serve.server.boot_ms" "ms" Lower;
    m "serve.server.submit_us_p50" "us" Lower;
    m "serve.server.submit_us_p99" "us" Lower;
    m "serve.server.result_us_p50" "us" Lower;
    m "serve.await_ms_p50" "ms" Lower;
    m "serve.session_ms_p50" "ms" Lower;
    m "serve.session_ms_p99" "ms" Lower;
    m "serve.service_ms_mean" "ms" Lower;
    m "serve.wait_ms_p50" "ms" Lower;
    m "serve.journal.appends_per_session" "count" Lower;
    m "serve.journal.fsyncs_per_session" "count" Lower;
    m "serve.journal.bytes_per_session" "bytes" Lower;
    m "runtime.campaign.shrink_runs" "count" Lower;
    m "runtime.campaign.bare_violations" "count" Lower;
    m "par.pool.utilization" "fraction" Higher;
    m "runtime.faults.ns_per_delivery_faulty" "ns" Lower;
    m "runtime.faults.ns_per_delivery_clean" "ns" Lower;
    m "trace.overhead" "fraction" Lower;
  ]

let find metrics name = List.find_opt (fun x -> x.name = name) metrics

(* What BENCHMARK.json declares. *)
type declared = {
  d_workloads : string list;
  d_end_to_end : (metric * float) list;  (** With its regression bound. *)
  d_per_layer : metric list;
}

let of_benchmark_json text =
  let module J = Obs.Json in
  let str key o = Option.bind (J.member key o) J.to_string_opt in
  let entries key v =
    match J.member key v with Some (J.Array l) -> l | _ -> []
  in
  let metric o =
    match (str "name" o, str "unit" o, str "better" o) with
    | Some name, Some unit_, Some "higher" -> Some { name; unit_; better = Higher }
    | Some name, Some unit_, Some "lower" -> Some { name; unit_; better = Lower }
    | _ -> None
  in
  let all f l =
    let xs = List.filter_map f l in
    if List.length xs = List.length l then Some xs else None
  in
  match J.parse text with
  | Error pos -> Error (Printf.sprintf "not JSON (byte %d)" pos)
  | Ok v -> (
      let bounded o =
        match (metric o, Option.bind (J.member "bound" o) J.to_float_opt) with
        | Some m, Some b -> Some (m, b)
        | _ -> None
      in
      match
        ( all (str "name") (entries "workloads" v),
          all bounded (entries "end_to_end" v),
          all metric (entries "per_layer" v) )
      with
      | Some d_workloads, Some d_end_to_end, Some d_per_layer ->
          Ok { d_workloads; d_end_to_end; d_per_layer }
      | _ -> Error "malformed workload or metric entry")
