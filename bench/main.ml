(* Experiment harness: regenerates the quantitative content of every result
   in the paper (DESIGN.md's E1..E10), times each protocol ("timing") and
   runs the JSON benches E15..E22.  Every wall-clock number goes through
   [Timer].

   Usage:
     dune exec bench/main.exe              # all experiment tables + timing
     dune exec bench/main.exe -- e4 e7     # selected tables
     dune exec bench/main.exe -- timing    # per-protocol wall clock only
     dune exec bench/main.exe -- campaign  # fault campaign, JSON on stdout
     dune exec bench/main.exe -- check     # model-checking sweep, JSON on stdout
     dune exec bench/main.exe -- throughput        # E15 pool sweeps, JSON
     dune exec bench/main.exe -- throughput:small  # CI-sized variant *)

module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine
module LB = Anonet.Lower_bounds
module Is = Intervals.Iset

let pf = Printf.printf

let header id title =
  pf "\n================================================================\n";
  pf "%s  %s\n" id title;
  pf "================================================================\n"

let log2f x = log (float_of_int x) /. log 2.0

let outcome_str = function
  | E.Terminated -> "terminated"
  | E.Quiescent -> "quiescent"
  | E.Step_limit -> "step-limit"
  | E.Cancelled -> "cancelled"

(* A [Timer] measurement of [f] that keeps [f]'s last result in [last]. *)
let timed ?batch last f () = Timer.seconds ?batch (fun () -> last := Some (f ()))

(* {1 E1 — Theorem 3.1: grounded-tree broadcast upper bound} *)

let e1 () =
  header "E1" "Tree broadcast on random grounded trees (Thm 3.1: O(|E| log |E|))";
  pf "%8s %8s %10s %14s %8s %12s\n" "n" "|E|" "bits" "bits/ElogE" "bw" "bw-log2E";
  List.iter
    (fun n ->
      let samples =
        List.map
          (fun seed ->
            let g =
              F.random_grounded_tree (Prng.create (1000 + seed)) ~n ~t_edge_prob:0.3
            in
            let st = Anonet.broadcast_tree g in
            assert (st.outcome = E.Terminated);
            ( float_of_int (G.n_edges g),
              float_of_int st.total_bits,
              float_of_int st.max_edge_bits ))
          [ 1; 2; 3 ]
      in
      let e = Metrics.mean (List.map (fun (a, _, _) -> a) samples) in
      let bits = Metrics.mean (List.map (fun (_, b, _) -> b) samples) in
      let bw = Metrics.mean (List.map (fun (_, _, c) -> c) samples) in
      pf "%8d %8.0f %10.0f %14.3f %8.1f %12.1f\n" n e bits
        (bits /. (e *. (log e /. log 2.0)))
        bw
        (bw -. (log e /. log 2.0)))
    [ 8; 16; 32; 64; 128; 256; 512; 1024; 2048 ]

(* {1 E2 — Theorem 3.2: comb lower bound} *)

let e2 () =
  header "E2" "Comb G_n alphabet growth (Thm 3.2: Omega(|E| log |E|))";
  pf "%8s %8s %10s %10s %14s %8s\n" "n" "|E|" "distinct" "bits" "bits/ElogE" "bw";
  List.iter
    (fun n ->
      let r = LB.comb_symbols n in
      pf "%8d %8d %10d %10d %14.3f %8d\n" n r.LB.edges r.LB.distinct_symbols
        r.LB.total_bits
        (float_of_int r.LB.total_bits
        /. (float_of_int r.LB.edges *. log2f r.LB.edges))
        r.LB.max_edge_bits)
    [ 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

(* {1 E3 — Section 3.3: DAG broadcast upper bound} *)

let e3 () =
  header "E3" "DAG broadcast on random DAGs (Sec 3.3: O(|E|) bandwidth, one msg/edge)";
  pf "%8s %8s %10s %10s %12s %12s\n" "n" "|E|" "msgs" "maxmsg" "maxmsg/E" "bits";
  List.iter
    (fun n ->
      let samples =
        List.map
          (fun seed ->
            let prng = Prng.create (2000 + seed) in
            let g = F.random_dag prng ~n ~extra_edges:(2 * n) ~t_edge_prob:0.2 in
            let r = Anonet.Dag_engine.run g in
            assert (r.outcome = E.Terminated);
            ( float_of_int (G.n_edges g),
              float_of_int r.deliveries,
              float_of_int r.max_message_bits,
              float_of_int r.total_bits ))
          [ 1; 2; 3 ]
      in
      let e = Metrics.mean (List.map (fun (a, _, _, _) -> a) samples) in
      let msgs = Metrics.mean (List.map (fun (_, b, _, _) -> b) samples) in
      let mm = Metrics.mean (List.map (fun (_, _, c, _) -> c) samples) in
      let bits = Metrics.mean (List.map (fun (_, _, _, d) -> d) samples) in
      pf "%8d %8.0f %10.0f %10.1f %12.4f %12.0f\n" n e msgs mm (mm /. e) bits)
    [ 8; 16; 32; 64; 128; 256; 512 ]

(* {1 E4 — Theorem 3.8: commodity-preserving lower bound} *)

let e4 () =
  header "E4" "Skeleton family, all subsets (Thm 3.8: 2^n distinct quantities)";
  pf "%4s %10s %12s %10s %10s | %12s %10s\n" "n" "subsets" "distinct" "minbits"
    "maxbits" "naive-dist" "naive-max";
  List.iter
    (fun n ->
      let p = LB.skeleton_quantities_pow2 ~n in
      let q = LB.skeleton_quantities_naive ~n in
      pf "%4d %10d %12d %10d %10d | %12d %10d\n" n p.LB.subsets
        p.LB.distinct_quantities p.LB.min_quantity_bits p.LB.max_quantity_bits
        q.LB.distinct_quantities q.LB.max_quantity_bits)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

(* {1 E5 — Theorems 4.2/4.3: general broadcast} *)

(* E5's graph sizes and seeds, shared with its FITS line. *)
let e5_sizes = [ 8; 16; 32; 64; 128; 256; 512; 1024; 2560; 5120 ]
let e5_seeds = [ 1; 2; 3 ]

let e5_run n seed =
  let g =
    F.random_digraph (Prng.create (3000 + seed)) ~n ~extra_edges:n
      ~back_edges:(n / 4) ~t_edge_prob:0.2
  in
  let st = Anonet.broadcast_general g in
  assert (st.outcome = E.Terminated);
  (g, st)

let e5 () =
  header "E5" "General broadcast on random digraphs (Thm 4.2: O(|E|^2 |V| log d))";
  pf "%8s %8s %8s %10s %12s %10s %14s\n" "n" "|E|" "|V|" "msgs" "bits" "maxmsg"
    "bits/E2VlogD";
  List.iter
    (fun n ->
      let samples =
        List.map
          (fun seed ->
            let g, st = e5_run n seed in
            let e = float_of_int (G.n_edges g) in
            let v = float_of_int (G.n_vertices g) in
            let logd = Float.max 1.0 (log2f (G.max_out_degree g)) in
            ( e,
              v,
              float_of_int st.deliveries,
              float_of_int st.total_bits,
              float_of_int st.max_message_bits,
              float_of_int st.total_bits /. (e *. e *. v *. logd) ))
          e5_seeds
      in
      let pick f = Metrics.mean (List.map f samples) in
      pf "%8d %8.0f %8.0f %10.0f %12.0f %10.0f %14.6f\n" n
        (pick (fun (e, _, _, _, _, _) -> e))
        (pick (fun (_, v, _, _, _, _) -> v))
        (pick (fun (_, _, m, _, _, _) -> m))
        (pick (fun (_, _, _, b, _, _) -> b))
        (pick (fun (_, _, _, _, mm, _) -> mm))
        (pick (fun (_, _, _, _, _, r) -> r)))
    e5_sizes

(* {1 E6 — Theorem 5.1: labeling} *)

let e6 () =
  header "E6" "Labeling on random digraphs (Thm 5.1: labels O(|V| log d) bits)";
  pf "%8s %8s %8s %12s %12s %14s\n" "n" "|E|" "|V|" "bits" "maxlabel" "maxlbl/VlogD";
  List.iter
    (fun n ->
      let samples =
        List.map
          (fun seed ->
            let prng = Prng.create (4000 + seed) in
            let g =
              F.random_digraph prng ~n ~extra_edges:n ~back_edges:(n / 4)
                ~t_edge_prob:0.2
            in
            let st, labels = Anonet.assign_labels g in
            assert (st.outcome = E.Terminated);
            let max_label =
              Array.fold_left (fun acc l -> max acc (Is.size_bits l)) 0 labels
            in
            let v = float_of_int (G.n_vertices g) in
            let logd = Float.max 1.0 (log2f (G.max_out_degree g)) in
            ( float_of_int (G.n_edges g),
              v,
              float_of_int st.total_bits,
              float_of_int max_label,
              float_of_int max_label /. (v *. logd) ))
          [ 1; 2; 3 ]
      in
      let pick f = Metrics.mean (List.map f samples) in
      pf "%8d %8.0f %8.0f %12.0f %12.1f %14.4f\n" n
        (pick (fun (e, _, _, _, _) -> e))
        (pick (fun (_, v, _, _, _) -> v))
        (pick (fun (_, _, b, _, _) -> b))
        (pick (fun (_, _, _, ml, _) -> ml))
        (pick (fun (_, _, _, _, r) -> r)))
    [ 8; 16; 32; 64; 128; 256 ]

(* {1 E7 — Theorem 5.2: label lower bound} *)

let e7 () =
  header "E7" "Pruned trees (Thm 5.2: Omega(h log d)-bit labels on h+3 vertices)";
  pf "%8s %8s %10s %12s %18s\n" "height" "degree" "vertices" "labelbits"
    "bits/(h*log(d+1))";
  List.iter
    (fun (h, d) ->
      let r = LB.pruned_label ~height:h ~degree:d in
      pf "%8d %8d %10d %12d %18.3f\n" h d r.LB.vertices r.LB.label_bits
        (float_of_int r.LB.label_bits /. (float_of_int h *. log2f (d + 1))))
    [
      (2, 2); (4, 2); (8, 2); (16, 2); (32, 2); (64, 2);
      (8, 4); (8, 8); (8, 16); (8, 32);
      (16, 8); (32, 8);
    ];
  pf "\nPruning argument check (full-tree leaf label = pruned-tree leaf label):\n";
  List.iter
    (fun (h, d) ->
      let full_l, pruned_l = LB.full_vs_pruned_leaf_labels ~height:h ~degree:d in
      pf "  h=%d d=%d  equal=%b  label=%s\n" h d (Is.equal full_l pruned_l)
        (Is.to_string pruned_l))
    [ (2, 2); (3, 2); (4, 2); (2, 3); (3, 3); (2, 4) ]

(* {1 E8 — mapping} *)

let e8 () =
  header "E8" "Topology mapping on random digraphs (Sec 6 extension)";
  pf "%8s %8s %12s %12s %10s %12s\n" "n" "|E|" "label-bits" "map-bits" "overhead"
    "isomorphic";
  List.iter
    (fun n ->
      let prng = Prng.create (5000 + n) in
      let g =
        F.random_digraph prng ~n ~extra_edges:n ~back_edges:(n / 4) ~t_edge_prob:0.2
      in
      let lst, _ = Anonet.assign_labels g in
      let mst, map = Anonet.map_network g in
      let iso =
        match map with Ok m -> Anonet.Mapping.map_isomorphic m g | Error _ -> false
      in
      pf "%8d %8d %12d %12d %9.1fx %12b\n" n (G.n_edges g) lst.total_bits
        mst.total_bits
        (float_of_int mst.total_bits /. float_of_int (max 1 lst.total_bits))
        iso)
    [ 8; 16; 32; 64; 128 ]

(* {1 E9 — splitting-rule ablation} *)

let e9 () =
  header "E9" "Ablation: power-of-two vs naive x/d splitting (Sec 3.1)";
  pf "%8s %8s %12s %12s %10s %10s\n" "n" "|E|" "pow2-bits" "naive-bits" "pow2-bw"
    "naive-bw";
  List.iter
    (fun n ->
      let g = F.random_grounded_tree (Prng.create (6000 + n)) ~n ~t_edge_prob:0.3 in
      let a = Anonet.broadcast_tree g in
      let b = Anonet.broadcast_tree_naive g in
      pf "%8d %8d %12d %12d %10d %10d\n" n (G.n_edges g) a.total_bits b.total_bits
        a.max_edge_bits b.max_edge_bits)
    [ 16; 32; 64; 128; 256; 512; 1024 ]

(* {1 E10 — scheduler ablation} *)

let e10 () =
  header "E10" "Ablation: asynchronous schedules (correctness is schedule-free)";
  let prng = Prng.create 777 in
  let g =
    F.random_digraph prng ~n:100 ~extra_edges:100 ~back_edges:25 ~t_edge_prob:0.2
  in
  pf "network: |V|=%d |E|=%d\n" (G.n_vertices g) (G.n_edges g);
  pf "%16s %12s %10s %12s %10s\n" "scheduler" "outcome" "msgs" "bits" "maxmsg";
  List.iter
    (fun (name, sch) ->
      let st = Anonet.broadcast_general ~scheduler:sch g in
      pf "%16s %12s %10d %12d %10d\n" name (outcome_str st.outcome) st.deliveries
        st.total_bits st.max_message_bits)
    [
      ("fifo", Runtime.Scheduler.Fifo);
      ("lifo", Runtime.Scheduler.Lifo);
      ("random-1", Runtime.Scheduler.Random (Prng.create 1));
      ("random-2", Runtime.Scheduler.Random (Prng.create 2));
      ("random-3", Runtime.Scheduler.Random (Prng.create 3));
      ("starve-t", Runtime.Scheduler.Edge_priority (fun e -> -e));
      ("rush-t", Runtime.Scheduler.Edge_priority (fun e -> e));
    ]

(* {1 E11 — synchronous time complexity} *)

module Sync_general = Runtime.Engine.Make (Anonet.General_broadcast)
module Sync_tree = Runtime.Engine.Make (Anonet.Tree_broadcast)

let e11 () =
  header "E11" "Synchronous rounds (Sec 2 extension: time complexity)";
  pf "-- paths (rounds should be exactly depth = n+1) --\n";
  pf "%8s %8s %8s\n" "n" "rounds" "msgs";
  List.iter
    (fun n ->
      let r = Sync_tree.run ~scheduler:Rounds (F.path n) in
      assert (r.outcome = E.Terminated);
      pf "%8d %8d %8d\n" n r.rounds r.deliveries)
    [ 4; 16; 64; 256 ];
  pf "\n-- random digraphs (general protocol; rounds ~ diameter-ish) --\n";
  pf "%8s %8s %8s %8s %10s\n" "n" "|V|" "|E|" "rounds" "msgs";
  List.iter
    (fun n ->
      let prng = Prng.create (7000 + n) in
      let g =
        F.random_digraph prng ~n ~extra_edges:n ~back_edges:(n / 4) ~t_edge_prob:0.2
      in
      let r = Sync_general.run ~scheduler:Rounds g in
      assert (r.outcome = E.Terminated);
      pf "%8d %8d %8d %8d %10d\n" n (G.n_vertices g) (G.n_edges g) r.rounds
        r.deliveries)
    [ 16; 32; 64; 128; 256 ]

(* {1 E12 — channel-fault ablation} *)

let e12 () =
  header "E12" "Ablation: channel faults (safety under drops and duplication)";
  let trials = 60 in
  let tally name run =
    let term_ok = ref 0 and term_bad = ref 0 and quiescent = ref 0 in
    for seed = 1 to trials do
      let prng = Prng.create (8000 + seed) in
      let g =
        F.random_digraph prng ~n:20 ~extra_edges:10 ~back_edges:5 ~t_edge_prob:0.25
      in
      let outcome', visited = run seed g in
      match outcome' with
      | E.Terminated -> if visited then incr term_ok else incr term_bad
      | E.Quiescent -> incr quiescent
      | E.Step_limit | E.Cancelled -> ()
    done;
    pf "%34s %10d %12d %12d\n" name !term_ok !term_bad !quiescent
  in
  pf "%34s %10s %12s %12s   (over %d random digraphs)\n" "protocol+fault" "term-ok"
    "FALSE-term" "no-term" trials;
  let visited_of (r : _ E.report) = Array.for_all (fun v -> v) r.visited in
  tally "general, drop 15%" (fun seed g ->
      let faults = Runtime.Faults.create ~drop:0.15 ~seed () in
      let r = Anonet.General_engine.run ~faults g in
      (r.outcome, visited_of r));
  tally "general, duplicate 30%" (fun seed g ->
      let faults = Runtime.Faults.create ~duplicate:0.3 ~seed () in
      let r = Anonet.General_engine.run ~faults g in
      (r.outcome, visited_of r));
  tally "mapping, duplicate 30%" (fun seed g ->
      let faults = Runtime.Faults.create ~duplicate:0.3 ~seed () in
      let r = Anonet.Mapping_engine.run ~faults g in
      (r.outcome, visited_of r));
  tally "tree(on its trees), duplicate 30%" (fun seed _g ->
      let prng = Prng.create (9000 + seed) in
      let g = F.random_grounded_tree prng ~n:20 ~t_edge_prob:0.3 in
      let faults = Runtime.Faults.create ~duplicate:0.3 ~seed () in
      let r = Anonet.Tree_engine.run ~faults g in
      (r.outcome, visited_of r));
  pf "\nReading: FALSE-term > 0 under duplication shows the exactly-once\n";
  pf "channel assumption is load-bearing for every protocol except mapping,\n";
  pf "whose per-edge adjacency facts gate termination; drops only ever\n";
  pf "convert termination into no-termination (safety preserved).\n"

(* {1 E13 — the exponential label gap (conclusion)} *)

let e13 () =
  header "E13" "Label-length gap: undirected O(log|V|) vs directed Omega(|V| log d)";
  pf "%8s %18s %16s %8s\n" "|V|" "undirected-bits" "directed-bits" "ratio";
  List.iter
    (fun v ->
      let n = v - 2 in
      let g = F.bidirected_random (Prng.create (77 + n)) ~n ~extra_edges:n in
      let r = Anonet.Undirected_engine.run g in
      assert (r.outcome = E.Terminated);
      let und =
        List.fold_left
          (fun acc w ->
            match Anonet.Undirected_labeling.vertex_id r.states.(w) with
            | Some i -> max acc (Bitio.Codes.gamma0_size i)
            | None -> acc)
          0 (G.internal_vertices g)
      in
      let dir = (LB.pruned_label ~height:(v - 3) ~degree:2).LB.label_bits in
      pf "%8d %18d %16d %8.1f\n" v und dir (float_of_int dir /. float_of_int und))
    [ 8; 16; 32; 64; 128; 256; 512; 1024; 2560 ];
  pf "\nBoth columns label a |V|-vertex anonymous network; the undirected\n";
  pf "token walk has feedback (it can reply over the edge a message came\n";
  pf "from), the directed pruned family cannot — the paper's exponential\n";
  pf "gap (conclusion, Section 6) in one table.\n"

(* {1 Power-law fits (printed after the sweeps)} *)

let fits () =
  header "FITS" "Measured power-law exponents vs the paper's bounds";
  let tree_pts =
    List.map
      (fun n ->
        let g = F.random_grounded_tree (Prng.create (1000 + n)) ~n ~t_edge_prob:0.3 in
        let st = Anonet.broadcast_tree g in
        (float_of_int (G.n_edges g), float_of_int st.total_bits))
      [ 16; 32; 64; 128; 256; 512; 1024; 2048 ]
  in
  let f = Metrics.loglog_fit tree_pts in
  pf "E1 tree total bits ~ |E|^k      : k = %.3f (bound: 1 + o(1), R2=%.3f)\n"
    f.Metrics.slope f.Metrics.r2;
  let skel_pts =
    List.map
      (fun n ->
        let r = LB.skeleton_quantities_pow2 ~n in
        (float_of_int n, float_of_int r.LB.max_quantity_bits))
      [ 2; 4; 6; 8; 10 ]
  in
  let f = Metrics.linear_fit skel_pts in
  pf "E4 skeleton max bits ~ a*n + b  : a = %.3f (bound: Theta(n), R2=%.3f)\n"
    f.Metrics.slope f.Metrics.r2;
  let label_pts =
    List.map
      (fun h ->
        let r = LB.pruned_label ~height:h ~degree:2 in
        (float_of_int h, float_of_int r.LB.label_bits))
      [ 4; 8; 16; 32; 64 ]
  in
  let f = Metrics.linear_fit label_pts in
  pf "E7 label bits ~ a*h + b (d=2)   : a = %.3f (bound: Theta(h log d), R2=%.3f)\n"
    f.Metrics.slope f.Metrics.r2;
  (* E5's graphs: per size, the mean |E| and mean total bits of its seeds,
     from n = 16 up. *)
  let general_pts =
    List.filter_map
      (fun n ->
        if n < 16 then None
        else begin
          let runs = List.map (e5_run n) e5_seeds in
          Some
            ( Metrics.mean
                (List.map (fun (g, _) -> float_of_int (G.n_edges g)) runs),
              Metrics.mean
                (List.map
                   (fun (_, (st : Anonet.stats)) -> float_of_int st.total_bits)
                   runs) )
        end)
      e5_sizes
  in
  let f = Metrics.loglog_fit general_pts in
  pf "E5 general total bits ~ |E|^k   : k = %.3f (bound: <= 3 + o(1), R2=%.3f)\n"
    f.Metrics.slope f.Metrics.r2

(* {1 Wall-clock timing of each protocol} *)

(* One row per experiment: the median seconds per run of [Timer.repeat]
   over batches sized so that a reading lasts about 50 ms. *)
let timing () =
  header "TIMING" "Wall clock per run, median of 9 batched readings";
  let tree_g = F.comb 256 in
  let dag_g = F.grid_dag ~rows:12 ~cols:12 in
  let prng = Prng.create 99 in
  let gen_g =
    F.random_digraph prng ~n:60 ~extra_edges:60 ~back_edges:15 ~t_edge_prob:0.2
  in
  let skel_g = F.skeleton ~n:8 ~subset:(Array.make 8 true) in
  let pruned_g = F.pruned_tree ~height:32 ~degree:4 in
  let rows =
    [
      ("e1-tree-broadcast-comb256", fun () -> ignore (Anonet.broadcast_tree tree_g));
      ("e2-comb-symbols-128", fun () -> ignore (LB.comb_symbols 128));
      ("e3-dag-broadcast-grid12", fun () -> ignore (Anonet.broadcast_dag dag_g));
      ("e4-skeleton-n8", fun () -> ignore (Anonet.Dag_engine.run skel_g));
      ("e5-general-broadcast-n60", fun () -> ignore (Anonet.broadcast_general gen_g));
      ("e6-labeling-n60", fun () -> ignore (Anonet.assign_labels gen_g));
      ( "e7-pruned-labeling-h32d4",
        fun () -> ignore (Anonet.Labeling_engine.run pruned_g) );
      ("e8-mapping-n60", fun () -> ignore (Anonet.map_network gen_g));
      ("e9-naive-tree-comb256", fun () -> ignore (Anonet.broadcast_tree_naive tree_g));
      ( "e10-general-lifo-n60",
        fun () ->
          ignore (Anonet.broadcast_general ~scheduler:Runtime.Scheduler.Lifo gen_g)
      );
    ]
  in
  pf "%45s %14s %14s %14s\n" "benchmark" "median ns/run" "q1" "q3";
  List.iter
    (fun (name, f) ->
      let batch = max 1 (int_of_float (0.05 /. Timer.seconds f)) in
      let s = Timer.repeat ~repeats:9 (fun () -> Timer.seconds ~batch f) in
      pf "%45s %14.1f %14.1f %14.1f\n" name (s.median *. 1e9) (s.q1 *. 1e9)
        (s.q3 *. 1e9))
    rows

(* {1 Fault campaign (JSON)} *)

let campaign_grid =
  Runtime.Campaign.grid ~drops:[ 0.0; 0.05; 0.15 ] ~duplicates:[ 0.0; 0.2 ]
    ~max_delays:[ 0; 2 ] ~corrupts:[ 0.0; 0.02 ] ()

let campaign_seeds = List.init 20 (fun i -> i + 1)
let campaign_step_limit = 300_000

(* One (runners, graph) pair per broadcast protocol, bare and behind
   Redundant(3), each on its own graph family: the chaos suite's three. *)
let campaign_sweeps () =
  let module C = Runtime.Campaign in
  let module K3 = struct
    let k = 3
  end in
  let module Tree_r3 = Anonet.Redundant.Make (K3) (Anonet.Tree_broadcast) in
  let module Dag_r3 = Anonet.Redundant.Make (K3) (Anonet.Dag_broadcast_pow2) in
  let module General_r3 = Anonet.Redundant.Make (K3) (Anonet.General_broadcast) in
  let module Tree_runner = C.Of_protocol (Anonet.Tree_broadcast) in
  let module Dag_runner = C.Of_protocol (Anonet.Dag_broadcast_pow2) in
  let module General_runner = C.Of_protocol (Anonet.General_broadcast) in
  let module Tree_r3_runner = C.Of_protocol (Tree_r3) in
  let module Dag_r3_runner = C.Of_protocol (Dag_r3) in
  let module General_r3_runner = C.Of_protocol (General_r3) in
  List.combine
    [
      [ Tree_runner.runner (); Tree_r3_runner.runner () ];
      [ Dag_runner.runner (); Dag_r3_runner.runner () ];
      [ General_runner.runner (); General_r3_runner.runner () ];
    ]
    (Anonet.Resilient.chaos_graphs ())

(* Machine-readable counterpart of E12: each broadcast protocol, bare and
   behind Redundant(3), swept on its own graph family over a full drop x
   duplicate x delay x corruption grid, 20 seeds per cell.  Prints a JSON
   array (one Campaign result per family) on stdout — no table header, so
   the output can be piped straight into a JSON consumer. *)
let campaign () =
  let module C = Runtime.Campaign in
  pf "[";
  List.iteri
    (fun i (runners, graph) ->
      let res =
        C.run ~step_limit:campaign_step_limit ~runners ~graphs:[ graph ]
          ~grid:campaign_grid ~seeds:campaign_seeds ()
      in
      if i > 0 then pf ",";
      pf "\n%s" (C.to_json res))
    (campaign_sweeps ());
  pf "\n]\n"

(* {1 Model-checking benchmark (JSON)} *)

(* Machine-readable counterpart of [anonet check] (E14): exhaustively
   explores every suite case and prints one JSON object per case — states,
   transitions, the three pruning counters, pruned fraction, wall time and
   any violations — as a JSON array on stdout. *)
let buf_check_case b (c : Anonet.Check_suite.case) (r : Runtime.Explore.result)
    ~cpu_s =
  let module X = Runtime.Explore in
  let module J = Obs.Json in
  Buffer.add_string b "{\"protocol\":";
  J.buf_string b c.c_protocol;
  Buffer.add_string b ",\"family\":";
  J.buf_string b c.c_family;
  Printf.bprintf b
    ",\"edges\":%d,\"states\":%d,\"transitions\":%d,\"pruned_sleep\":%d,\"pruned_memo\":%d,\"pruned_dup\":%d,\"pruned_fraction\":%.4f,\"peak_depth\":%d,\"max_in_flight\":%d,\"truncated\":%b"
    c.c_edges r.stats.states r.stats.transitions r.stats.pruned_sleep
    r.stats.pruned_memo r.stats.pruned_dup
    (X.pruned_fraction r.stats)
    r.stats.peak_depth r.stats.max_in_flight r.stats.truncated;
  Option.iter (Printf.bprintf b ",\"cpu_s\":%.3f") cpu_s;
  Buffer.add_string b ",\"violations\":";
  J.buf_list b
    (fun b (v : X.violation) ->
      Buffer.add_string b "{\"kind\":";
      J.buf_string b (X.describe_kind v.kind);
      Buffer.add_string b ",\"schedule\":";
      J.buf_int_list b v.schedule;
      Buffer.add_string b "}")
    r.violations;
  Buffer.add_string b "}"

let check () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i (c : Anonet.Check_suite.case) ->
      let t0 = Sys.time () in
      let r = c.c_explore () in
      let dt = Sys.time () -. t0 in
      Buffer.add_string b (if i > 0 then ",\n" else "\n");
      buf_check_case b c r ~cpu_s:(Some dt))
    (Anonet.Check_suite.cases ());
  Buffer.add_string b "\n]\n";
  print_string (Buffer.contents b)

(* {1 E15 — pool sweeps (JSON)} *)

(* The three seed-parallel sweeps, each on 1 and 2 pool domains: the E12
   fault campaign through [Par.Campaign], the E17 supervised chaos search
   through [Chaos.run ~map:(Par.map ())], and the model-checking suite
   through [Par.Pool.map_list] over [Check_suite.cases].  Reports the sweep's work
   units (campaign runs, chaos trials, check cases) per wall-clock second
   at each domain count, and whether every 2-domain JSON rendering is
   byte-identical to the 1-domain one; ["pass"] requires all three. *)
let throughput ~small () =
  let module C = Runtime.Campaign in
  let module Ch = Runtime.Chaos in
  let repeats = if small then 1 else 5 in
  let n_seeds = if small then 5 else List.length campaign_seeds in
  let budget = if small then 30 else 170 in
  let max_edges = if small then 6 else 7 in
  let faults domains =
    let seeds = List.filteri (fun i _ -> i < n_seeds) campaign_seeds in
    let results =
      List.map
        (fun (runners, graph) ->
          Par.Campaign.run ~domains ~step_limit:campaign_step_limit ~runners
            ~graphs:[ graph ] ~grid:campaign_grid ~seeds ())
        (campaign_sweeps ())
    in
    ( List.fold_left
        (fun n (r : C.result) ->
          List.fold_left (fun n (c : C.cell) -> n + c.runs) n r.cells)
        0 results,
      String.concat ",\n" (List.map C.to_json results) )
  in
  let chaos domains =
    let cfg =
      Ch.config ~budget ~seed:11 ~supervisor:Runtime.Supervisor.default ()
    in
    let runner =
      Anonet.Resilient.chaos_runner ~k:3 (module Anonet.General_broadcast)
    in
    let r =
      Ch.run ~map:(Par.map ~domains ()) cfg ~runners:[ runner ]
        ~graphs:(Anonet.Resilient.chaos_graphs ())
    in
    (r.Ch.trials_run, Ch.to_json r)
  in
  let check domains =
    let cases = Anonet.Check_suite.cases ~max_edges () in
    let explored =
      Par.Pool.map_list ~domains
        (fun (c : Anonet.Check_suite.case) -> (c, c.c_explore ()))
        cases
    in
    let b = Buffer.create 4096 in
    List.iteri
      (fun i (c, r) ->
        if i > 0 then Buffer.add_string b ",\n";
        buf_check_case b c r ~cpu_s:None)
      explored;
    (List.length cases, Buffer.contents b)
  in
  (* Per sweep: 1 against 2 domains as one [Timer.pair], the work units,
     and whether every run rendered the same JSON as the first one (the
     1-domain warm-up). *)
  let measure sweep =
    let reference = ref None and identical = ref true and last = ref None in
    let at domains () =
      let dt = timed last (fun () -> sweep domains) () in
      let json = snd (Option.get !last) in
      (match !reference with
      | None -> reference := Some json
      | Some j -> if not (String.equal j json) then identical := false);
      dt
    in
    let p = Timer.pair ~repeats (at 1) (at 2) in
    (fst (Option.get !last), p, !identical)
  in
  let sweeps =
    [
      ("faults", "Par.Campaign", "runs", measure faults);
      ("chaos", "Chaos.run ~map", "trials", measure chaos);
      ("check", "Par.Pool.map_list", "cases", measure check);
    ]
  in
  pf "{\n";
  pf "  \"experiment\": \"E15-pool-sweeps\",\n";
  pf "  \"env\": %s,\n" (Timer.env_json ());
  pf "  \"repeats\": %d,\n" repeats;
  pf "  \"campaign_seeds\": %d,\n" n_seeds;
  pf "  \"chaos_budget\": %d,\n" budget;
  pf "  \"check_max_edges\": %d,\n" max_edges;
  pf "  \"sweeps\": [";
  List.iteri
    (fun i (name, engine, unit, (units, (p : Timer.paired), identical)) ->
      if i > 0 then pf ",";
      pf "\n    {\"sweep\": %S, \"engine\": %S, \"unit\": %S, \"units\": %d, \
          \"series\": ["
        name engine unit units;
      List.iteri
        (fun j (domains, (s : Timer.summary)) ->
          if j > 0 then pf ", ";
          pf "{\"domains\": %d, \"seconds\": %s, \"units_per_s\": %.1f}"
            domains (Timer.json s)
            (float_of_int units /. s.median))
        [ (1, p.a); (2, p.b) ];
      pf "], \"time_change_2_vs_1\": %s, \"identical_json\": %b}"
        (Timer.json p.delta) identical)
    sweeps;
  pf "\n  ],\n";
  pf "  \"pass\": %b\n" (List.for_all (fun (_, _, _, (_, _, id)) -> id) sweeps);
  pf "}\n"

(* {1 E16 — instrumentation overhead + reconciliation (JSON)} *)

(* Prices the [?obs] hook on the 120k-edge layered flood: the same run bare and
   instrumented (metrics registry + timeline, sampling every 1024
   deliveries) as one [Timer.pair], and exact reconciliation of the Obs
   counters against the engine report (the flood under Fifo is
   deterministic, so the [repeats + 1] instrumented runs, warm-up included,
   accumulate exactly [(repeats + 1) * per-run] in each counter).  The
   emitted Chrome trace is round-tripped through the validating JSON
   parser.  The gate: median overhead <= 10%, both reconciliations and a
   valid trace. *)
let obs_bench ~small () =
  let target_edges = if small then 30_000 else 120_000 in
  let repeats = if small then 5 else 7 in
  let g = F.random_layered_large (Prng.create 42) ~target_edges in
  let module En = Runtime.Engine.Make (Anonet.Flood) in
  let o = Obs.create ~sample_every:1024 () in
  let bare_r = ref None and inst_r = ref None in
  let p =
    Timer.pair ~repeats
      (timed bare_r (fun () -> En.run g))
      (timed inst_r (fun () -> En.run ~obs:o g))
  in
  let bare_r = Option.get !bare_r and inst_r = Option.get !inst_r in
  let runs = repeats + 1 in
  let snap = Obs.Registry.snapshot o.Obs.registry in
  let find name = Option.value ~default:min_int (Obs.Registry.find snap name) in
  let reconcile_deliveries =
    find "engine.deliveries" = runs * inst_r.E.deliveries
  in
  let reconcile_bits = find "engine.total_bits" = runs * inst_r.E.total_bits in
  let trace_valid = Obs.Json.valid (Obs.Export.chrome_trace o.Obs.timeline) in
  let pass =
    p.delta.median <= 0.10 && reconcile_deliveries && reconcile_bits
    && trace_valid
  in
  pf "{\n";
  pf "  \"experiment\": \"E16-obs-overhead\",\n";
  pf "  \"env\": %s,\n" (Timer.env_json ());
  pf "  \"protocol\": \"flood\",\n";
  pf "  \"graph\": {\"vertices\": %d, \"edges\": %d},\n" (G.n_vertices g)
    (G.n_edges g);
  pf "  \"repeats\": %d,\n" repeats;
  pf "  \"sample_every\": 1024,\n";
  pf "  \"deliveries\": %d,\n" bare_r.E.deliveries;
  pf "  \"bare_s\": %s,\n" (Timer.json p.a);
  pf "  \"instrumented_s\": %s,\n" (Timer.json p.b);
  pf "  \"overhead_fraction\": %s,\n" (Timer.json p.delta);
  pf "  \"timeline_events\": %d,\n" (Obs.Timeline.recorded o.Obs.timeline);
  pf "  \"reconcile\": {\"deliveries\": %b, \"total_bits\": %b},\n"
    reconcile_deliveries reconcile_bits;
  pf "  \"trace_json_valid\": %b,\n" trace_valid;
  pf "  \"metrics\": %s,\n" (Obs.Registry.to_json snap);
  pf "  \"pass\": %b\n" pass;
  pf "}\n"

(* {1 E21 — causal-lineage overhead (JSON)} *)

(* Prices the [?lineage] hook on the 120k-edge layered flood: bare against
   recorded as one [Timer.pair], overhead gated at <= 10%.  Sampling every
   256 deliveries keeps the store (and its clock reads) off the hot path
   while the per-delivery causal aggregates stay exact: the instrumented
   run must reconcile nodes = deliveries.  The recorder's JSON round-trips
   through the validating parser. *)
let lineage_bench ~small () =
  let target_edges = if small then 30_000 else 120_000 in
  let repeats = if small then 15 else 9 in
  let g = F.random_layered_large (Prng.create 42) ~target_edges in
  let module En = Runtime.Engine.Make (Anonet.Flood) in
  let mk () = Obs.Lineage.create ~sample_every:256 () in
  (* Each reading times a batch of back-to-back runs: single runs are a
     couple of milliseconds here, where page-fault and allocator
     transients right after a major collection dominate the reading. *)
  let batch = 4 in
  let bare_r = ref None and lin_r = ref None and last = ref (mk ()) in
  let lin () =
    let t =
      timed ~batch lin_r
        (fun () ->
          let l = mk () in
          let r = En.run ~lineage:l g in
          last := l;
          r)
        ()
    in
    (* Realize outside the timed region — the CLI does the same between
       run and export — so the retained journal does not hold the
       engine's ring across later timed runs. *)
    ignore (Obs.Lineage.nodes !last);
    t
  in
  let p = Timer.pair ~repeats (timed ~batch bare_r (fun () -> En.run g)) lin in
  let (r : _ E.report) = Option.get !lin_r in
  let l = !last in
  let module L = Obs.Lineage in
  let reconcile = L.nodes l = r.E.deliveries in
  let json_valid = Obs.Json.valid (L.to_json l) in
  let pass = p.delta.median <= 0.10 && reconcile && json_valid in
  pf "{\n";
  pf "  \"experiment\": \"E21-lineage-overhead\",\n";
  pf "  \"env\": %s,\n" (Timer.env_json ());
  pf "  \"protocol\": \"flood\",\n";
  pf "  \"graph\": {\"vertices\": %d, \"edges\": %d},\n" (G.n_vertices g)
    (G.n_edges g);
  pf "  \"repeats\": %d,\n" repeats;
  pf "  \"batch\": %d,\n" batch;
  pf "  \"sample_every\": 256,\n";
  pf "  \"deliveries\": %d,\n" r.E.deliveries;
  pf
    "  \"lineage\": {\"nodes\": %d, \"max_depth\": %d, \"width\": %d, \
     \"stored\": %d, \"dropped\": %d},\n"
    (L.nodes l) (L.max_depth l) (L.width l) (L.stored l) (L.dropped l);
  pf "  \"bare_s\": %s,\n" (Timer.json p.a);
  pf "  \"lineage_s\": %s,\n" (Timer.json p.b);
  pf "  \"overhead_fraction\": %s,\n" (Timer.json p.delta);
  pf "  \"reconcile_nodes_eq_deliveries\": %b,\n" reconcile;
  pf "  \"json_valid\": %b,\n" json_valid;
  pf "  \"pass\": %b\n" pass;
  pf "}\n"

(* {1 E17 — chaos search + crash recovery (JSON)} *)

(* Three claims, one experiment.  (1) Soundness under churn: a chaos search
   over >= 500 seeded joint edge-kill x vertex-crash fault sets finds zero
   false terminations for supervised Redundant(3) general broadcast.
   (2) The machinery works: the negative control (bare flood under
   crash-restart amnesia) yields shrunk witnesses of <= 4 atoms, every one
   replay-confirmed byte-for-byte through Scheduler.Replay.  (3) The
   supervisor is cheap when nothing fails: on a fault-free run it adds
   zero deliveries (retransmission never fires) and its counters reconcile
   exactly with the Obs registry. *)
let chaos_bench ~small () =
  let module Ch = Runtime.Chaos in
  let budget = if small then 30 else 170 in
  let graphs = Anonet.Resilient.chaos_graphs () in
  (* (1) The supervised search. *)
  let sup_cfg =
    Ch.config ~budget ~seed:11 ~supervisor:Runtime.Supervisor.default ()
  in
  let sup_runner =
    Anonet.Resilient.chaos_runner ~k:3 (module Anonet.General_broadcast)
  in
  let sup, sup_s =
    Timer.time (fun () -> Ch.run sup_cfg ~runners:[ sup_runner ] ~graphs)
  in
  (* (2) The negative control, amnesia only, no edge kills. *)
  let neg_cfg =
    Ch.config ~budget:(if small then 20 else 60) ~seed:11
      ~recoveries:[ Runtime.Vfaults.Amnesia ] ~p_edge:0.0 ()
  in
  let neg_runner = Anonet.Resilient.chaos_runner ~k:1 (module Anonet.Flood) in
  let neg = Ch.run neg_cfg ~runners:[ neg_runner ] ~graphs in
  let neg_min_atoms =
    List.fold_left
      (fun m (w : Ch.witness) -> min m (List.length w.Ch.w_faults))
      max_int neg.Ch.witnesses
  in
  let neg_confirmed =
    List.for_all
      (fun (w : Ch.witness) ->
        let gc =
          List.find (fun gc -> gc.Runtime.Chaos.g_name = w.Ch.w_graph) graphs
        in
        Ch.confirms w (Ch.replay neg_cfg neg_runner gc w))
      neg.Ch.witnesses
  in
  (* (3) Fault-free supervisor overhead + Obs reconciliation. *)
  let g =
    F.random_digraph (Prng.create 42) ~n:48 ~extra_edges:40 ~back_edges:12
      ~t_edge_prob:0.25
  in
  let module En = Runtime.Engine.Make (Anonet.General_broadcast) in
  let repeats = if small then 5 else 7 in
  let o = Obs.create ~sample_every:1024 () in
  let bare_r = ref None and sup_r = ref None in
  let p =
    Timer.pair ~repeats
      (timed bare_r (fun () -> En.run g))
      (timed sup_r (fun () ->
           En.run ~supervisor:Runtime.Supervisor.default ~obs:o g))
  in
  let bare_r = Option.get !bare_r and sup_r = Option.get !sup_r in
  (* Every supervised run, the warm-up included, lands in the registry. *)
  let runs = repeats + 1 in
  let snap = Obs.Registry.snapshot o.Obs.registry in
  let find name = Option.value ~default:min_int (Obs.Registry.find snap name) in
  let reconcile =
    find "engine.deliveries" = runs * sup_r.E.deliveries
    && find "engine.checkpoints" = runs * sup_r.E.vfault_stats.E.checkpoints
    && find "engine.replayed" = runs * sup_r.E.vfault_stats.E.replayed
    && find "engine.crashes" = 0
  in
  let delivery_overhead =
    float_of_int (sup_r.E.deliveries - bare_r.E.deliveries)
    /. float_of_int bare_r.E.deliveries
  in
  pf "{\n";
  pf "  \"experiment\": \"E17-chaos-recovery\",\n";
  pf "  \"env\": %s,\n" (Timer.env_json ());
  pf "  \"supervised\": {\"runner\": %S, \"trials\": %d, \"hits\": %d, \
      \"unsound\": %d, \"starved\": %d, \"seconds\": %.2f},\n"
    sup_runner.Ch.r_name sup.Ch.trials_run sup.Ch.hits sup.Ch.unsound
    sup.Ch.starved sup_s;
  pf "  \"negative\": {\"runner\": %S, \"trials\": %d, \"witnesses\": %d, \
      \"min_atoms\": %d, \"all_replay_confirmed\": %b},\n"
    neg_runner.Ch.r_name neg.Ch.trials_run
    (List.length neg.Ch.witnesses)
    neg_min_atoms neg_confirmed;
  pf "  \"overhead\": {\"graph\": {\"vertices\": %d, \"edges\": %d}, \
      \"repeats\": %d, \"bare_deliveries\": %d, \"supervised_deliveries\": \
      %d, \"delivery_overhead_fraction\": %.4f, \"bare_s\": %s, \
      \"supervised_s\": %s, \"time_overhead_fraction\": %s, \
      \"checkpoints\": %d, \"replayed\": %d},\n"
    (G.n_vertices g) (G.n_edges g) repeats bare_r.E.deliveries
    sup_r.E.deliveries delivery_overhead (Timer.json p.a) (Timer.json p.b)
    (Timer.json p.delta)
    sup_r.E.vfault_stats.E.checkpoints sup_r.E.vfault_stats.E.replayed;
  pf "  \"reconcile_obs\": %b,\n" reconcile;
  pf "  \"pass\": %b\n"
    (sup.Ch.unsound = 0
    && sup.Ch.trials_run >= (if small then 90 else 500)
    && neg.Ch.witnesses <> [] && neg_min_atoms <= 4 && neg_confirmed
    && delivery_overhead <= 0.10 && reconcile);
  pf "}\n"

(* {1 E18 — dynamic-network resilience: churn rate x T sweep (JSON)} *)

(* Four claims.  (1) Resilience: supervised general broadcast swept over a
   churn-rate x T-interval grid stays sound in every cell (a terminated run
   covers everything) and heals outages under retransmission.  (2) The
   T-interval contract is meaningful: the same adversary clamped by
   [Faults.constrain] records zero window violations by construction, while
   [with_contract] accounting shows the raw adversary breaching small
   windows.  (3) Churn-free runs pay nothing: arming [Faults.none] changes
   no counter.  (4) The amnesiac negative control: stateless flooding
   quiesces while a cycle edge is absent and livelocks the moment a churn
   [Add] splices it in — and a small all-churn chaos search finds that
   livelock and replays it byte-for-byte. *)
let churn_bench ~small () =
  let module Ch = Runtime.Chaos in
  let module C = Runtime.Faults in
  let module En = Runtime.Engine.Make (Anonet.General_broadcast) in
  (* The hardened stack of E17 / chaos_churn: the supervisor is a blind
     repeater, so its duplicates need Redundant(3)'s wire-encoding dedup —
     bare conservation flow would be double-counted. *)
  let (module R3 : Runtime.Protocol_intf.PROTOCOL) =
    Anonet.Resilient.redundant ~k:3 (module Anonet.General_broadcast)
  in
  let module En3 = Runtime.Engine.Make (R3) in
  let rates = [ 0.05; 0.15; 0.3 ] in
  let ts = [ 2; 4; 8 ] in
  let seeds = List.init (if small then 3 else 8) (fun k -> k + 1) in
  let t0 = Timer.now () in
  (* (1) + (2) the sweep. *)
  let cells =
    List.concat_map
      (fun rate ->
        List.map
          (fun t ->
            let stats =
              List.map
                (fun seed ->
                  let g =
                    F.random_digraph (Prng.create seed) ~n:24 ~extra_edges:16
                      ~back_edges:5 ~t_edge_prob:0.25
                  in
                  let spec =
                    C.uniform (C.plan ~remove:rate ~max_downtime:3 ()) ~seed
                  in
                  let clamped =
                    En3.run ~faults:(C.constrain ~t_interval:t g spec)
                      ~supervisor:Runtime.Supervisor.default g
                  in
                  let raw =
                    En3.run ~faults:(C.with_contract ~t_interval:t g spec)
                      ~supervisor:Runtime.Supervisor.default g
                  in
                  (clamped, raw))
                seeds
            in
            let count f = List.fold_left (fun a p -> a + f p) 0 stats in
            let terminated =
              count (fun ((c : _ E.report), _) ->
                  if c.E.outcome = E.Terminated then 1 else 0)
            in
            let unsound =
              count (fun ((c : _ E.report), (r : _ E.report)) ->
                  let bad (x : _ E.report) =
                    x.E.outcome = E.Terminated
                    && not (Array.for_all Fun.id x.E.visited)
                  in
                  (if bad c then 1 else 0) + if bad r then 1 else 0)
            in
            let heals =
              count (fun ((c : _ E.report), _) -> c.E.fault_stats.E.heals)
            in
            let clamped_violations =
              count (fun ((c : _ E.report), _) ->
                  c.E.fault_stats.E.window_violations)
            in
            let raw_violations =
              count (fun (_, (r : _ E.report)) ->
                  r.E.fault_stats.E.window_violations)
            in
            (rate, t, terminated, unsound, heals, clamped_violations,
             raw_violations))
          ts)
      rates
  in
  let sweep_s = Timer.now () -. t0 in
  let total f = List.fold_left (fun a c -> a + f c) 0 cells in
  let runs_per_cell = List.length seeds in
  let sweep_unsound = total (fun (_, _, _, u, _, _, _) -> u) in
  let sweep_heals = total (fun (_, _, _, _, h, _, _) -> h) in
  let clamped_violations = total (fun (_, _, _, _, _, cv, _) -> cv) in
  let raw_violations = total (fun (_, _, _, _, _, _, rv) -> rv) in
  (* (3) zero overhead when churn-free. *)
  let g0 =
    F.random_digraph (Prng.create 42) ~n:48 ~extra_edges:40 ~back_edges:12
      ~t_edge_prob:0.25
  in
  let bare = En.run g0 in
  let armed = En.run ~faults:C.none g0 in
  let zero_overhead =
    bare.E.deliveries = armed.E.deliveries
    && bare.E.total_bits = armed.E.total_bits
    && armed.E.fault_stats = E.no_faults_stats
  in
  (* (4) amnesiac flooding: quiesce vs churned-in livelock, then the chaos
     search that must rediscover it. *)
  let module Am = Runtime.Engine.Make (Anonet.Amnesiac_flood) in
  let gd =
    F.random_dynamic (Prng.create 11) ~n:12 ~extra_edges:6 ~back_edges:2
      ~t_edge_prob:0.3
  in
  (* The footprint's back edges, the ones running from a higher vertex to a
     lower, start absent and appear at their [at]-th offer. *)
  let back_added ~at =
    C.script
      (List.concat
         (List.mapi
            (fun e (u, v) -> if u > v then [ C.add_event ~edge:e ~at ] else [])
            (G.edges gd)))
  in
  (* Quiescence: every back edge stays absent, its add point pushed beyond
     any traffic the finite single pass can produce. *)
  let quiesce =
    Am.run ~step_limit:10_000 ~faults:(back_added ~at:1_000_000) gd
  in
  let livelock = Am.run ~step_limit:10_000 ~faults:(back_added ~at:1) gd in
  let amnesiac_split =
    quiesce.E.outcome <> E.Step_limit && livelock.E.outcome = E.Step_limit
  in
  let neg = Anonet.Check_suite.chaos_amnesiac ~budget:(if small then 6 else 12) () in
  let neg_confirmed =
    let gc ~n =
      {
        Runtime.Campaign.g_name = Printf.sprintf "random-dynamic-%d" n;
        build =
          (fun ~seed ->
            F.random_dynamic (Prng.create seed) ~n ~extra_edges:6
              ~back_edges:2 ~t_edge_prob:0.3);
      }
    in
    let cfg =
      Ch.config ~budget:(if small then 6 else 12) ~seed:11 ~p_churn:1.0
        ~max_faults:1 ~step_limit:10_000 ()
    in
    let runner =
      Anonet.Resilient.chaos_runner ~k:1 (module Anonet.Amnesiac_flood)
    in
    List.for_all
      (fun (w : Ch.witness) -> Ch.confirms w (Ch.replay cfg runner (gc ~n:12) w))
      neg.Ch.witnesses
  in
  pf "{\n";
  pf "  \"experiment\": \"E18-churn-dynamic\",\n";
  pf "  \"env\": %s,\n" (Timer.env_json ());
  pf "  \"sweep\": {\"runs_per_cell\": %d, \"seconds\": %.2f, \"cells\": [\n"
    runs_per_cell sweep_s;
  List.iteri
    (fun i (rate, t, terminated, unsound, heals, cv, rv) ->
      pf "    {\"rate\": %.2f, \"t\": %d, \"terminated\": %d, \"unsound\": \
          %d, \"heals\": %d, \"clamped_violations\": %d, \
          \"raw_violations\": %d}%s\n"
        rate t terminated unsound heals cv rv
        (if i = List.length cells - 1 then "" else ","))
    cells;
  pf "  ]},\n";
  pf "  \"zero_overhead\": %b,\n" zero_overhead;
  pf "  \"amnesiac\": {\"quiesce_outcome\": %S, \"livelock_outcome\": %S, \
      \"split\": %b},\n"
    (outcome_str quiesce.E.outcome)
    (outcome_str livelock.E.outcome)
    amnesiac_split;
  pf "  \"negative\": {\"trials\": %d, \"witnesses\": %d, \"livelocked\": \
      %d, \"unsound\": %d, \"all_replay_confirmed\": %b},\n"
    neg.Ch.trials_run
    (List.length neg.Ch.witnesses)
    neg.Ch.livelocked neg.Ch.unsound neg_confirmed;
  pf "  \"pass\": %b\n"
    (sweep_unsound = 0 && sweep_heals > 0 && clamped_violations = 0
    && raw_violations > 0 && zero_overhead && amnesiac_split
    && neg.Ch.livelocked > 0 && neg.Ch.unsound = 0 && neg_confirmed);
  pf "}\n"

(* {1 E20 — engine throughput (JSON)} *)

(* Prices the engine's two paths on the 120k-edge layered flood, as three
   rows.  The Fifo and Lifo runs take the certified flood fast path (a
   ring or a stack of edge indices, absorbed deliveries as two array ops);
   the generic row is a Lifo run forced off it by a no-op [on_pop] (CSR
   adjacency + arena-backed messages + encode memo).  Each fast row is one
   [Timer.pair] against the generic row.  Flood delivers one copy per edge
   under any schedule, so every run must report exactly [|E|] deliveries,
   quiescence and full coverage, which is what [pass] gates on.  Two more
   pairs price each row's fixed cost: a [~step_limit:0] run does the
   per-run set-up (state array, certificate, pool, report) and no
   delivery, so it must end [Step_limit] with 0 deliveries.  The JSON
   gives each row's rate and fixed cost and, per fast row, the generic
   row's per-pair time change against it, reported rather than gated: on
   the small graph a run lasts about a millisecond, too short for a stable
   ratio. *)
let engine_bench ~small () =
  let target_edges = if small then 30_000 else 120_000 in
  let repeats = if small then 3 else 5 in
  let g = F.random_layered_large (Prng.create 42) ~target_edges in
  let module En = Runtime.Engine.Make (Anonet.Flood) in
  let deliveries = G.n_edges g in
  let pass = ref true in
  let row ?on_pop ?step_limit ok sched () =
    let last = ref None in
    let t =
      timed last (fun () -> En.run ~scheduler:sched ?on_pop ?step_limit g) ()
    in
    pass := !pass && ok (Option.get !last);
    t
  in
  let full (r : _ E.report) =
    r.outcome = E.Quiescent && r.deliveries = deliveries
    && r.final_in_flight = 0
    && Array.for_all Fun.id r.visited
  in
  let empty (r : _ E.report) = r.outcome = E.Step_limit && r.deliveries = 0 in
  (* The generic row is forced by a no-op [on_pop]; each fast row is
     paired with it, so each gain is a per-pair time change. *)
  let pair ?step_limit ok sched =
    Timer.pair ~repeats
      (row ?step_limit ok sched)
      (row ~on_pop:ignore ?step_limit ok Runtime.Scheduler.Lifo)
  in
  let fifo = pair full Runtime.Scheduler.Fifo in
  let lifo = pair full Runtime.Scheduler.Lifo in
  let fixed_fifo = pair ~step_limit:0 empty Runtime.Scheduler.Fifo in
  let fixed_lifo = pair ~step_limit:0 empty Runtime.Scheduler.Lifo in
  pf "{\n";
  pf "  \"experiment\": \"E20-engine-throughput\",\n";
  pf "  \"env\": %s,\n" (Timer.env_json ());
  pf "  \"protocol\": \"flood\",\n";
  pf "  \"graph\": {\"vertices\": %d, \"edges\": %d},\n" (G.n_vertices g)
    (G.n_edges g);
  pf "  \"repeats\": %d,\n" repeats;
  pf "  \"deliveries\": %d,\n" deliveries;
  pf "  \"series\": [";
  List.iteri
    (fun i (path, sched, (s : Timer.summary), (f : Timer.summary)) ->
      if i > 0 then pf ",";
      pf
        "\n\
        \    {\"path\": %S, \"scheduler\": %S, \"seconds\": %s, \
         \"deliveries_per_s\": %.0f, \"fixed_seconds\": %s}"
        path sched (Timer.json s)
        (float_of_int deliveries /. s.median)
        (Timer.json f))
    [
      ("fast", "fifo", fifo.a, fixed_fifo.a);
      ("fast", "lifo", lifo.a, fixed_lifo.a);
      ("generic", "lifo", lifo.b, fixed_lifo.b);
    ];
  pf "\n  ],\n";
  pf "  \"generic_time_change\": {\"fifo\": %s, \"lifo\": %s},\n"
    (Timer.json fifo.delta) (Timer.json lifo.delta);
  pf "  \"pass\": %b\n" !pass;
  pf "}\n"

(* A serve response's ["ok"] flag, and its error code ("" if none). *)
let ok_of resp =
  match Obs.Json.parse resp with
  | Ok v -> Obs.Json.(member "ok" v |> Option.map to_bool_opt) = Some (Some true)
  | Error _ -> false

let code_of resp =
  let module J = Obs.Json in
  match J.parse resp with
  | Ok v ->
      Option.value ~default:""
        (Option.bind (J.member "error" v) (fun e ->
             Option.bind (J.member "code" e) J.to_string_opt))
  | Error _ -> ""

(* E19: the serve layer under load.  Drives [Server.handle_line] directly —
   the same function the socket loop calls, minus syscalls — with an
   open-loop mixed-session flood from the main domain while worker domains
   execute, then audits every contract at once: no stuck sessions, no
   unsound results, byte-identical payloads for equal submissions under
   concurrent load, and exact metrics reconciliation. *)
let serve_bench ~small () =
  let module S = Serve.Server in
  let module J = Obs.Json in
  let sessions = if small then 1200 else 5000 in
  let workers = max 2 (min 4 (Domain.recommended_domain_count () - 1)) in
  let config =
    {
      S.default_config with
      graphs =
        [ ("small", "comb:8"); ("mid", "random:30:5"); ("grid", "grid:6x6") ];
      workers;
      max_queue = 256;
      credits = 1 lsl 20;  (* backpressure under test here is the queue *)
      step_limit = 200_000;
    }
  in
  let server =
    match S.create ~config () with Ok s -> s | Error e -> failwith e
  in
  S.start_workers server;
  let submit_line i =
    (* Pairs (2k, 2k+1) are equal submissions under distinct ids: every
       session participates in the byte-determinism audit. *)
    let seed = i / 2 in
    let id = Printf.sprintf "b%d" i in
    match seed mod 3 with
    | 0 ->
        Printf.sprintf
          "{\"op\":\"submit\",\"id\":\"%s\",\"protocol\":\"flood\",\"graph\":\"small\",\"seed\":%d}"
          id seed
    | 1 ->
        Printf.sprintf
          "{\"op\":\"submit\",\"id\":\"%s\",\"protocol\":\"counting\",\"graph\":\"grid\",\"scheduler\":\"random\",\"seed\":%d}"
          id seed
    | _ ->
        Printf.sprintf
          "{\"op\":\"submit\",\"id\":\"%s\",\"protocol\":\"general\",\"graph\":\"mid\",\"scheduler\":\"random\",\"seed\":%d,\"churn\":{\"rate\":0.05,\"seed\":%d}}"
          id seed seed
  in
  let t0 = Timer.now () in
  let overloads = ref 0 in
  for i = 0 to sessions - 1 do
    let line = submit_line i in
    let rec push () =
      let resp = S.handle_line server ~conn:(i mod 8) line in
      if not (ok_of resp) then
        if code_of resp = "overloaded" then begin
          (* open-loop producer hit admission control: back off and retry *)
          incr overloads;
          Unix.sleepf 0.0005;
          push ()
        end
        else failwith ("submit rejected: " ^ resp)
    in
    push ()
  done;
  let finals =
    Array.init sessions (fun i ->
        let id = Printf.sprintf "b%d" i in
        match S.await server id with
        | Some st -> (id, st)
        | None -> failwith ("lost session " ^ id))
  in
  let wall_s = Timer.now () -. t0 in
  let stuck =
    Array.fold_left
      (fun acc (_, st) ->
        match st with Serve.Session.Done _ -> acc | _ -> acc + 1)
      0 finals
  in
  (* Fetch every result over the wire path and audit it. *)
  let results =
    Array.map
      (fun (id, _) ->
        let resp =
          S.handle_line server ~conn:0
            (Printf.sprintf "{\"op\":\"result\",\"id\":\"%s\"}" id)
        in
        if not (ok_of resp) then failwith ("result failed: " ^ resp);
        match J.parse resp with
        | Ok v -> (
            match J.member "result" v with
            | Some r -> (id, J.to_string r, r)
            | None -> failwith "missing result")
        | Error _ -> failwith "unparseable result")
      finals
  in
  let int_member name v =
    match Option.bind (J.member name v) J.to_int_opt with
    | Some i -> i
    | None -> -1
  in
  let unsound =
    Array.fold_left
      (fun acc (_, _, v) ->
        let terminated =
          match Option.bind (J.member "outcome" v) J.to_string_opt with
          | Some "terminated" -> true
          | _ -> false
        in
        let all_visited =
          match Option.bind (J.member "all_visited" v) J.to_bool_opt with
          | Some b -> b
          | None -> false
        in
        if terminated && not all_visited then acc + 1 else acc)
      0 results
  in
  let determinism_ok = ref true in
  Array.iteri
    (fun i (_, json, _) ->
      if i mod 2 = 1 then
        let _, json', _ = results.(i - 1) in
        if json <> json' then determinism_ok := false)
    results;
  let sum_deliveries =
    Array.fold_left (fun acc (_, _, v) -> acc + int_member "deliveries" v) 0 results
  in
  let metrics_resp = S.handle_line server ~conn:0 "{\"op\":\"metrics\"}" in
  let metrics_deliveries =
    match J.parse metrics_resp with
    | Ok v -> (
        match
          Option.bind (J.member "result" v) (fun r ->
              Option.bind (J.member "counters" r) (fun c ->
                  Option.bind
                    (J.member "sessions.engine.deliveries" c)
                    J.to_int_opt))
        with
        | Some n -> n
        | None -> -1)
    | Error _ -> -1
  in
  let reconcile_ok = metrics_deliveries = sum_deliveries in
  let latencies_ms =
    Array.to_list
      (Array.map
         (fun (id, _, _) ->
           match S.session_times server id with
           | Some (t_in, t_out) -> (t_out -. t_in) *. 1000.0
           | None -> nan)
         results)
  in
  let q1, p50, q3, p99 =
    match Metrics.percentiles [ 25.0; 50.0; 75.0; 99.0 ] latencies_ms with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> assert false
  in
  S.stop server;
  let pass =
    stuck = 0 && unsound = 0 && !determinism_ok && reconcile_ok
    && Array.length results = sessions
  in
  pf "{\n";
  pf "  \"experiment\": \"E19-serve\",\n";
  pf "  \"env\": %s,\n" (Timer.env_json ());
  pf "  \"sessions\": %d,\n" sessions;
  pf "  \"workers\": %d,\n" workers;
  pf "  \"wall_seconds\": %.3f,\n" wall_s;
  pf "  \"sessions_per_sec\": %.1f,\n" (float_of_int sessions /. wall_s);
  pf "  \"latency_ms\": {\"q1\": %.3f, \"p50\": %.3f, \"q3\": %.3f, \
      \"p99\": %.3f},\n"
    q1 p50 q3 p99;
  pf "  \"overload_retries\": %d,\n" !overloads;
  pf "  \"stuck\": %d,\n" stuck;
  pf "  \"unsound\": %d,\n" unsound;
  pf "  \"determinism_ok\": %b,\n" !determinism_ok;
  pf "  \"reconcile\": {\"sum_deliveries\": %d, \"metrics_deliveries\": %d, \
      \"ok\": %b},\n"
    sum_deliveries metrics_deliveries reconcile_ok;
  pf "  \"pass\": %b\n" pass;
  pf "}\n"

(* {1 E22 — crash/recovery under SIGKILL (JSON)}

   The durability claim, tested the only honest way: a REAL socket
   server in a child process, a client driving mixed load through the
   wire, [kill -9] at seeded points mid-load, restart on the same
   journal, and then an audit from the client's ledger — every
   acknowledged submit must still produce a result (zero acked loss),
   and every result fetched before a crash must come back
   byte-identical after it.  A second, in-process phase prices the
   journal: E19-style open-loop load with and without [--journal],
   gating the p50 overhead at 10%.

   The chaos phase forks, so it MUST run before this process spawns any
   domain — run [recover] as its own bench invocation (CI does). *)
let recover_bench ~small () =
  let module S = Serve.Server in
  let module C = Serve.Client in
  let module J = Obs.Json in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let n = if small then 80 else 400 in
  let crashes = if small then 1 else 2 in
  let prng = Prng.create 0xE22 in
  let tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "anonet-recover-%d" (Unix.getpid ()))
  in
  let sock = tag ^ ".sock" and journal = tag ^ ".journal" in
  let rm f = try Sys.remove f with Sys_error _ -> () in
  rm journal;
  let config =
    {
      S.default_config with
      graphs = [ ("small", "comb:8"); ("grid", "grid:6x6") ];
      workers = 2;
      max_queue = 256;
      credits = 1 lsl 20;
      step_limit = 200_000;
      journal = Some journal;
      journal_sync = true;
    }
  in
  let start_server () =
    rm sock;
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        (* Child: the real socket server.  Its chatter must not pollute
           the parent's JSON, and it must never run the parent's at_exit
           handlers — hence /dev/null and [Unix._exit]. *)
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        Unix.dup2 devnull Unix.stdout;
        Unix.dup2 devnull Unix.stderr;
        (match S.create ~config () with
        | Error _ -> Unix._exit 1
        | Ok t ->
            S.serve_loop ~socket:sock t;
            S.stop t;
            Unix._exit 0)
    | pid -> pid
  in
  let retry =
    { C.r_attempts = 10; r_base_ms = 20; r_seed = 0xE22 }
  in
  let connect () =
    match C.connect_retry ~retry sock with
    | Ok c -> c
    | Error e -> failwith ("connect: " ^ e)
  in
  let rid i = Printf.sprintf "r%d" i in
  let submit_line i =
    if i mod 2 = 0 then
      Printf.sprintf
        "{\"op\":\"submit\",\"id\":\"%s\",\"protocol\":\"flood\",\"graph\":\"small\",\"seed\":%d}"
        (rid i) i
    else
      Printf.sprintf
        "{\"op\":\"submit\",\"id\":\"%s\",\"protocol\":\"counting\",\"graph\":\"grid\",\"scheduler\":\"random\",\"seed\":%d}"
        (rid i) i
  in
  let result_bytes resp =
    match J.parse resp with
    | Ok v -> (
        match J.member "result" v with
        | Some r -> J.to_string r
        | None -> failwith "missing result member")
    | Error _ -> failwith "unparseable result"
  in
  let acked = ref [] in
  (* id -> result bytes the server acknowledged BEFORE a crash *)
  let prekill : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let submit c i =
    match C.request_retry ~retry c (submit_line i) with
    | Ok resp when ok_of resp -> acked := i :: !acked
    | Ok resp -> failwith ("submit rejected: " ^ resp)
    | Error e -> failwith ("submit io: " ^ e)
  in
  let poll_result c id ~budget_s =
    let deadline = Timer.now () +. budget_s in
    let rec go () =
      match C.request c (Printf.sprintf "{\"op\":\"result\",\"id\":\"%s\"}" id) with
      | Ok resp when ok_of resp -> `Done (result_bytes resp)
      | Ok resp ->
          let c' = code_of resp in
          if c' = "not_done" && Timer.now () < deadline then begin
            Unix.sleepf 0.005;
            go ()
          end
          else `Gone (if c' = "not_done" then "timeout" else c')
      | Error e -> `Gone ("io: " ^ e)
    in
    go ()
  in
  let t0 = Timer.now () in
  let per_phase = n / (crashes + 1) in
  let next = ref 0 in
  let kill_points = ref [] in
  let pid = ref (start_server ()) in
  let client = ref (connect ()) in
  for crash = 1 to crashes do
    (* Seeded kill point, jittered around the phase boundary. *)
    let upto =
      min n
        ((crash * per_phase) - (per_phase / 4) + Prng.int prng (per_phase / 2))
    in
    kill_points := upto :: !kill_points;
    while !next < upto do
      submit !client !next;
      incr next
    done;
    (* Pin down pre-kill bytes for the oldest acked-but-unpinned ids:
       these exact bytes must survive the crash. *)
    let unsampled =
      List.filter (fun i -> not (Hashtbl.mem prekill (rid i))) (List.rev !acked)
    in
    List.iteri
      (fun k i ->
        if k < max 5 (per_phase / 4) then
          match poll_result !client (rid i) ~budget_s:30.0 with
          | `Done bytes -> Hashtbl.replace prekill (rid i) bytes
          | `Gone code -> failwith ("pre-kill result lost: " ^ rid i ^ ": " ^ code))
      unsampled;
    C.close !client;
    Unix.kill !pid Sys.sigkill;
    ignore (Unix.waitpid [] !pid);
    (* Reboot on the same journal: recovery replays + re-executes. *)
    pid := start_server ();
    client := connect ()
  done;
  while !next < n do
    submit !client !next;
    incr next
  done;
  (* The audit: every acked id yields a result; pinned bytes match. *)
  let lost = ref 0 and mismatches = ref 0 and lost_sample = ref "" in
  List.iter
    (fun i ->
      let id = rid i in
      match poll_result !client id ~budget_s:60.0 with
      | `Done bytes -> (
          match Hashtbl.find_opt prekill id with
          | Some b -> if b <> bytes then incr mismatches
          | None -> ())
      | `Gone code ->
          incr lost;
          if !lost_sample = "" then lost_sample := id ^ ": " ^ code)
    (List.rev !acked);
  (* The rebooted server's whole recovery summary, from one metrics
     snapshot of its "server.recovered.*" counters (-1 = unreadable). *)
  let recovered_counters =
    match Result.map J.parse (C.request !client "{\"op\":\"metrics\"}") with
    | Ok (Ok v) ->
        Option.bind (J.member "result" v) (J.member "counters")
    | _ -> None
  in
  let recovered =
    List.map
      (fun name ->
        ( name,
          Option.value ~default:(-1)
            (Option.bind recovered_counters (fun c ->
                 Option.bind
                   (J.member ("server.recovered." ^ name) c)
                   J.to_int_opt)) ))
      [
        "replayed"; "verified"; "mismatched"; "completed"; "cancelled";
        "failed"; "orphans"; "unreplayable"; "torn";
      ]
  in
  let rec_replayed = List.assoc "replayed" recovered in
  let rec_mismatched = List.assoc "mismatched" recovered in
  C.close !client;
  ignore (C.shutdown ~socket:sock);
  ignore (Unix.waitpid [] !pid);
  rm sock;
  let chaos_wall = Timer.now () -. t0 in
  (* {2 Overhead phase} — closed-loop producers, journal on/off.  A
     single open-loop producer can't price the journal: the
     journal-slowed producer keeps the queue SHORTER, so measured wait
     DROPS with journaling on.  Closed-loop clients (one loop per
     connection, bounded in-flight) are the realistic shape; on a
     multi-core host several run concurrently, which is also the shape
     group commit is engineered for — simultaneous appends share
     fsyncs.  On a single-core host (CI) extra domains only time-slice,
     so concurrency shrinks to one stream. *)
  let m = if small then 240 else 1200 in
  let producers = max 1 (min 4 (Domain.recommended_domain_count () - 1)) in
  let overhead_run jpath =
    let config =
      {
        S.default_config with
        (* Heavier than the chaos phase's graphs on purpose: the gate
           prices the journal against representative session work, and a
           per-session fsync is a fixed cost — toy graphs would measure
           the filesystem, not the serve layer. *)
        graphs =
          [ ("small", "comb:16"); ("mid", "random:48:6"); ("grid", "grid:9x9") ];
        workers = producers;  (* every in-flight session gets a worker *)
        max_queue = 256;
        credits = 1 lsl 20;
        step_limit = 200_000;
        journal = jpath;
        journal_sync = true;
      }
    in
    let server =
      match S.create ~config () with Ok s -> s | Error e -> failwith e
    in
    S.start_workers server;
    let mixed_line i =
      match i mod 3 with
      | 0 ->
          Printf.sprintf
            "{\"op\":\"submit\",\"id\":\"o%d\",\"protocol\":\"flood\",\"graph\":\"small\",\"seed\":%d}"
            i i
      | 1 ->
          Printf.sprintf
            "{\"op\":\"submit\",\"id\":\"o%d\",\"protocol\":\"counting\",\"graph\":\"grid\",\"scheduler\":\"random\",\"seed\":%d}"
            i i
      | _ ->
          Printf.sprintf
            "{\"op\":\"submit\",\"id\":\"o%d\",\"protocol\":\"general\",\"graph\":\"mid\",\"scheduler\":\"random\",\"seed\":%d}"
            i i
    in
    let per = m / producers in
    let doms =
      List.init producers (fun p ->
          Domain.spawn (fun () ->
              for k = 0 to per - 1 do
                let i = (p * per) + k in
                let resp = S.handle_line server ~conn:p (mixed_line i) in
                if not (ok_of resp) then
                  failwith ("submit rejected: " ^ resp);
                ignore (S.await server (Printf.sprintf "o%d" i))
              done))
    in
    List.iter Domain.join doms;
    let lat =
      List.init (producers * per) (fun i ->
          match S.session_times server (Printf.sprintf "o%d" i) with
          | Some (t_in, t_out) -> (t_out -. t_in) *. 1000.0
          | None -> nan)
    in
    let jstats = S.journal_stats server in
    S.stop server;
    let p50 =
      match Metrics.percentiles [ 50.0 ] lat with [ p ] -> p | _ -> nan
    in
    (p50, jstats)
  in
  let j2 = tag ^ ".overhead.journal" in
  let jstats = ref None in
  let run_off () = fst (overhead_run None) in
  let run_on () =
    rm j2;
    let p, js = overhead_run (Some j2) in
    jstats := js;
    rm j2;
    p
  in
  (* A reading here is one run's p50 session latency in ms.  Pairing beats
     run-to-run scheduling noise, and flipping the off/on order each pair
     cancels monotonic drift (CPU frequency ramp, cache warming) that
     otherwise hands whichever side runs later a systematic win. *)
  let rounds = 4 in
  let p = Timer.pair ~repeats:rounds run_off run_on in
  rm journal;
  let jstats = !jstats in
  let appends, fsyncs, jbytes =
    match jstats with
    | Some st -> Serve.Journal.(st.s_appends, st.s_fsyncs, st.s_bytes)
    | None -> (-1, -1, -1)
  in
  let pass =
    !lost = 0 && !mismatches = 0 && rec_mismatched = 0 && rec_replayed > 0
    && p.delta.median <= 0.10
  in
  pf "{\n";
  pf "  \"experiment\": \"E22-recover\",\n";
  pf "  \"env\": %s,\n" (Timer.env_json ());
  pf "  \"sessions\": %d,\n" n;
  pf "  \"crashes\": %d,\n" crashes;
  pf "  \"kill_points\": [%s],\n"
    (String.concat ", " (List.rev_map string_of_int !kill_points));
  pf "  \"chaos_wall_seconds\": %.3f,\n" chaos_wall;
  pf "  \"acked\": %d,\n" (List.length !acked);
  pf "  \"prekill_pinned\": %d,\n" (Hashtbl.length prekill);
  pf "  \"lost\": %d,\n" !lost;
  if !lost > 0 then pf "  \"lost_sample\": %s,\n" (J.escape !lost_sample);
  pf "  \"byte_mismatches\": %d,\n" !mismatches;
  pf "  \"recovered\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun (name, v) -> Printf.sprintf "%s: %d" (J.escape name) v)
          recovered));
  pf "  \"overhead\": {\"sessions\": %d, \"rounds\": %d, \"p50_off_ms\": %s, \
      \"p50_on_ms\": %s, \"overhead_fraction\": %s, \"appends\": %d, \
      \"fsyncs\": %d, \"bytes\": %d},\n"
    m rounds (Timer.json p.a) (Timer.json p.b) (Timer.json p.delta) appends fsyncs
    jbytes;
  pf "  \"pass\": %b\n" pass;
  pf "}\n"

(* What runs with no arguments: every table, then the timing rows. *)
let tables =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e11", e11); ("e12", e12); ("e13", e13); ("fits", fits);
    ("timing", timing);
  ]

(* A [Sized] bench also runs as "NAME:small", its CI-sized variant. *)
type bench = Fixed of (unit -> unit) | Sized of (small:bool -> unit -> unit)

let benches =
  List.map (fun (name, f) -> (name, Fixed f)) tables
  @ [
      ("campaign", Fixed campaign); ("check", Fixed check);
      ("throughput", Sized throughput); ("obs", Sized obs_bench);
      ("chaos", Sized chaos_bench); ("churn", Sized churn_bench);
      ("serve", Sized serve_bench); ("recover", Sized recover_bench);
      ("engine", Sized engine_bench); ("lineage", Sized lineage_bench);
    ]

let by_name =
  List.concat_map
    (function
      | name, Fixed f -> [ (name, f) ]
      | name, Sized f -> [ (name, f ~small:false); (name ^ ":small", f ~small:true) ])
    benches

let known =
  String.concat ", "
    (List.map
       (function name, Fixed _ -> name | name, Sized _ -> name ^ "[:small]")
       benches)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> List.iter (fun (_, f) -> f ()) tables
  | args ->
      List.iter
        (fun a ->
          match List.assoc_opt a by_name with
          | Some f -> f ()
          | None -> pf "unknown table %s (known: %s)\n" a known)
        args
