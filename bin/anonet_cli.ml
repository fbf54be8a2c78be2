(* anonet — command-line driver.

   Generate a network family, run one of the paper's protocols on it under a
   chosen asynchronous schedule, and report the complexity measures (or the
   labels / the reconstructed map / a Graphviz rendering).

     anonet run --family comb:32 --protocol tree
     anonet run --family random:50:7 --protocol general --scheduler lifo
     anonet label --family cycle:9
     anonet map --family random:20:42 --dot
     anonet dot --family skeleton:4
     anonet check                        # model-check the whole suite
     anonet check --sabotage             # negative control; must exit 1

   Exit status: [run] is nonzero when the protocol fails to terminate or
   terminates with unvisited vertices; [faults] when any seed produces a
   false termination; [check] when any invariant violation is found. *)

module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine

let pf = Printf.printf

(* {1 Family specifications} *)

let family_doc = "Network family: " ^ F.spec_doc ^ " (e.g. 'cycle:5+trap')."

let parse_family spec =
  match F.of_spec spec with Ok g -> Ok g | Error e -> Error (`Msg e)

let family_conv =
  Cmdliner.Arg.conv
    ( parse_family,
      fun fmt _ -> Format.pp_print_string fmt "<network>" )

let parse_scheduler = function
  | "fifo" -> Ok Runtime.Scheduler.Fifo
  | "lifo" -> Ok Runtime.Scheduler.Lifo
  | "rounds" -> Ok Runtime.Scheduler.Rounds
  | s -> (
      match String.split_on_char ':' s with
      | [ "random"; seed ] -> (
          match int_of_string_opt seed with
          | Some seed -> Ok (Runtime.Scheduler.Random (Prng.create seed))
          | None -> Error (`Msg "random scheduler needs an int seed"))
      | _ -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s)))

let scheduler_conv =
  Cmdliner.Arg.conv
    (parse_scheduler, fun fmt s -> Format.pp_print_string fmt (Runtime.Scheduler.describe s))

(* {1 Common terms} *)

open Cmdliner

let family_t =
  Arg.(
    required
    & opt (some family_conv) None
    & info [ "f"; "family" ] ~docv:"FAMILY" ~doc:family_doc)

let scheduler_t =
  Arg.(
    value
    & opt scheduler_conv Runtime.Scheduler.Fifo
    & info [ "scheduler" ] ~docv:"SCHED"
        ~doc:"fifo | lifo | random:SEED | rounds")

let payload_t =
  Arg.(
    value & opt int 0
    & info [ "payload" ] ~docv:"BITS"
        ~doc:"Size of the broadcast message m, charged to every protocol message.")

(* Checked before anything is printed, so a bad size is one error line. *)
let check_payload payload =
  if payload < 0 then invalid_arg "--payload must be >= 0"

let describe_graph g =
  pf "network : |V|=%d |E|=%d d_out=%d class=%s\n" (G.n_vertices g) (G.n_edges g)
    (G.max_out_degree g)
    (match G.classify g with
    | `Grounded_tree -> "grounded-tree"
    | `Dag -> "dag"
    | `General -> "general");
  match G.validate g with
  | Ok () -> ()
  | Error e -> pf "warning : %s\n" e

let describe_stats (st : Anonet.stats) =
  pf "outcome          : %s\n"
    (match st.outcome with
    | E.Terminated -> "terminated"
    | E.Quiescent -> "quiescent (no termination)"
    | E.Step_limit -> "step limit"
    | E.Cancelled -> "cancelled");
  pf "deliveries       : %d\n" st.deliveries;
  pf "total bits       : %d\n" st.total_bits;
  pf "bandwidth        : %d bits (busiest edge)\n" st.max_edge_bits;
  pf "largest message  : %d bits\n" st.max_message_bits;
  pf "distinct symbols : %d\n" st.distinct_messages;
  pf "all visited      : %b\n" st.all_visited

let protocol_doc = String.concat " | " Anonet.protocol_names

let domains_t =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Independent cases or trials spread over $(docv) pool domains; the \
           output is identical to $(docv) = 1.")

(* {1 Churn terms}

   [--churn-rate]/[--churn-t] arm the edge-churn adversary on a run: a
   uniform per-offer removal plan with seed-derived per-edge PRNG streams,
   optionally wrapped in the T-interval connectivity contract. *)

let churn_rate_t =
  Arg.(
    value & opt float 0.0
    & info [ "churn-rate" ] ~docv:"P"
        ~doc:
          "Per-offer probability that an edge is removed for a bounded \
           outage (it heals under traffic).  0 disables churn entirely.")

let churn_t_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "churn-t" ] ~docv:"T"
        ~doc:
          "Install the T-interval connectivity contract: the run counts \
           window violations — outages touching the protected spanning \
           skeleton or spanning >= $(docv) consecutive offers.  Fates are \
           unchanged, so replays stay byte-identical.")

let churn_seed_t =
  Arg.(
    value & opt int 0
    & info [ "churn-seed" ] ~docv:"S"
        ~doc:"Seed of the churn adversary's per-edge PRNG streams.")

let churn_of ~rate ~t ~seed g =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "--churn-rate must be in [0,1]";
  let c =
    Runtime.Faults.uniform
      (Runtime.Faults.plan ~remove:rate ~max_downtime:3 ())
      ~seed
  in
  match t with
  | None -> c
  | Some t -> Runtime.Faults.with_contract ~t_interval:t g c

let describe_churn (cs : E.fault_stats) =
  pf "churn            : %d adds, %d removes, %d heals, %d lost in flight, \
      %d window violations\n"
    cs.E.adds cs.E.removes cs.E.heals cs.E.messages_lost_in_flight
    cs.E.window_violations

(* {1 Telemetry terms}

   [--trace-out]/[--metrics-out]/[--csv-out] attach an [Obs] sink to the
   run and write the requested exports when it finishes; with none of the
   three the run is uninstrumented and pays nothing. *)

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's span/sample timeline as Chrome trace-event JSON — \
           open it at https://ui.perfetto.dev or chrome://tracing.")

let metrics_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the run's metrics-registry snapshot as JSON.")

let csv_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv-out" ] ~docv:"FILE"
        ~doc:"Write the timeline as flat CSV (ts_s,track,kind,name,value).")

let sample_t =
  Arg.(
    value & opt int 256
    & info [ "sample" ] ~docv:"K"
        ~doc:
          "Emit timeline samples every $(docv) deliveries (or explorer \
           transitions); counters are exact at every sample point and at \
           run end.")

let lineage_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "lineage-out" ] ~docv:"FILE"
        ~doc:
          "Record the causal delivery forest — every delivery linked to the \
           delivery whose receive emitted it — and write its JSON summary \
           (nodes, causal depth, width, critical path, top critical edges, \
           stored node samples) to $(docv).  Inspect it with 'anonet trace \
           --lineage FILE'.  Combined with --trace-out, the Perfetto trace \
           gains flow arrows along the stored causal edges.")

let lineage_sample_t =
  Arg.(
    value & opt int 1
    & info [ "lineage-sample" ] ~docv:"K"
        ~doc:
          "Store every $(docv)-th lineage node (causal-depth aggregates \
           stay exact regardless); 1 stores everything up to the capacity \
           bound.")

(* The lineage clock rides the timeline's when a sink is attached, so flow
   arrows land on the same time axis as the spans they cross. *)
let make_lineage ~sample lineage_out (obs : Obs.t option) =
  match lineage_out with
  | None -> None
  | Some _ ->
      if sample < 1 then invalid_arg "--lineage-sample must be at least 1";
      let clock =
        Option.map (fun (o : Obs.t) () -> Obs.Timeline.now o.Obs.timeline) obs
      in
      Some (Obs.Lineage.create ~sample_every:sample ?clock ())

let make_obs ~sample trace_out metrics_out csv_out =
  if trace_out = None && metrics_out = None && csv_out = None then None
  else if sample < 1 then invalid_arg "--sample must be at least 1"
  else Some (Obs.create ~sample_every:sample ())

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let flush_lineage lineage lineage_out =
  match (lineage, lineage_out) with
  | Some l, Some p ->
      write_file p (Obs.Lineage.to_json l);
      pf "lineage written : %s (%d nodes, depth %d, width %d, %d stored, \
          %d dropped)\n"
        p (Obs.Lineage.nodes l) (Obs.Lineage.max_depth l) (Obs.Lineage.width l)
        (Obs.Lineage.stored l) (Obs.Lineage.dropped l)
  | _ -> ()

let flush_obs ?(meta = []) ?lineage obs trace_out metrics_out csv_out =
  match obs with
  | None -> ()
  | Some (o : Obs.t) ->
      Option.iter
        (fun p ->
          write_file p (Obs.Export.chrome_trace ?lineage o.Obs.timeline);
          pf "\ntrace written   : %s (open at ui.perfetto.dev)\n" p)
        trace_out;
      Option.iter
        (fun p ->
          write_file p
            (Obs.Export.metrics_json ~meta
               (Obs.Registry.snapshot o.Obs.registry));
          pf "metrics written : %s\n" p)
        metrics_out;
      Option.iter
        (fun p ->
          write_file p (Obs.Export.timeline_csv o.Obs.timeline);
          pf "csv written     : %s\n" p)
        csv_out

(* Exit status of [run]: 1 on non-termination, 2 on a soundness violation
   (terminated with unvisited vertices), 0 on a sound termination. *)
let finish (st : Anonet.stats) =
  describe_stats st;
  match st.outcome with
  | E.Terminated when st.all_visited -> `Ok 0
  | E.Terminated ->
      pf "\nerror: terminated with unvisited vertices (soundness violation)\n";
      `Ok 2
  | E.Quiescent | E.Step_limit | E.Cancelled ->
      pf "\nerror: protocol did not terminate\n";
      `Ok 1

(* {1 Commands} *)

let run_cmd =
  let protocol_t =
    Arg.(
      value & opt string "general"
      & info [ "p"; "protocol" ] ~docv:"PROTO"
          ~doc:
            (protocol_doc
           ^ " (undirected expects a ring:N / bidirected:N:SEED family)"))
  in
  let run g protocol scheduler payload churn_rate churn_t churn_seed sample
      trace_out metrics_out csv_out lineage_out lineage_sample =
    match Anonet.protocol_of_name protocol with
    | None -> `Error (false, Printf.sprintf "unknown protocol %S" protocol)
    | Some (module P : Runtime.Protocol_intf.PROTOCOL) -> (
        try
          check_payload payload;
          let obs = make_obs ~sample trace_out metrics_out csv_out in
          let lineage = make_lineage ~sample:lineage_sample lineage_out obs in
          let churn = churn_of ~rate:churn_rate ~t:churn_t ~seed:churn_seed g in
          describe_graph g;
          pf "protocol: %s, scheduler: %s, payload: %d bits\n\n" protocol
            (Runtime.Scheduler.describe scheduler)
            payload;
          let module En = Runtime.Engine.Make (P) in
          let r =
            En.run ~scheduler ~payload_bits:payload ~faults:churn ?obs
              ?lineage g
          in
          if not (Runtime.Faults.is_none churn) then
            describe_churn r.E.fault_stats;
          let res = finish (Anonet.stats_of_report r) in
          flush_obs
            ~meta:[ ("command", "run"); ("protocol", protocol) ]
            ?lineage obs trace_out metrics_out csv_out;
          flush_lineage lineage lineage_out;
          res
        with Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a protocol on a generated network and print stats.")
    Term.(
      ret (const run $ family_t $ protocol_t $ scheduler_t $ payload_t
         $ churn_rate_t $ churn_t_t $ churn_seed_t
         $ sample_t $ trace_out_t $ metrics_out_t $ csv_out_t $ lineage_out_t
         $ lineage_sample_t))

let label_cmd =
  let run g scheduler =
    describe_graph g;
    let st, labels = Anonet.assign_labels ~scheduler g in
    describe_stats st;
    pf "\nlabels:\n";
    List.iter
      (fun v -> pf "  %4d : %s\n" v (Intervals.Iset.to_string labels.(v)))
      (G.internal_vertices g);
    0
  in
  Cmd.v
    (Cmd.info "label" ~doc:"Assign unique labels (Section 5) and print them.")
    Term.(const run $ family_t $ scheduler_t)

let sync_cmd =
  let protocol_t =
    Arg.(
      value & opt string "general"
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:protocol_doc)
  in
  let run g protocol payload =
    match Anonet.protocol_of_name protocol with
    | None -> `Error (false, Printf.sprintf "unknown protocol %S" protocol)
    | Some (module P : Runtime.Protocol_intf.PROTOCOL) -> (
        let module S = Runtime.Engine.Make (P) in
        try
          check_payload payload;
          describe_graph g;
          pf "protocol: %s (synchronous rounds), payload: %d bits\n\n"
            protocol payload;
          let r = S.run ~scheduler:Rounds ~payload_bits:payload g in
          pf "rounds           : %d\n" r.rounds;
          describe_stats (Anonet.stats_of_report r);
          `Ok 0
        with Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:"Run a protocol under the synchronous model and report rounds.")
    Term.(ret (const run $ family_t $ protocol_t $ payload_t))

let map_cmd =
  let dot_t =
    Arg.(value & flag & info [ "dot" ] ~doc:"Also print the reconstruction as DOT.")
  in
  let run g scheduler dot =
    describe_graph g;
    let st, map = Anonet.map_network ~scheduler g in
    describe_stats st;
    match map with
    | Error e ->
        pf "\nmap extraction: %s\n" e;
        1
    | Ok m ->
        pf "\nreconstruction: |V|=%d |E|=%d isomorphic-to-input=%b\n"
          (G.n_vertices m.Anonet.Mapping.graph)
          (G.n_edges m.Anonet.Mapping.graph)
          (Anonet.Mapping.map_isomorphic m g);
        if dot then
          pf "\n%s"
            (G.Dot.to_dot ~name:"map"
               ~vertex_label:(fun v ->
                 match m.Anonet.Mapping.labels.(v) with
                 | Some iv -> Intervals.Interval.to_string iv
                 | None -> if v = 0 then "s" else "t")
               m.Anonet.Mapping.graph);
        0
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Extract the full topology (mapping protocol).")
    Term.(const run $ family_t $ scheduler_t $ dot_t)

let trace_cmd =
  let limit_t =
    Arg.(value & opt int 60 & info [ "limit" ] ~docv:"N" ~doc:"Max deliveries to print.")
  in
  let lineage_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "lineage" ] ~docv:"FILE"
          ~doc:
            "Summarize a causal-lineage JSON file written by --lineage-out \
             (nodes, causal depth, width, top critical edges, the critical \
             path) instead of running a broadcast; --family is ignored.")
  in
  (* [trace --lineage] wants no network, so the family becomes optional
     here — its absence is an error only on the broadcast path. *)
  let family_opt_t =
    Arg.(
      value
      & opt (some family_conv) None
      & info [ "f"; "family" ] ~docv:"FAMILY" ~doc:family_doc)
  in
  let summarize_lineage path limit =
    let module J = Obs.Json in
    match
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with
    | exception Sys_error e -> `Error (false, e)
    | s -> (
        match J.parse s with
        | Error pos ->
            `Error (false, Printf.sprintf "%s: invalid JSON at byte %d" path pos)
        | Ok v ->
            let geti name =
              match Option.bind (J.member name v) J.to_int_opt with
              | Some i -> i
              | None -> 0
            in
            pf "lineage summary  : %s\n" path;
            pf "nodes            : %d (%d stored, %d dropped, sample every \
                %d, capacity %d)\n"
              (geti "nodes") (geti "stored") (geti "dropped")
              (geti "sample_every") (geti "capacity");
            pf "causal depth     : %d (deepest node %d)\n" (geti "max_depth")
              (geti "deepest");
            pf "causal width     : %d (busiest depth layer)\n" (geti "width");
            (match J.member "critical_edges" v with
            | Some (J.Array (_ :: _ as edges)) ->
                pf "\ntop critical edges (edge, deepest delivery it carried):\n";
                List.iteri
                  (fun i e ->
                    match e with
                    | J.Array [ a; b ] when i < 8 -> (
                        match (J.to_int_opt a, J.to_int_opt b) with
                        | Some e', Some d ->
                            pf "  edge %6d : depth %d\n" e' d
                        | _ -> ())
                    | _ -> ())
                  edges
            | _ -> ());
            (match J.member "critical_path" v with
            | Some (J.Array (_ :: _ as steps)) ->
                pf "\ncritical path (deepest first):\n";
                pf "  %10s %10s %8s %8s %6s\n" "node" "parent" "edge" "vertex"
                  "depth";
                List.iteri
                  (fun i st ->
                    match st with
                    | J.Array [ id; p; e; vx; d ] when i < limit -> (
                        match
                          ( J.to_int_opt id, J.to_int_opt p, J.to_int_opt e,
                            J.to_int_opt vx, J.to_int_opt d )
                        with
                        | Some id, Some p, Some e, Some vx, Some d ->
                            pf "  %10d %10d %8d %8d %6d\n" id p e vx d
                        | _ -> ())
                    | _ -> ())
                  steps
            | _ -> ());
            `Ok 0)
  in
  let run g scheduler limit lineage =
    match (lineage, g) with
    | Some path, _ -> summarize_lineage path limit
    | None, None ->
        `Error (true, "required option --family is missing (or use --lineage)")
    | None, Some g ->
        describe_graph g;
        let tr = Runtime.Trace.create () in
        let r =
          Anonet.General_engine.run ~scheduler
            ~on_deliver:(Runtime.Trace.hook tr) g
        in
        pf "general broadcast under %s: %s after %d deliveries\n\n"
          (Runtime.Scheduler.describe scheduler)
          (match r.outcome with
          | E.Terminated -> "terminated"
          | E.Quiescent -> "quiescent"
          | E.Step_limit -> "step limit"
          | E.Cancelled -> "cancelled")
          r.deliveries;
        print_string (Runtime.Trace.render ~limit tr);
        `Ok 0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the general broadcast and print the delivery-by-delivery log, \
          or summarize a causal-lineage file (--lineage).")
    Term.(ret (const run $ family_opt_t $ scheduler_t $ limit_t $ lineage_t))

let dot_cmd =
  let run g =
    print_string (G.Dot.to_dot g);
    0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Print the generated network in Graphviz DOT syntax.")
    Term.(const run $ family_t)

let faults_cmd =
  let protocol_t =
    Arg.(
      value & opt string "general"
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:protocol_doc)
  in
  let fprob name doc =
    Arg.(value & opt float 0.0 & info [ name ] ~docv:"P" ~doc)
  in
  let drop_t = fprob "drop" "Per-copy drop probability." in
  let duplicate_t =
    fprob "duplicate" "Geometric duplication parameter (mean 1/(1-P) copies)."
  in
  let corrupt_t = fprob "corrupt" "Per-copy single-bit corruption probability." in
  let kill_t = fprob "kill" "Per-edge permanent kill probability." in
  let delay_t =
    Arg.(
      value & opt int 0
      & info [ "delay" ] ~docv:"D" ~doc:"Max per-copy delivery delay (uniform 0..D).")
  in
  let seeds_t =
    Arg.(
      value & opt int 10
      & info [ "seeds" ] ~docv:"N" ~doc:"Fault seeds to sweep (1..N).")
  in
  let redundancy_t =
    Arg.(
      value & opt int 1
      & info [ "r"; "redundancy" ] ~docv:"K"
          ~doc:
            "Wrap the protocol in the Redundant(K) resilience layer: K-repetition \
             sends, receive-side dedup, and a checksum that turns bit corruption \
             into detected drops.")
  in
  let run g protocol scheduler drop duplicate delay corrupt kill seeds k
      sample trace_out metrics_out csv_out lineage_out lineage_sample =
    match Anonet.protocol_of_name protocol with
    | None -> `Error (false, Printf.sprintf "unknown protocol %S" protocol)
    | Some (module P : Runtime.Protocol_intf.PROTOCOL) -> (
        try
          (* Validate the plan before any output so a bad rate yields a clean
             one-line error instead of a half-printed table. *)
          let (_ : Runtime.Faults.plan) =
            Runtime.Faults.plan ~drop ~duplicate ~max_delay:delay ~corrupt ~kill
              ()
          in
          let (module Q : Runtime.Protocol_intf.PROTOCOL) =
            if k <= 1 then (module P)
            else
              (module Anonet.Redundant.Make
                        (struct
                          let k = k
                        end)
                        (P))
          in
          (* One sink across the sweep: counters accumulate over all seeds. *)
          let obs = make_obs ~sample trace_out metrics_out csv_out in
          let module En = Runtime.Engine.Make (Q) in
          (* Lineage over a sweep: a fresh recorder per seed, keeping the
             deepest causal forest observed — the sweep's worst-case chain
             is what a profiler wants from a fault campaign. *)
          let lineage_best = ref None in
          describe_graph g;
          pf "protocol: %s, scheduler: %s\n" Q.name
            (Runtime.Scheduler.describe scheduler);
          pf "faults  : drop=%.3f duplicate=%.3f delay<=%d corrupt=%.3f kill=%.3f\n\n"
            drop duplicate delay corrupt kill;
          let n = G.n_vertices g in
          pf "%5s %12s %9s %9s %9s | %7s %6s %7s %7s %7s %5s\n" "seed" "outcome"
            "visited" "delivered" "in-flight" "dropped" "extra" "delayed" "corrupt"
            "garbled" "dead";
          let sound = ref 0 and false_term = ref 0 in
          for seed = 1 to seeds do
            let faults =
              Runtime.Faults.create ~drop ~duplicate ~max_delay:delay ~corrupt
                ~kill ~seed ()
            in
            let lineage = make_lineage ~sample:lineage_sample lineage_out obs in
            let r = En.run ~scheduler ~faults ?obs ?lineage g in
            (match (lineage, !lineage_best) with
            | Some l, Some b
              when Obs.Lineage.max_depth l <= Obs.Lineage.max_depth b ->
                ()
            | Some _, _ -> lineage_best := lineage
            | None, _ -> ());
            let visited =
              Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 r.visited
            in
            let all = Array.for_all (fun v -> v) r.visited in
            (match r.outcome with
            | E.Terminated -> if all then incr sound else incr false_term
            | E.Quiescent | E.Step_limit | E.Cancelled -> ());
            let f = r.fault_stats in
            pf "%5d %12s %6d/%-2d %9d %9d | %7d %6d %7d %7d %7d %5d\n" seed
              (match r.outcome with
              | E.Terminated -> if all then "terminated" else "FALSE-TERM"
              | E.Quiescent -> "quiescent"
              | E.Step_limit -> "step-limit"
              | E.Cancelled -> "cancelled")
              visited n r.deliveries r.final_in_flight f.dropped_copies
              f.extra_copies f.delayed_copies f.corrupted_deliveries
              f.garbled_drops
              (List.length f.dead_edges)
          done;
          pf "\nsound terminations: %d/%d   false terminations: %d\n" !sound seeds
            !false_term;
          flush_obs
            ~meta:
              [
                ("command", "faults");
                ("protocol", protocol);
                ("seeds", string_of_int seeds);
              ]
            ?lineage:!lineage_best obs trace_out metrics_out csv_out;
          flush_lineage !lineage_best lineage_out;
          `Ok (if !false_term > 0 then 1 else 0)
        with Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Sweep fault seeds over one protocol/network/fault-plan combination \
          and print a per-seed outcome table with fault counters.")
    Term.(
      ret
        (const run $ family_t $ protocol_t $ scheduler_t $ drop_t
       $ duplicate_t $ delay_t $ corrupt_t $ kill_t $ seeds_t $ redundancy_t
       $ sample_t $ trace_out_t $ metrics_out_t $ csv_out_t
       $ lineage_out_t $ lineage_sample_t))

let check_cmd =
  let max_edges_t =
    Arg.(
      value & opt int 8
      & info [ "max-edges" ] ~docv:"E"
          ~doc:"Only check suite instances with at most $(docv) edges.")
  in
  let protocol_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "p"; "protocol" ] ~docv:"PROTO"
          ~doc:
            "Only check this protocol (tree | tree-naive | dag | general | \
             labeling | mapping).")
  in
  let max_states_t =
    Arg.(
      value & opt int 200_000
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            "Distinct-state budget per instance; beyond it the search degrades \
             to seeded bounded random walks.")
  in
  let sabotage_t =
    Arg.(
      value & flag
      & info [ "sabotage" ]
          ~doc:
            "Check the sabotaged-split negative control instead of the suite.  \
             Its split ships the whole commodity on one out-edge, so this must \
             find a false-termination counterexample and exit 1.")
  in
  let run max_edges protocol max_states sabotage domains sample
      trace_out metrics_out csv_out =
    let module X = Runtime.Explore in
    let module CS = Anonet.Check_suite in
    if sample < 1 then `Error (false, "--sample must be at least 1")
    else if domains < 1 then `Error (false, "--domains must be at least 1")
    else
    let obs = make_obs ~sample trace_out metrics_out csv_out in
    let cases =
      if sabotage then [ CS.sabotaged () ]
      else
        List.filter
          (fun (c : CS.case) ->
            match protocol with None -> true | Some p -> p = c.c_protocol)
          (CS.cases ~max_edges ())
    in
    match cases with
    | [] -> `Error (false, "no suite case matches the given filters")
    | _ ->
        pf "%-12s %-16s %3s %8s %8s %8s %6s %s\n" "protocol" "family" "|E|"
          "states" "transit" "pruned" "walks" "status";
        let bad = ref 0 in
        let failures = ref [] in
        (* Each instance explores independently; the pool spreads them over
           domains and hands the results back in suite order.  The shared
           sink is safe: explorer counters flush atomically and the
           timeline ring is multi-writer. *)
        let explored =
          Par.Pool.map_list ~domains
            (fun (c : CS.case) -> (c, c.c_explore ~max_states ?obs ()))
            cases
        in
        List.iter
          (fun ((c : CS.case), (r : X.result)) ->
            let status =
              match r.violations with
              | [] -> if r.stats.truncated then "ok (bounded)" else "ok"
              | v :: _ ->
                  incr bad;
                  failures := (c, v) :: !failures;
                  "VIOLATION"
            in
            pf "%-12s %-16s %3d %8d %8d %7.1f%% %6d %s\n" c.c_protocol c.c_family
              c.c_edges r.stats.states r.stats.transitions
              (100.0 *. X.pruned_fraction r.stats)
              r.stats.walks status)
          explored;
        List.iter
          (fun ((c : CS.case), (v : X.violation)) ->
            pf "\n%s on %s: %s\n" c.c_protocol c.c_family (X.describe_kind v.kind);
            pf "schedule: [%s]\n"
              (String.concat "; " (List.map string_of_int v.schedule));
            let rep = c.c_replay v.schedule in
            pf "replayed through the engine: %s, %d deliveries, unvisited: [%s]\n"
              (match rep.r_outcome with
              | E.Terminated -> "terminated"
              | E.Quiescent -> "quiescent"
              | E.Step_limit -> "step limit"
              | E.Cancelled -> "cancelled")
              rep.r_deliveries
              (String.concat "; " (List.map string_of_int rep.r_unreached));
            print_string rep.r_trace)
          (List.rev !failures);
        pf "\n%d/%d instances clean\n" (List.length cases - !bad)
          (List.length cases);
        flush_obs
          ~meta:
            [
              ("command", "check");
              ("instances", string_of_int (List.length cases));
            ]
          obs trace_out metrics_out csv_out;
        `Ok (if !bad > 0 then 1 else 0)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check every protocol against every asynchronous schedule on \
          the small-instance suite: exhaustive DFS over delivery \
          interleavings with sleep-set partial-order reduction, checking \
          conservation laws, broadcast soundness and quiescence at every \
          state.  Violations are replayed through the real engine and exit \
          with status 1.")
    Term.(
      ret
        (const run $ max_edges_t $ protocol_t $ max_states_t
       $ sabotage_t $ domains_t $ sample_t $ trace_out_t $ metrics_out_t
       $ csv_out_t))

let obs_cmd =
  let protocol_t =
    Arg.(
      value & opt string "general"
      & info [ "p"; "protocol" ] ~docv:"PROTO"
          ~doc:protocol_doc)
  in
  let run g protocol scheduler payload sample trace_out metrics_out csv_out =
    match Anonet.protocol_of_name protocol with
    | None -> `Error (false, Printf.sprintf "unknown protocol %S" protocol)
    | Some (module P : Runtime.Protocol_intf.PROTOCOL) -> (
        try
          if sample < 1 then invalid_arg "--sample must be at least 1";
          check_payload payload;
          let o = Obs.create ~sample_every:sample () in
          describe_graph g;
          pf "protocol: %s, scheduler: %s, payload: %d bits, sample every %d\n\n"
            protocol
            (Runtime.Scheduler.describe scheduler)
            payload sample;
          let module En = Runtime.Engine.Make (P) in
          let r = En.run ~scheduler ~payload_bits:payload ~obs:o g in
          pf "outcome : %s, %d deliveries, %d total bits\n"
            (match r.E.outcome with
            | E.Terminated -> "terminated"
            | E.Quiescent -> "quiescent"
            | E.Step_limit -> "step limit"
            | E.Cancelled -> "cancelled")
            r.E.deliveries r.E.total_bits;
          let snap = Obs.Registry.snapshot o.Obs.registry in
          pf "\n%-28s %14s\n" "counter / gauge" "value";
          List.iter
            (fun (name, e) ->
              match e with
              | Obs.Registry.Counter v -> pf "%-28s %14d\n" name v
              | Obs.Registry.Gauge v -> pf "%-28s %14d  (gauge)\n" name v
              | Obs.Registry.Histogram _ -> ())
            snap;
          let histograms =
            List.filter
              (fun (_, e) ->
                match e with Obs.Registry.Histogram _ -> true | _ -> false)
              snap
          in
          if histograms <> [] then begin
            pf "\n%-28s %10s %14s %12s %s\n" "histogram" "count" "sum" "mean"
              "p-bucket range";
            List.iter
              (fun (name, e) ->
                match e with
                | Obs.Registry.Histogram { h_count; h_sum; h_buckets } ->
                    let top =
                      List.fold_left
                        (fun acc (i, c) ->
                          match acc with
                          | Some (_, c') when c' >= c -> acc
                          | _ -> Some (i, c))
                        None h_buckets
                    in
                    pf "%-28s %10d %14d %12.1f %s\n" name h_count h_sum
                      (if h_count = 0 then 0.0
                       else float_of_int h_sum /. float_of_int h_count)
                      (match top with
                      | None -> "-"
                      | Some (i, _) ->
                          Printf.sprintf "[%d,%d]" (Obs.Registry.bucket_lo i)
                            (Obs.Registry.bucket_hi i))
                | _ -> ())
              histograms
          end;
          let tl = o.Obs.timeline in
          pf "\ntimeline : %d events recorded, %d dropped, %d track(s), \
              capacity %d\n"
            (Obs.Timeline.recorded tl) (Obs.Timeline.dropped tl)
            (List.length (Obs.Timeline.tracks tl))
            (Obs.Timeline.capacity tl);
          flush_obs
            ~meta:[ ("command", "obs"); ("protocol", protocol) ]
            (Some o) trace_out metrics_out csv_out;
          `Ok 0
        with Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Run a protocol fully instrumented and print a telemetry summary: \
          every counter, gauge and histogram the engine recorded, plus \
          timeline statistics.  Combine with --trace-out/--metrics-out/\
          --csv-out to export the raw data.")
    Term.(
      ret
        (const run $ family_t $ protocol_t $ scheduler_t $ payload_t
       $ sample_t $ trace_out_t $ metrics_out_t $ csv_out_t))

(* {1 Chaos witnesses}

   What the [chaos] and [churn] searches print: the tally, then every
   witness with the verdict of a replay of its recorded schedule, and the
   result JSON when asked for. *)

let print_witnesses ?json_out cfg runner graphs (res : Runtime.Chaos.result) =
  let module Ch = Runtime.Chaos in
  pf "trials: %d   hits: %d   duplicates: %d   witnesses: %d \
      (unsound %d, starved %d, livelocked %d)\n"
    res.Ch.trials_run res.Ch.hits res.Ch.duplicates
    (List.length res.Ch.witnesses)
    res.Ch.unsound res.Ch.starved res.Ch.livelocked;
  List.iter
    (fun (w : Ch.witness) ->
      let gc =
        List.find (fun gc -> gc.Runtime.Chaos.g_name = w.Ch.w_graph) graphs
      in
      let confirmed = Ch.confirms w (Ch.replay cfg runner gc w) in
      pf "\n%s on %s (trial %d, shrunk %d -> %d atoms)%s\n"
        (Ch.describe_kind w.Ch.w_kind)
        w.Ch.w_graph w.Ch.w_trial w.Ch.w_original_size
        (List.length w.Ch.w_faults)
        (if confirmed then ", replay confirms" else " — REPLAY DIVERGED");
      List.iter (fun f -> pf "  %s\n" (Ch.describe_fault f)) w.Ch.w_faults;
      pf "  missing: [%s]\n"
        (String.concat "; " (List.map string_of_int w.Ch.w_missing)))
    res.Ch.witnesses;
  Option.iter
    (fun p ->
      write_file p (Ch.to_json res);
      pf "\nresult written  : %s\n" p)
    json_out

(* Replay the first witness instrumented, so the Perfetto trace shows the
   violating schedule itself, churn instants included, and the lineage the
   causal chain that starved the missing vertices. *)
let replay_first ?obs ?lineage cfg runner graphs (res : Runtime.Chaos.result) =
  match res.Runtime.Chaos.witnesses with
  | w :: _ when obs <> None || lineage <> None ->
      let gc =
        List.find
          (fun gc -> gc.Runtime.Chaos.g_name = w.Runtime.Chaos.w_graph)
          graphs
      in
      ignore (Runtime.Chaos.replay ?obs ?lineage cfg runner gc w)
  | _ -> ()

let exit_of (res : Runtime.Chaos.result) =
  if res.Runtime.Chaos.unsound > 0 then 2
  else if res.starved > 0 || res.livelocked > 0 then 1
  else 0

let chaos_cmd =
  let module Ch = Runtime.Chaos in
  let protocol_t =
    Arg.(
      value & opt string "general"
      & info [ "p"; "protocol" ] ~docv:"PROTO"
          ~doc:protocol_doc)
  in
  let redundancy_t =
    Arg.(
      value & opt int 3
      & info [ "k"; "redundancy" ] ~docv:"K"
          ~doc:
            "Wrap the protocol behind Redundant($(docv)); 1 runs it bare.")
  in
  let supervise_t =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Arm the self-healing supervisor on every run the search \
             performs: per-vertex checkpointing (so crash amnesia degrades \
             to restore-from-checkpoint) and retransmission with \
             exponential backoff at quiescence.")
  in
  let budget_t =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"N"
          ~doc:"Random fault sets tried per (protocol, graph family).")
  in
  let max_faults_t =
    Arg.(
      value & opt int 4
      & info [ "max-faults" ] ~docv:"N"
          ~doc:"Maximum atoms (edge kills + vertex crashes) per fault set.")
  in
  let seed_t =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Search seed.")
  in
  let p_edge_t =
    Arg.(
      value & opt float 0.5
      & info [ "p-edge" ] ~docv:"P"
          ~doc:"Probability a generated atom is an edge kill (vs a crash).")
  in
  let recoveries_t =
    Arg.(
      value
      & opt string "stop,amnesia,restore"
      & info [ "recoveries" ] ~docv:"LIST"
          ~doc:
            "Comma-separated crash recovery modes the generator draws from \
             (stop | amnesia | restore).")
  in
  let json_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Write the full search result (witnesses included) as JSON.")
  in
  let recovery_of_name = function
    | "stop" -> Some Runtime.Vfaults.Stop
    | "amnesia" -> Some Runtime.Vfaults.Amnesia
    | "restore" -> Some Runtime.Vfaults.Restore
    | _ -> None
  in
  let run protocol k supervise budget max_faults seed p_edge recoveries
      domains churn_rate churn_t json_out sample trace_out metrics_out csv_out =
    match Anonet.protocol_of_name protocol with
    | None -> `Error (false, Printf.sprintf "unknown protocol %S" protocol)
    | Some (module P : Runtime.Protocol_intf.PROTOCOL) -> (
        try
          if k < 1 then invalid_arg "--redundancy must be at least 1";
          if budget < 1 then invalid_arg "--budget must be at least 1";
          if domains < 1 then invalid_arg "--domains must be at least 1";
          let recoveries =
            List.map
              (fun r ->
                match recovery_of_name (String.trim r) with
                | Some m -> m
                | None -> invalid_arg (Printf.sprintf "unknown recovery %S" r))
              (String.split_on_char ',' recoveries)
          in
          if recoveries = [] then invalid_arg "--recoveries must be non-empty";
          let supervisor =
            if supervise then Some Runtime.Supervisor.default else None
          in
          let cfg =
            Ch.config ~budget ~max_faults ~seed ~p_edge ~recoveries ?supervisor
              ~p_churn:churn_rate ?churn_t ()
          in
          let runner = Anonet.Resilient.chaos_runner ~k (module P) in
          let graphs = Anonet.Resilient.chaos_graphs () in
          pf "chaos search: %s, %d fault sets x %d families, <=%d atoms, \
              seed %d%s\n\n"
            runner.Ch.r_name budget (List.length graphs) max_faults seed
            (if supervise then ", supervised" else "");
          let res =
            Ch.run ~map:(Par.map ~domains ()) cfg ~runners:[ runner ] ~graphs
          in
          print_witnesses ?json_out cfg runner graphs res;
          let obs = make_obs ~sample trace_out metrics_out csv_out in
          replay_first ?obs cfg runner graphs res;
          flush_obs
            ~meta:
              [
                ("command", "chaos");
                ("protocol", protocol);
                ("witnesses", string_of_int (List.length res.Ch.witnesses));
              ]
            obs trace_out metrics_out csv_out;
          `Ok (exit_of res)
        with Invalid_argument msg -> `Error (false, msg))
  in
  let chaos_churn_rate_t =
    Arg.(
      value & opt float 0.0
      & info [ "churn-rate" ] ~docv:"P"
          ~doc:
            "Probability a generated atom is a churn event (a bounded edge \
             outage or an initially-absent edge appearing mid-run) instead \
             of a kill/crash.  0 keeps the generator's classic PRNG stream, \
             so existing seeds reproduce their witnesses byte-for-byte.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Search the joint edge-kill x vertex-crash x edge-churn fault space \
          for minimal fault sets that break broadcast soundness or liveness: \
          seeded random generation, delta-debugging shrink, canonical dedup, \
          and a replayable delivery schedule per witness.  Exits 2 on a \
          soundness witness, 1 on starvation or livelock only, 0 when clean.")
    Term.(
      ret
        (const run $ protocol_t $ redundancy_t $ supervise_t $ budget_t
       $ max_faults_t $ seed_t $ p_edge_t $ recoveries_t $ domains_t
       $ chaos_churn_rate_t $ churn_t_t $ json_out_t $ sample_t $ trace_out_t
       $ metrics_out_t $ csv_out_t))

let churn_cmd =
  let module Ch = Runtime.Chaos in
  let amnesiac_t =
    Arg.(
      value & flag
      & info [ "amnesiac" ]
          ~doc:
            "Run the dynamic-network negative control instead: bare amnesiac \
             flooding on a random-dynamic footprint under an all-churn \
             search.  A churned-in back edge closes a cycle and tokens \
             circulate forever, so the search must find a livelock witness \
             and exit 1.")
  in
  let budget_t =
    Arg.(
      value & opt int 40
      & info [ "budget" ] ~docv:"N"
          ~doc:"Random fault sets tried per graph family.")
  in
  let seed_t =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"S" ~doc:"Search seed.")
  in
  let rate_t =
    Arg.(
      value & opt float 0.5
      & info [ "churn-rate" ] ~docv:"P"
          ~doc:"Probability a generated atom is a churn event.")
  in
  let t_interval_t =
    Arg.(
      value & opt int 4
      & info [ "churn-t" ] ~docv:"T"
          ~doc:
            "T-interval connectivity window: witnesses report how often \
             their churn script breaches it (accounting only; fates and \
             replays are unchanged).")
  in
  let json_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Write the full search result (witnesses included) as JSON.")
  in
  let run amnesiac budget seed rate t_interval json_out sample trace_out
      metrics_out csv_out lineage_out lineage_sample =
    try
      if budget < 1 then invalid_arg "--budget must be at least 1";
      (* Two packaged searches over the dynamic-network regime: the hardened
         stack (Redundant(3) + supervisor, joint kill x crash x churn space)
         that must stay sound, and the amnesiac negative control that must
         livelock.  Both replay their witnesses byte-for-byte. *)
      let cfg, runner, graphs =
        if amnesiac then
          ( Ch.config ~budget ~seed ~p_churn:1.0 ~max_faults:1
              ~step_limit:10_000 ~churn_t:t_interval (),
            Anonet.Resilient.chaos_runner ~k:1 (module Anonet.Amnesiac_flood),
            [ Anonet.Check_suite.dynamic_case ~n:12 ] )
        else
          ( Ch.config ~budget ~seed ~p_churn:rate ~churn_t:t_interval
              ~supervisor:Runtime.Supervisor.default (),
            Anonet.Resilient.chaos_runner ~k:3
              (module Anonet.General_broadcast),
            Anonet.Resilient.chaos_graphs ()
            @ [ Anonet.Check_suite.dynamic_case ~n:12 ] )
      in
      pf "churn search: %s, %d fault sets x %d families, churn rate %.2f, \
          T = %d, seed %d%s\n\n"
        runner.Ch.r_name budget (List.length graphs)
        (if amnesiac then 1.0 else rate)
        t_interval seed
        (if amnesiac then " (amnesiac negative control)" else ", supervised");
      let res = Ch.run cfg ~runners:[ runner ] ~graphs in
      print_witnesses ?json_out cfg runner graphs res;
      let obs = make_obs ~sample trace_out metrics_out csv_out in
      let lineage = make_lineage ~sample:lineage_sample lineage_out obs in
      replay_first ?obs ?lineage cfg runner graphs res;
      flush_obs
        ~meta:
          [
            ("command", "churn");
            ("control", if amnesiac then "amnesiac" else "supervised");
            ("witnesses", string_of_int (List.length res.Ch.witnesses));
          ]
        ?lineage obs trace_out metrics_out csv_out;
      flush_lineage lineage lineage_out;
      `Ok (exit_of res)
    with Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Search the dynamic-network fault space: edge churn (bounded \
          outages, mid-run edge insertions) joint with kills and crashes, \
          under the T-interval connectivity contract.  The default hardened \
          stack (Redundant(3) + supervisor) must stay sound; --amnesiac \
          runs the negative control that must livelock.  Exits 2 on a \
          soundness witness, 1 on starvation or livelock, 0 when clean.")
    Term.(
      ret
        (const run $ amnesiac_t $ budget_t $ seed_t $ rate_t $ t_interval_t
       $ json_out_t $ sample_t $ trace_out_t $ metrics_out_t
       $ csv_out_t $ lineage_out_t $ lineage_sample_t))

(* {1 Serving}

   [anonet serve] hosts the long-lived session service; [anonet client]
   talks to one over its Unix socket — raw request lines, or the packaged
   smoke probe CI runs. *)

let serve_cmd =
  let graph_t =
    Arg.(
      value
      & opt_all string [ "small=comb:8" ]
      & info [ "g"; "graph" ] ~docv:"NAME=FAMILY"
          ~doc:
            ("Add a named graph to the server table (repeatable).  FAMILY \
              grammar: " ^ F.spec_doc ^ "."))
  in
  let socket_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix domain socket at $(docv).")
  in
  let stdio_t =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve stdin/stdout as connection 0 (NDJSON request per line); \
             EOF shuts down when no socket is configured.")
  in
  let workers_t =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains executing sessions concurrently.")
  in
  let max_queue_t =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission-queue bound; submissions beyond it get the typed \
             'overloaded' error immediately.")
  in
  let credits_t =
    Arg.(
      value & opt int 32
      & info [ "credits" ] ~docv:"N"
          ~doc:
            "Max unfinished sessions per connection; beyond it: 'no_credit'.")
  in
  let step_limit_t =
    Arg.(
      value & opt int 10_000_000
      & info [ "step-limit" ] ~docv:"N"
          ~doc:"Default delivery budget for sessions that name none.")
  in
  let journal_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append-only checksummed write-ahead log.  Every submit is \
             journaled before its acknowledgement; on restart the log is \
             replayed (torn tails truncated, completed results re-executed \
             and digest-verified, acknowledged-but-unfinished submits \
             finished) before serving resumes.")
  in
  let no_sync_t =
    Arg.(
      value & flag
      & info [ "journal-no-sync" ]
          ~doc:
            "Skip the fsync on journal appends (throwaway servers, \
             benchmarking the baseline).")
  in
  let run graphs socket stdio workers max_queue credits step_limit journal
      no_sync =
    let parse_pair spec =
      match String.index_opt spec '=' with
      | Some i ->
          Ok
            ( String.sub spec 0 i,
              String.sub spec (i + 1) (String.length spec - i - 1) )
      | None -> Error (Printf.sprintf "--graph %S is not NAME=FAMILY" spec)
    in
    let rec parse_pairs acc = function
      | [] -> Ok (List.rev acc)
      | spec :: rest -> (
          match parse_pair spec with
          | Ok p -> parse_pairs (p :: acc) rest
          | Error _ as e -> e)
    in
    match parse_pairs [] graphs with
    | Error e -> `Error (false, e)
    | Ok pairs -> (
        if socket = None && not stdio then
          `Error (false, "need --socket PATH, --stdio, or both")
        else
          let config =
            {
              Serve.Server.default_config with
              graphs = pairs;
              workers;
              max_queue;
              credits;
              step_limit;
              journal;
              journal_sync = not no_sync;
            }
          in
          match Serve.Server.create ~config () with
          | Error e -> `Error (false, e)
          | Ok server ->
              if not stdio then begin
                pf "anonet serve: graphs [%s], %d workers, queue %d\n"
                  (String.concat "; " (List.map fst pairs))
                  workers max_queue;
                Option.iter
                  (fun (r : Serve.Server.recovery) ->
                    pf
                      "journal recovery: %d replayed (%d verified, %d \
                       mismatched), %d completed, %d cancelled, %d failed, \
                       %d orphans, %d unreplayable%s\n"
                      r.Serve.Server.rec_replayed r.Serve.Server.rec_verified
                      r.Serve.Server.rec_mismatched
                      r.Serve.Server.rec_completed
                      r.Serve.Server.rec_cancelled r.Serve.Server.rec_failed
                      r.Serve.Server.rec_orphans
                      r.Serve.Server.rec_unreplayable
                      (if r.Serve.Server.rec_torn then " (torn tail truncated)"
                       else ""))
                  (Serve.Server.recovery server);
                Option.iter (pf "listening on %s\n%!") socket
              end;
              Serve.Server.serve_loop ?socket ~stdio server;
              `Ok 0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Host the long-lived session service: graphs loaded once, NDJSON \
          submit/status/result/cancel/metrics/shutdown over stdio and/or a \
          Unix socket, bounded admission, per-connection credits, live \
          rolled-up metrics.")
    Term.(
      ret
        (const run $ graph_t $ socket_t $ stdio_t $ workers_t $ max_queue_t
       $ credits_t $ step_limit_t $ journal_t $ no_sync_t))

let client_cmd =
  let socket_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Server's Unix socket path.")
  in
  let smoke_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "smoke" ] ~docv:"N"
          ~doc:
            "Run the end-to-end smoke probe: N mixed sessions (flood, \
             counting, churned general; every seed twice), then verify \
             byte-determinism and that the server's merged metrics \
             reconcile with the collected results.  Exits nonzero on any \
             failure.")
  in
  let shutdown_t =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Send a shutdown request after everything else.")
  in
  let lines_t =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:"Raw NDJSON request lines, sent in order; responses print to \
                stdout.")
  in
  let retry_t =
    Arg.(
      value & opt int 0
      & info [ "retry" ] ~docv:"N"
          ~doc:
            "Retry raw requests up to N times on 'overloaded' answers and \
             refused connections, with capped exponential backoff plus \
             seeded jitter (the supervisor's retransmission schedule).  0 \
             disables.")
  in
  let retry_base_t =
    Arg.(
      value & opt int 50
      & info [ "retry-base-ms" ] ~docv:"MS"
          ~doc:"Backoff base for --retry; doubles each round, jittered.")
  in
  let run socket smoke shutdown lines retries retry_base_ms =
    let retry =
      { Serve.Client.default_retry with r_attempts = retries;
        r_base_ms = retry_base_ms }
    in
    let connect () =
      if retries > 0 then Serve.Client.connect_retry ~retry socket
      else Serve.Client.connect socket
    in
    let send_lines () =
      match lines with
      | [] -> Ok ()
      | lines -> (
          match connect () with
          | Error e -> Error e
          | Ok c ->
              let rec go = function
                | [] ->
                    Serve.Client.close c;
                    Ok ()
                | l :: rest -> (
                    match
                      if retries > 0 then
                        Serve.Client.request_retry ~retry c l
                      else Serve.Client.request c l
                    with
                    | Ok resp ->
                        print_endline resp;
                        go rest
                    | Error e ->
                        Serve.Client.close c;
                        Error e)
              in
              go lines)
    in
    let run_smoke () =
      match smoke with
      | None -> Ok true
      | Some n -> (
          match Serve.Client.smoke ~sessions:n ~socket () with
          | Error e -> Error e
          | Ok r ->
              pf
                "smoke: %d sessions, %d results, determinism=%b \
                 reconcile=%b (sum=%d metrics=%d)\n"
                r.Serve.Client.sessions r.Serve.Client.ok_results
                r.Serve.Client.determinism_ok r.Serve.Client.reconcile_ok
                r.Serve.Client.sum_deliveries r.Serve.Client.metrics_deliveries;
              Ok
                (r.Serve.Client.determinism_ok && r.Serve.Client.reconcile_ok
                && r.Serve.Client.ok_results = r.Serve.Client.sessions))
    in
    match send_lines () with
    | Error e -> `Error (false, e)
    | Ok () -> (
        match run_smoke () with
        | Error e -> `Error (false, e)
        | Ok healthy ->
            let sd =
              if shutdown then
                match Serve.Client.shutdown ~socket with
                | Ok resp ->
                    print_endline resp;
                    true
                | Error e ->
                    pf "shutdown failed: %s\n" e;
                    false
              else true
            in
            `Ok (if healthy && sd then 0 else 1))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running 'anonet serve' over its Unix socket: send raw \
          request lines, run the smoke probe, or ask it to shut down.")
    Term.(
      ret
        (const run $ socket_t $ smoke_t $ shutdown_t $ lines_t $ retry_t
       $ retry_base_t))

let main_cmd =
  let doc =
    "Distributed broadcasting and mapping protocols in directed anonymous \
     networks (Langberg, Schwartz & Bruck, PODC 2007)"
  in
  Cmd.group (Cmd.info "anonet" ~version:"1.0.0" ~doc)
    [ run_cmd; sync_cmd; label_cmd; map_cmd; trace_cmd; dot_cmd; faults_cmd;
      check_cmd; obs_cmd; chaos_cmd; churn_cmd; serve_cmd; client_cmd ]

let () = exit (Cmd.eval' main_cmd)
