(* The engine against its frozen oracle.

   [engine_oracle.txt] holds, one line per case, what the reference
   executor produced for a fixed matrix of runs: every field of the report
   (the per-vertex states through [P.digest]), the messages still in flight
   when the run stopped, and the deterministic part of the [engine.*] Obs
   snapshot.  The matrix covers every [Check_suite] protocol under each
   scheduler, edge faults x vertex faults x supervisor x churn, the
   certified flood fast path with its truncated endings, and the lineage
   recorder's stored node stream.  Every run must reproduce its line
   byte-for-byte: the engine may get faster, never different.

   Arrays and digests are recorded as short MD5 prefixes; the scalar
   fields stay readable so a mismatch shows what moved.  Graphs come from
   fixed seeds, and each line carries the graph's own fingerprint, so a
   change in a generator is reported as such rather than as an engine
   regression. *)

module E = Runtime.Engine
module F = Digraph.Families
module L = Obs.Lineage
module Scheduler = Runtime.Scheduler

let md5 s = String.sub (Digest.to_hex (Digest.string s)) 0 12
let ints a = String.concat "," (List.map string_of_int a)

let graph_print g =
  md5
    (Printf.sprintf "%d/%d/%d/%s" (Digraph.n_vertices g) (Digraph.source g)
       (Digraph.terminal g)
       (String.concat ";"
          (List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) (Digraph.edges g))))

let outcome_name = function
  | E.Terminated -> "terminated"
  | E.Quiescent -> "quiescent"
  | E.Step_limit -> "step-limit"
  | E.Cancelled -> "cancelled"

(* {1 Rendering one run} *)

let render_report (type s) (digest : s -> string) (r : s E.report) =
  let arr f a = md5 (String.concat "," (Array.to_list (Array.map f a))) in
  let f = r.E.fault_stats and v = r.E.vfault_stats in
  Printf.sprintf
    "%s d=%d bits=%d edge_max=%d msg_max=%d state_max=%d in_flight=%d/%d \
     distinct=%d edge_msgs=%s edge_bits=%s visited=%s states=%s \
     faults=%d/%d/%d/%d/%d/%d/[%s] vfaults=%d/%d/%d/%d/%d/[%s]/%d/%d \
     churn=%d/%d/%d/%d/%d"
    (outcome_name r.E.outcome) r.E.deliveries r.E.total_bits r.E.max_edge_bits
    r.E.max_message_bits r.E.max_state_bits r.E.max_in_flight
    r.E.final_in_flight r.E.distinct_messages
    (arr string_of_int r.E.edge_messages)
    (arr string_of_int r.E.edge_bits)
    (arr (fun b -> if b then "1" else "0") r.E.visited)
    (arr digest r.E.states) f.E.dropped_copies f.E.extra_copies
    f.E.delayed_copies f.E.corrupted_deliveries f.E.garbled_drops
    f.E.checksum_rejects (ints f.E.dead_edges) v.E.crashes v.E.restarts
    v.E.lost_state_bits v.E.down_drops v.E.stuttered
    (ints v.E.stopped_vertices) v.E.checkpoints v.E.replayed f.E.adds
    f.E.removes f.E.heals f.E.messages_lost_in_flight f.E.window_violations

(* Everything in the registry except the wall-clock receive timings (only
   their sample count is deterministic) and the [engine.gc.*] gauges
   (allocation counts belong to the implementation, not the semantics). *)
let render_obs (o : Obs.t) =
  let snap = Obs.Registry.snapshot o.Obs.registry in
  let sampled =
    match Obs.Registry.find_histogram snap "engine.receive_ns_hist" with
    | Some (count, _, _) -> count
    | None -> 0
  in
  let kept =
    List.filter
      (fun (name, _) ->
        (not (String.starts_with ~prefix:"engine.receive_ns" name))
        && not (String.starts_with ~prefix:"engine.gc." name))
      snap
  in
  Printf.sprintf "obs=%s sampled=%d" (md5 (Obs.Registry.to_json kept)) sampled

let encode (type m) (module P : Runtime.Protocol_intf.CHECKABLE
    with type message = m) (msg : m) =
  let w = Bitio.Bit_writer.create () in
  P.encode w msg;
  string_of_int (Bitio.Bit_writer.length w) ^ ":" ^ Bitio.Bit_writer.to_string w

(* {1 The case matrix} *)

(* Fixed-seed stand-ins for the qcheck generators the parity tests used:
   the same families and size ranges, drawn deterministically. *)
let graphs = function
  | `Trees ->
      List.init 25 (fun i ->
          F.random_grounded_tree
            (Prng.create (1000 + i))
            ~n:(2 + (i * 37 mod 60))
            ~t_edge_prob:0.3)
  | `Dags ->
      List.init 15 (fun i ->
          let n = 2 + (i * 23 mod 50) in
          let prng = Prng.create (2000 + i) in
          F.random_dag prng ~n
            ~extra_edges:(Prng.int_in prng 0 (2 * n))
            ~t_edge_prob:0.25)
  | `Digraphs ->
      List.init 10 (fun i ->
          let n = 2 + (i * 17 mod 40) in
          let prng = Prng.create (3000 + i) in
          F.random_digraph prng ~n
            ~extra_edges:(Prng.int_in prng 0 n)
            ~back_edges:(Prng.int_in prng 0 ((n / 2) + 1))
            ~t_edge_prob:0.25)

(* Every scheduler with [verify_codec], a payload, telemetry and the
   leftover hook, then once with everything defaulted (the configuration
   that takes the flood fast path when the protocol certifies). *)
let equiv_lines (type s m)
    (module P : Runtime.Protocol_intf.CHECKABLE
      with type state = s
       and type message = m) name cls =
  let module En = Runtime.Engine.Make (P) in
  List.concat
    (List.mapi
       (fun gi g ->
         let key = Printf.sprintf "equiv/%s/g%02d" name gi in
         let gp = "g=" ^ graph_print g in
         let scheduled (sname, sched) =
           let left = ref [] in
           let o = Obs.create ~sample_every:7 () in
           let r =
             En.run ~scheduler:sched ~payload_bits:2 ~verify_codec:true ~obs:o
               ~on_undelivered:(fun m -> left := encode (module P) m :: !left)
               g
           in
           ( key ^ "/" ^ sname,
             String.concat " "
               [
                 gp;
                 render_report P.digest r;
                 Printf.sprintf "leftover=%d:%s" (List.length !left)
                   (md5 (String.concat "|" !left));
                 render_obs o;
               ] )
         in
         List.map scheduled
           [
             ("fifo", Scheduler.Fifo);
             ("lifo", Scheduler.Lifo);
             ("random", Scheduler.Random (Prng.create 5));
             ("edge-priority", Scheduler.Edge_priority (fun e -> e mod 3));
           ]
         @ [ (key ^ "/plain", gp ^ " " ^ render_report P.digest (En.run g)) ])
       (graphs cls))

let chaos_lines (type s m)
    (module P : Runtime.Protocol_intf.CHECKABLE
      with type state = s
       and type message = m) name cls =
  let module En = Runtime.Engine.Make (P) in
  List.concat_map
    (fun seed ->
      let g =
        match cls with
        | `Trees ->
            F.random_grounded_tree (Prng.create (40 + seed)) ~n:24
              ~t_edge_prob:0.3
        | `Dags ->
            F.random_dag (Prng.create (40 + seed)) ~n:20 ~extra_edges:10
              ~t_edge_prob:0.3
        | `Digraphs ->
            F.random_digraph (Prng.create (40 + seed)) ~n:16 ~extra_edges:12
              ~back_edges:4 ~t_edge_prob:0.25
      in
      (* Channel faults and churn draw from separate per-edge streams, so
         "everything" is the union of the two plans under one seed. *)
      let send =
        Runtime.Faults.plan ~drop:0.1 ~duplicate:0.05 ~max_delay:3
          ~corrupt:0.1 ~kill:0.04 ()
      in
      let faults = Runtime.Faults.uniform send ~seed in
      let vfaults =
        Runtime.Vfaults.uniform
          (Runtime.Vfaults.plan ~crash:0.05 ~max_downtime:3
             ~recovery:Runtime.Vfaults.Amnesia ~stutter:0.05 ())
          ~seed
      in
      let churn =
        Runtime.Faults.create ~remove:0.08 ~max_downtime:4 ~seed ()
      in
      let everything =
        Runtime.Faults.uniform
          { send with remove = 0.08; max_downtime = 4 }
          ~seed
      in
      let supervisor =
        { Runtime.Supervisor.default with max_retries = 3; seed = seed * 7 }
      in
      List.map
        (fun (vname, faults, vfaults, supervisor) ->
          let o = Obs.create ~sample_every:5 () in
          let r = En.run ?faults ?vfaults ?supervisor ~obs:o g in
          ( Printf.sprintf "chaos/%s/%s/seed-%d" name vname seed,
            String.concat " "
              [ "g=" ^ graph_print g; render_report P.digest r; render_obs o ] ))
        [
          ("faults", Some faults, None, None);
          ("vfaults", None, Some vfaults, None);
          ("vfaults+supervisor", None, Some vfaults, Some supervisor);
          ("churn", Some churn, None, None);
          ("everything", Some everything, Some vfaults, Some supervisor);
        ])
    [ 1; 2; 3; 4; 5; 6 ]

(* Layered flood with telemetry, then truncated by a step limit and by a
   [stop] hook that fires on the 41st poll. *)
let flood_lines () =
  let module En = Runtime.Engine.Make (Anonet.Flood) in
  let render r = render_report Anonet.Flood.digest r in
  List.concat_map
    (fun seed ->
      let g = F.random_layered_large (Prng.create seed) ~target_edges:1_500 in
      let key = Printf.sprintf "flood/layered/seed-%d" seed in
      let gp = "g=" ^ graph_print g in
      let o = Obs.create ~sample_every:13 () in
      let r = En.run ~payload_bits:3 ~obs:o g in
      let limited = En.run ~step_limit:(Digraph.n_edges g / 3) g in
      let cancelled =
        let polls = ref 0 in
        En.run
          ~stop:(fun () ->
            incr polls;
            !polls > 40)
          g
      in
      [
        (key, String.concat " " [ gp; render r; render_obs o ]);
        (key ^ "/step-limit", gp ^ " " ^ render limited);
        (key ^ "/cancel", gp ^ " " ^ render cancelled);
      ])
    [ 1; 2; 3; 4; 5; 6 ]

(* Counting messages carry per-port values, so the flood certificate must
   refuse it; the plain run goes down the generic path. *)
let counting_lines () =
  let module En = Runtime.Engine.Make (Anonet.Counting) in
  let g =
    F.random_digraph (Prng.create 11) ~n:20 ~extra_edges:15 ~back_edges:5
      ~t_edge_prob:0.3
  in
  [
    ( "generic/counting/plain",
      "g=" ^ graph_print g ^ " " ^ render_report Anonet.Counting.digest (En.run g)
    );
  ]

(* The lineage recorder with sampling off: every aggregate and the full
   stored node stream. *)
let lineage_lines () =
  let module En = Runtime.Engine.Make (Anonet.Flood) in
  List.concat_map
    (fun (cname, cls) ->
      List.mapi
        (fun gi g ->
          let l = L.create ~sample_every:1 ~capacity:(1 lsl 20) () in
          let r = En.run ~lineage:l g in
          let stream = Buffer.create 1024 in
          L.iter_stored l (fun n ->
              Printf.bprintf stream "%d:%d:%d:%d:%d;" n.L.n_id n.L.n_parent
                n.L.n_edge n.L.n_vertex n.L.n_depth);
          ( Printf.sprintf "lineage/%s/g%02d" cname gi,
            Printf.sprintf
              "g=%s d=%d nodes=%d stored=%d dropped=%d depth=%d width=%d \
               hist=%s critical=%s stream=%s"
              (graph_print g) r.E.deliveries (L.nodes l) (L.stored l)
              (L.dropped l) (L.max_depth l) (L.width l)
              (md5 (ints (Array.to_list (L.depth_histogram l))))
              (md5
                 (String.concat ";"
                    (List.map
                       (fun (e, c) -> Printf.sprintf "%d:%d" e c)
                       (L.critical_edges l ~k:8))))
              (md5 (Buffer.contents stream)) ))
        (graphs cls))
    [ ("trees", `Trees); ("dags", `Dags); ("digraphs", `Digraphs) ]

(* Named sections, one test each. *)
let sections () =
  List.concat_map
    (fun (name, cls, p) ->
      let (module P : Runtime.Protocol_intf.CHECKABLE) = p in
      [
        ("equiv/" ^ name, fun () -> equiv_lines (module P) name cls);
        ("chaos/" ^ name, fun () -> chaos_lines (module P) name cls);
      ])
    (Anonet.Check_suite.protocols ())
  @ [
      ("flood", flood_lines);
      ("generic", counting_lines);
      ("lineage", lineage_lines);
    ]

(* {1 Checking against the fixture} *)

let fixture =
  lazy
    (let ic = open_in "engine_oracle.txt" in
     let tbl = Hashtbl.create 1024 in
     (try
        while true do
          let line = input_line ic in
          match String.index_opt line '\t' with
          | Some i ->
              Hashtbl.replace tbl (String.sub line 0 i)
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> ()
        done
      with End_of_file -> close_in ic);
     tbl)

let has_prefix_entry prefix =
  Hashtbl.fold
    (fun k _ found -> found || String.starts_with ~prefix k)
    (Lazy.force fixture) false

let check_section (sname, lines) () =
  if not (has_prefix_entry (sname ^ "/")) then
    Alcotest.failf "%s: no fixture entry (a suite protocol or section was added \
                    without recording its oracle)" sname;
  let tbl = Lazy.force fixture in
  let bad =
    List.filter_map
      (fun (key, got) ->
        match Hashtbl.find_opt tbl key with
        | None -> Some (Printf.sprintf "%s: no fixture entry" key)
        | Some want when want = got -> None
        | Some want ->
            Some (Printf.sprintf "%s:\n  want %s\n  got  %s" key want got))
      (lines ())
  in
  match bad with
  | [] -> ()
  | first :: _ ->
      Alcotest.failf "%d case(s) differ from the oracle; first:\n%s"
        (List.length bad) first

let () =
  Alcotest.run "engine-oracle"
    [
      ( "oracle",
        List.map
          (fun ((name, _) as s) ->
            Alcotest.test_case name `Quick (check_section s))
          (sections ()) );
    ]
