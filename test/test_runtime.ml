module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine
open Helpers

(* A tiny counting protocol used to exercise the engine itself: every vertex
   forwards an incrementing hop counter once per receipt; nothing accepts. *)
module Hops = struct
  type state = { hops_seen : int list }
  type message = int

  let name = "hops"
  let initial_state ~out_degree:_ ~in_degree:_ = { hops_seen = [] }
  let root_emit ~out_degree = List.init out_degree (fun j -> (j, 0))

  let receive ~out_degree ~in_degree:_ st h ~in_port:_ =
    ( { hops_seen = h :: st.hops_seen },
      List.init out_degree (fun j -> (j, h + 1)) )

  let accepting _ = false
  let encode w h = Bitio.Codes.write_gamma0 w h
  let decode = Bitio.Codes.read_gamma0
  let equal_message = Int.equal
  let state_bits st = 32 * List.length st.hops_seen
  let pp_message = Format.pp_print_int
  let pp_state fmt st = Format.fprintf fmt "%d msgs" (List.length st.hops_seen)
end

module Hops_engine = E.Make (Hops)
module Flood_engine = Runtime.Engine.Make (Anonet.Flood)

let test_flood_visits_everything () =
  let g = F.grid_dag ~rows:3 ~cols:3 in
  let r = Flood_engine.run g in
  Alcotest.check outcome "flood cannot detect termination" E.Quiescent r.outcome;
  Alcotest.(check bool) "but visits every vertex" true
    (Array.for_all (fun v -> v) r.visited)

let test_flood_one_message_per_edge_on_tree () =
  let g = F.comb 6 in
  let r = Flood_engine.run g in
  Alcotest.(check int) "deliveries = edges" (G.n_edges g) r.deliveries;
  Array.iter (fun c -> Alcotest.(check int) "one per edge" 1 c) r.edge_messages

let test_hop_counts_on_path () =
  let g = F.path 4 in
  let r = Hops_engine.run g in
  (* s -> v1 -> ... -> v4 -> t: t hears hop count 4. *)
  Alcotest.(check (list int)) "t heard hop 4" [ 4 ]
    r.states.(G.terminal g).Hops.hops_seen

let test_stats_accounting () =
  let g = F.path 3 in
  let r = Hops_engine.run g in
  Alcotest.(check int) "deliveries" 4 r.deliveries;
  Alcotest.(check int) "total = sum edge bits" r.total_bits
    (Array.fold_left ( + ) 0 r.edge_bits);
  Alcotest.(check int) "messages = sum edge messages" r.deliveries
    (Array.fold_left ( + ) 0 r.edge_messages);
  Alcotest.(check bool) "bandwidth <= total" true (r.max_edge_bits <= r.total_bits);
  Alcotest.(check bool) "max message <= bandwidth" true
    (r.max_message_bits <= r.max_edge_bits);
  (* Hop counters 0..3 are pairwise distinct symbols. *)
  Alcotest.(check int) "distinct messages" 4 r.distinct_messages

let test_payload_bits_charged () =
  let g = F.path 3 in
  let base = Hops_engine.run g in
  let loaded = Hops_engine.run ~payload_bits:100 g in
  Alcotest.(check int) "each delivery charged |m|"
    (base.total_bits + (100 * base.deliveries))
    loaded.total_bits

(* Both of Engine's paths (the flood fast path, and the generic path forced
   by a no-op [on_pop]) and the synchronous schedule refuse a negative
   message size. *)
let test_negative_payload_rejected () =
  let g = F.path 3 in
  let engine = Invalid_argument "Engine.run: payload_bits must be >= 0" in
  Alcotest.check_raises "engine, fast path" engine (fun () ->
      ignore (Flood_engine.run ~payload_bits:(-50) g));
  Alcotest.check_raises "engine, generic path" engine (fun () ->
      ignore
        (Flood_engine.run ~scheduler:Runtime.Scheduler.Lifo ~on_pop:ignore
           ~payload_bits:(-1) g));
  Alcotest.check_raises "engine, rounds" engine (fun () ->
      ignore
        (Flood_engine.run ~scheduler:Runtime.Scheduler.Rounds ~payload_bits:(-1)
           g))

let test_step_limit () =
  let g = F.grid_dag ~rows:4 ~cols:4 in
  let r = Hops_engine.run ~step_limit:5 g in
  Alcotest.check outcome "limit reported" E.Step_limit r.outcome;
  Alcotest.(check int) "stopped at limit" 5 r.deliveries

let test_trace_hook () =
  let g = F.path 3 in
  let tr = Runtime.Trace.create () in
  let _ = Hops_engine.run ~on_deliver:(Runtime.Trace.hook tr) g in
  Alcotest.(check int) "all deliveries traced" 4 (Runtime.Trace.length tr);
  let sends = Runtime.Trace.sends_per_vertex tr ~n:(G.n_vertices g) in
  Alcotest.(check int) "s sent once" 1 sends.(G.source g);
  Alcotest.(check int) "t sent nothing" 0 sends.(G.terminal g);
  let recvs = Runtime.Trace.receives_per_vertex tr ~n:(G.n_vertices g) in
  Alcotest.(check int) "t received once" 1 recvs.(G.terminal g);
  (* Events are ordered and carry consistent ports. *)
  List.iter
    (fun (ev : E.event) ->
      Alcotest.(check int) "edge target consistent"
        ev.to_vertex
        (G.out_neighbor g ev.from_vertex ev.from_port))
    (Runtime.Trace.events tr)

let test_in_flight_highwater () =
  let g = F.path 3 in
  let r = Hops_engine.run g in
  (* On a path only one message is ever in flight. *)
  Alcotest.(check int) "path keeps one in flight" 1 r.max_in_flight;
  let wide = F.comb 6 in
  let rw = Hops_engine.run ~scheduler:Runtime.Scheduler.Lifo wide in
  Alcotest.(check bool) "comb holds several in flight" true (rw.max_in_flight >= 2)

let test_trace_render () =
  let g = F.path 3 in
  let tr = Runtime.Trace.create () in
  let _ = Hops_engine.run ~on_deliver:(Runtime.Trace.hook tr) g in
  let s = Runtime.Trace.render tr in
  Alcotest.(check bool) "render has one line per delivery" true
    (List.length (String.split_on_char '\n' (String.trim s)) = 4);
  let short = Runtime.Trace.render ~limit:2 tr in
  Alcotest.(check bool) "truncation notice" true
    (String.length short > 0
    && String.split_on_char '\n' (String.trim short) |> List.length = 3);
  let first_uses = Runtime.Trace.edge_first_use tr in
  Alcotest.(check int) "four edges used" 4 (List.length first_uses);
  Alcotest.(check bool) "steps increasing" true
    (List.map snd first_uses = List.sort compare (List.map snd first_uses))

(* [?limit] boundary behaviour: the notice names exactly how many deliveries
   were cut, and disappears once the limit covers the whole trace. *)
let test_trace_render_limit () =
  let g = F.path 3 in
  let tr = Runtime.Trace.create () in
  let _ = Hops_engine.run ~on_deliver:(Runtime.Trace.hook tr) g in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let short = Runtime.Trace.render ~limit:1 tr in
  Alcotest.(check bool) "notice counts the omitted deliveries" true
    (contains short "... (3 more deliveries)");
  Alcotest.(check bool) "limit = length: no notice" false
    (contains (Runtime.Trace.render ~limit:4 tr) "more deliveries");
  Alcotest.(check bool) "limit > length: no notice" false
    (contains (Runtime.Trace.render ~limit:100 tr) "more deliveries");
  Alcotest.(check int) "limit 0 is just the notice" 1
    (List.length
       (String.split_on_char '\n' (String.trim (Runtime.Trace.render ~limit:0 tr))))

(* Scheduler behaviour: every scheduler must deliver everything on a DAG —
   the flood reaches all vertices regardless of order. *)
let schedulers () =
  [
    ("fifo", Runtime.Scheduler.Fifo);
    ("lifo", Runtime.Scheduler.Lifo);
    ("random-1", Runtime.Scheduler.Random (Prng.create 1));
    ("random-2", Runtime.Scheduler.Random (Prng.create 99));
    ("prio-reverse", Runtime.Scheduler.Edge_priority (fun e -> -e));
    ("prio-forward", Runtime.Scheduler.Edge_priority (fun e -> e));
  ]

let test_schedulers_all_deliver () =
  let g = F.grid_dag ~rows:3 ~cols:4 in
  List.iter
    (fun (name, sch) ->
      let r = Flood_engine.run ~scheduler:sch g in
      Alcotest.(check bool) (name ^ " visits all") true
        (Array.for_all (fun v -> v) r.visited);
      Alcotest.(check int) (name ^ " delivers all floods") (G.n_edges g) r.deliveries)
    (schedulers ())

let test_scheduler_describe () =
  List.iter
    (fun (name, sch) ->
      let d = Runtime.Scheduler.describe sch in
      Alcotest.(check bool) (name ^ " described") true (String.length d > 0))
    (schedulers ())

(* {1 Binheap (the Edge_priority pool and the fault-delay queue)} *)

let prop_binheap_order =
  qcheck_to_alcotest ~count:300 "heap-order under randomized push/pop"
    QCheck.(list (pair (pair small_int small_int) bool))
    (fun ops ->
      (* Model: a sorted list of keys.  [bool] selects push vs pop; pops on
         the empty heap must return None. *)
      let h = Runtime.Binheap.create () in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (key, is_pop) ->
          if is_pop then begin
            match (Runtime.Binheap.pop h, !model) with
            | None, [] -> ()
            | Some (k, v), m :: rest ->
                if k <> m || v <> snd k then ok := false;
                model := rest
            | Some _, [] | None, _ :: _ -> ok := false
          end
          else begin
            Runtime.Binheap.push h key (snd key);
            model := List.sort compare (key :: !model)
          end;
          if Runtime.Binheap.length h <> List.length !model then ok := false)
        ops;
      (* Drain what's left: must come out in sorted order. *)
      let rec drain acc =
        match Runtime.Binheap.pop h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      !ok && drain [] = !model)

let test_binheap_ties_fifo_by_seq () =
  (* Equal priorities fall back to the sequence number, exactly what the
     Edge_priority scheduler relies on for stable tie-breaks. *)
  let h = Runtime.Binheap.create () in
  List.iter (fun seq -> Runtime.Binheap.push h (0, seq) seq) [ 3; 1; 2; 0 ];
  let order =
    List.init 4 (fun _ ->
        match Runtime.Binheap.pop h with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "fifo among ties" [ 0; 1; 2; 3 ] order

(* Fully duplicate keys (not just equal priorities): every copy must survive
   sift-up/sift-down and pop out with a nondecreasing key stream. *)
let test_binheap_duplicate_keys () =
  let h = Runtime.Binheap.create () in
  let pushes = [ (5, 'a'); (1, 'b'); (5, 'c'); (1, 'd'); (5, 'e'); (1, 'f') ] in
  List.iter (fun (k, v) -> Runtime.Binheap.push h k v) pushes;
  Alcotest.(check int) "all copies stored" 6 (Runtime.Binheap.length h);
  let rec drain acc =
    match Runtime.Binheap.pop h with
    | None -> List.rev acc
    | Some kv -> drain (kv :: acc)
  in
  let out = drain [] in
  Alcotest.(check (list int)) "keys nondecreasing, duplicates intact"
    [ 1; 1; 1; 5; 5; 5 ] (List.map fst out);
  Alcotest.(check (list char)) "no value lost or duplicated"
    [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ]
    (List.sort compare (List.map snd out))

(* [top]/[remove_top] are the allocation-free peek and pop the engine's
   pools and delay queue use: [top] returns the stored entry itself, and
   both reject an empty heap. *)
let test_binheap_top () =
  let h = Runtime.Binheap.create () in
  Alcotest.check_raises "top on empty" (Invalid_argument "Binheap.top: empty heap")
    (fun () -> ignore (Runtime.Binheap.top h));
  Alcotest.check_raises "remove_top on empty"
    (Invalid_argument "Binheap.remove_top: empty heap") (fun () ->
      Runtime.Binheap.remove_top h);
  List.iter (fun k -> Runtime.Binheap.push h k (10 * k)) [ 4; 2; 7; 1 ];
  let order = ref [] in
  while not (Runtime.Binheap.is_empty h) do
    let top = Runtime.Binheap.top h in
    Alcotest.(check bool) "top is the stored entry" true
      (Runtime.Binheap.top h == top);
    order := top :: !order;
    Runtime.Binheap.remove_top h
  done;
  Alcotest.(check (list (pair int int))) "ascending"
    [ (1, 10); (2, 20); (4, 40); (7, 70) ]
    (List.rev !order)

(* {1 Trace.edge_first_use} *)

let test_edge_first_use () =
  let g = F.grid_dag ~rows:3 ~cols:3 in
  let tr = Runtime.Trace.create () in
  let _ = Flood_engine.run ~scheduler:Runtime.Scheduler.Lifo ~on_deliver:(Runtime.Trace.hook tr) g in
  let first_uses = Runtime.Trace.edge_first_use tr in
  let events = Runtime.Trace.events tr in
  (* Every traced edge appears exactly once... *)
  let keys = List.map fst first_uses in
  Alcotest.(check int) "no duplicate edges" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun (ev : E.event) ->
      Alcotest.(check bool) "every used edge listed" true
        (List.mem_assoc (ev.from_vertex, ev.from_port) first_uses))
    events;
  (* ...with the step of its earliest delivery... *)
  List.iter
    (fun ((fv, fp), step) ->
      let min_step =
        List.fold_left
          (fun acc (ev : E.event) ->
            if ev.from_vertex = fv && ev.from_port = fp then min acc ev.step
            else acc)
          max_int events
      in
      Alcotest.(check int)
        (Printf.sprintf "first use of %d.%d" fv fp)
        min_step step)
    first_uses;
  (* ...in first-use order. *)
  Alcotest.(check bool) "steps increasing" true
    (List.map snd first_uses = List.sort compare (List.map snd first_uses))

(* Cooperative cancellation: the hook is polled once per message boundary,
   a [true] ends the run as [Cancelled] with the accounting intact — the
   copies never delivered are all in [final_in_flight] and each reaches
   [on_undelivered] exactly once. *)
let test_cancelled_outcome () =
  let g = F.grid_dag ~rows:4 ~cols:4 in
  let polls = ref 0 in
  let stop () =
    incr polls;
    !polls > 3
  in
  let undelivered = ref 0 in
  let r = Hops_engine.run ~stop ~on_undelivered:(fun _ -> incr undelivered) g in
  Alcotest.check outcome "cancelled" E.Cancelled r.outcome;
  Alcotest.(check int) "three deliveries happened first" 3 r.deliveries;
  Alcotest.(check bool) "messages were in flight" true (r.final_in_flight > 0);
  Alcotest.(check int) "every leftover surfaced" r.final_in_flight !undelivered

let test_stop_never_true_is_free () =
  let g = F.comb 5 in
  let plain = Flood_engine.run g in
  let r = Flood_engine.run ~stop:(fun () -> false) g in
  Alcotest.check outcome "same outcome" plain.outcome r.outcome;
  Alcotest.(check int) "same deliveries" plain.deliveries r.deliveries;
  Alcotest.(check int) "same bits" plain.total_bits r.total_bits

(* Flood, except at the (out_degree, in_degree) = (2, 2) class, where every
   further receive bumps the state: that class is not absorbing, so the
   flood certificate must refuse any graph that has it.  [calls] counts
   receives, since the fast path skips them on absorbed vertices. *)
module Picky = struct
  let calls = ref 0

  type state = int
  type message = unit

  let name = "picky"
  let initial_state ~out_degree:_ ~in_degree:_ = 0
  let root_emit ~out_degree = List.init out_degree (fun j -> (j, ()))

  let receive ~out_degree ~in_degree st () ~in_port:_ =
    incr calls;
    if st = 0 then (1, List.init out_degree (fun j -> (j, ())))
    else if out_degree = 2 && in_degree = 2 then (st + 1, [])
    else (st, [])

  let accepting _ = false
  let encode w () = Bitio.Bit_writer.bit w true
  let decode r = ignore (Bitio.Bit_reader.bit r : bool)
  let equal_message () () = true
  let state_bits _ = 1
  let pp_message fmt () = Format.pp_print_string fmt "token"
  let pp_state = Format.pp_print_int
end

module Picky_engine = E.Make (Picky)

(* s -> h, then h -> v with [in_degree] parallel edges and v -> t with
   [out_degree] parallel edges, one v per class in list order. *)
let class_graph classes =
  let k = List.length classes in
  let t = k + 2 in
  let edges =
    List.concat
      (List.mapi
         (fun i (od, idg) ->
           List.init idg (fun _ -> (1, i + 2)) @ List.init od (fun _ -> (i + 2, t)))
         classes)
  in
  G.make ~n:(k + 3) ~s:0 ~t ((0, 1) :: edges)

(* The receives a plain run under [sched ()] executes, net of the
   certificate's probe: a [~step_limit:0] run does the same probe and
   delivers nothing. *)
let executed_receives sched g =
  Picky.calls := 0;
  ignore (Picky_engine.run ~scheduler:(sched ()) ~step_limit:0 g);
  let probe = !Picky.calls in
  Picky.calls := 0;
  let r = Picky_engine.run ~scheduler:(sched ()) g in
  (r, !Picky.calls - probe)

(* The bad class sits between classes that share its in-degree or its
   out-degree, or whose degrees sum to the same value, so a class key that
   drops or collides either degree probes one of those instead.  The
   certificate decides the path under every scheduler the fast path
   serves. *)
let test_certificate_granularity () =
  let near = [ (1, 2); (2, 1); (1, 3); (3, 1); (3, 2) ] in
  let bad = class_graph (near @ [ (2, 2) ] @ List.rev near) in
  let good = class_graph (near @ List.rev near) in
  List.iter
    (fun (name, sched) ->
      let r, executed = executed_receives sched bad in
      Alcotest.(check int) (name ^ ", bad class: one delivery per edge")
        (G.n_edges bad) r.deliveries;
      Alcotest.(check int)
        (name ^ ", bad class: generic path, a receive per delivery")
        r.deliveries executed;
      let r, executed = executed_receives sched good in
      Alcotest.(check int) (name ^ ", good classes: one delivery per edge")
        (G.n_edges good) r.deliveries;
      Alcotest.(check int)
        (name ^ ", good classes: fast path, a receive per vertex")
        (G.n_vertices good - 1) executed)
    [
      ("fifo", fun () -> Runtime.Scheduler.Fifo);
      ("lifo", fun () -> Runtime.Scheduler.Lifo);
      ("random", fun () -> Runtime.Scheduler.Random (Prng.create 3));
    ];
  (* A stack reuses its slots, so a Lifo run with a lineage recorder stays
     on the generic path (no probe, a receive per delivery) and records
     what a forced generic run records. *)
  let lineage () = Obs.Lineage.create ~sample_every:1 () in
  let l = lineage () in
  Picky.calls := 0;
  let r = Picky_engine.run ~scheduler:Runtime.Scheduler.Lifo ~lineage:l good in
  Alcotest.(check int) "lifo with lineage: a receive per delivery" r.deliveries
    !Picky.calls;
  let l' = lineage () in
  ignore
    (Picky_engine.run ~scheduler:Runtime.Scheduler.Lifo ~lineage:l'
       ~on_pop:ignore good);
  let nodes l =
    let acc = ref [] in
    Obs.Lineage.iter_stored l (fun n ->
        acc :=
          Obs.Lineage.(n.n_id, n.n_parent, n.n_edge, n.n_vertex, n.n_depth)
          :: !acc);
    List.rev !acc
  in
  Alcotest.(check bool) "lifo with lineage: the generic path's lineage" true
    (nodes l <> [] && nodes l = nodes l')

(* The fast path's stack pools against the generic path, forced by a no-op
   [on_pop]: the whole report, the [engine.*] registry entries (at the end
   and between deliveries) and the sampled series agree at every step
   limit, save the receive timings and the GC gauges (the fast path skips
   absorbed receives).  A [Random] pair makes the same draws, so both
   generators stand at the same point after it. *)
let flood_paths_agree (g, seed) =
  let engine_entries o =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"engine." name
        && (not (String.starts_with ~prefix:"engine.receive_ns" name))
        && not (String.starts_with ~prefix:"engine.gc." name))
      (Obs.Registry.snapshot o.Obs.registry)
  in
  let series o =
    List.filter_map
      (fun (ev : Obs.Timeline.event) ->
        match ev.kind with
        | Sample -> Some (ev.name, ev.value)
        | _ -> None)
      (Obs.Timeline.events o.Obs.timeline)
  in
  (* [stop] reads the counters between deliveries, so each sample point's
     publication is checked too, not only the last. *)
  let run ?on_pop ?step_limit sched =
    let o = Obs.create ~sample_every:3 () in
    let counters =
      List.map
        (Obs.Registry.counter o.Obs.registry)
        [ "engine.deliveries"; "engine.total_bits"; "engine.sends" ]
    in
    let seen = ref [] in
    let stop () =
      seen := List.map Obs.Registry.value counters :: !seen;
      false
    in
    let r =
      Flood_engine.run ~scheduler:sched ?step_limit ~obs:o ~stop ?on_pop g
    in
    (r, engine_entries o, series o, !seen)
  in
  let agree ?step_limit random =
    let gf = Prng.create seed and gg = Prng.create seed in
    let sched g = if random then Runtime.Scheduler.Random g else Lifo in
    run ?step_limit (sched gf) = run ~on_pop:ignore ?step_limit (sched gg)
    && Prng.bits64 gf = Prng.bits64 gg
  in
  List.for_all
    (fun step_limit -> agree ?step_limit false && agree ?step_limit true)
    [ Some 0; Some 1; Some 7; None ]

let gen_layered_large =
  QCheck.Gen.(
    map2
      (fun seed target_edges ->
        F.random_layered_large (Prng.create seed) ~target_edges)
      (int_bound 10_000) (oneofl [ 32; 300; 3000 ]))

let prop_stack_pools_match_generic =
  let arb graphs =
    QCheck.(
      make ~print:(fun (g, s) -> Printf.sprintf "seed %d, %s" s (graph_print g))
        Gen.(pair graphs (int_bound 10_000)))
  in
  [
    qcheck_to_alcotest ~count:60 "stack pools = generic: digraphs"
      (arb gen_digraph) flood_paths_agree;
    qcheck_to_alcotest ~count:12 "stack pools = generic: layered"
      (arb gen_layered_large) flood_paths_agree;
  ]

let prop_flood_visits_all_digraphs =
  qcheck_to_alcotest ~count:80 "flood visits every vertex of any network"
    arb_digraph (fun g ->
      let r = Flood_engine.run g in
      Array.for_all (fun v -> v) r.visited)

let prop_scheduler_invariant_visits =
  qcheck_to_alcotest ~count:50 "visited set is schedule-independent" arb_digraph
    (fun g ->
      let runs =
        List.map (fun (_, sch) -> (Flood_engine.run ~scheduler:sch g).visited)
          (schedulers ())
      in
      match runs with
      | first :: rest -> List.for_all (fun v -> v = first) rest
      | [] -> true)

let () =
  Alcotest.run "runtime"
    [
      ( "engine",
        [
          Alcotest.test_case "flood visits everything" `Quick
            test_flood_visits_everything;
          Alcotest.test_case "one message per tree edge" `Quick
            test_flood_one_message_per_edge_on_tree;
          Alcotest.test_case "hop counts" `Quick test_hop_counts_on_path;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "payload bits" `Quick test_payload_bits_charged;
          Alcotest.test_case "negative payload rejected" `Quick
            test_negative_payload_rejected;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "trace hook" `Quick test_trace_hook;
          Alcotest.test_case "in-flight high water" `Quick test_in_flight_highwater;
          Alcotest.test_case "trace render" `Quick test_trace_render;
          Alcotest.test_case "trace render limit" `Quick test_trace_render_limit;
          Alcotest.test_case "cancelled outcome" `Quick test_cancelled_outcome;
          Alcotest.test_case "inert stop hook" `Quick test_stop_never_true_is_free;
          Alcotest.test_case "certificate granularity" `Quick
            test_certificate_granularity;
        ] );
      ( "schedulers",
        [
          Alcotest.test_case "all deliver" `Quick test_schedulers_all_deliver;
          Alcotest.test_case "describe" `Quick test_scheduler_describe;
          prop_flood_visits_all_digraphs;
          prop_scheduler_invariant_visits;
        ]
        @ prop_stack_pools_match_generic );
      ( "binheap",
        [
          prop_binheap_order;
          Alcotest.test_case "ties break by seq" `Quick test_binheap_ties_fifo_by_seq;
          Alcotest.test_case "duplicate keys" `Quick test_binheap_duplicate_keys;
          Alcotest.test_case "top/remove_top" `Quick test_binheap_top;
        ] );
      ( "trace",
        [ Alcotest.test_case "edge_first_use" `Quick test_edge_first_use ] );
    ]
