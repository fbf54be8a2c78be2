type attempt = {
  a_k : int;
  a_outcome : Runtime.Engine.outcome;
  a_deliveries : int;
  a_total_bits : int;
  a_all_visited : bool;
  a_losses : int;
}

type escalation = {
  attempts : attempt list;
  final_k : int;
  terminated : bool;
}

let redundant ~k (module P : Runtime.Protocol_intf.PROTOCOL) =
  (module Redundant.Make
            (struct
              let k = k
            end)
            (P) : Runtime.Protocol_intf.PROTOCOL)

let chaos_runner ?name ?(k = 3) (module P : Runtime.Protocol_intf.PROTOCOL) =
  let (module R) = if k = 1 then (module P : Runtime.Protocol_intf.PROTOCOL) else redundant ~k (module P) in
  let module C = Runtime.Chaos.Of_protocol (R) in
  C.runner ?name ()

(* The loss signals the supervisor's escalation policy reacts to: copies
   that provably never reached a receive.  All are observable from the
   report alone — no oracle access to the fault plan. *)
let losses_of (r : _ Runtime.Engine.report) =
  r.fault_stats.dropped_copies + r.fault_stats.garbled_drops
  + r.fault_stats.checksum_rejects + r.vfault_stats.down_drops
  + r.vfault_stats.stuttered

let run_escalating ?(k0 = 1) ?(k_max = 8) ?scheduler ?step_limit
    ?(faults = Runtime.Faults.none) ?(vfaults = Runtime.Vfaults.none)
    ?(supervisor = Runtime.Supervisor.default)
    (module P : Runtime.Protocol_intf.PROTOCOL) g =
  if k0 < 1 then invalid_arg "Resilient.run_escalating: k0 must be >= 1";
  let attempt k =
    let (module R) = if k = 1 then (module P : Runtime.Protocol_intf.PROTOCOL) else redundant ~k (module P) in
    let module E = Runtime.Engine.Make (R) in
    let r = E.run ?scheduler ?step_limit ~faults ~vfaults ~supervisor g in
    {
      a_k = k;
      a_outcome = r.outcome;
      a_deliveries = r.deliveries;
      a_total_bits = r.total_bits;
      a_all_visited = Array.for_all (fun v -> v) r.visited;
      a_losses = losses_of r;
    }
  in
  let rec go k acc =
    let a = attempt k in
    let acc = a :: acc in
    let stop =
      a.a_outcome = Runtime.Engine.Terminated
      || a.a_losses = 0 (* nothing was lost; more copies cannot help *)
      || 2 * k > k_max
    in
    if stop then (List.rev acc, a)
    else go (2 * k) acc
  in
  let attempts, last = go k0 [] in
  {
    attempts;
    final_k = last.a_k;
    terminated = last.a_outcome = Runtime.Engine.Terminated;
  }

let chaos_graphs () =
  let module F = Digraph.Families in
  [
    {
      Runtime.Chaos.g_name = "random-tree-16";
      build =
        (fun ~seed ->
          F.random_grounded_tree (Prng.create seed) ~n:16 ~t_edge_prob:0.3);
    };
    {
      Runtime.Chaos.g_name = "random-dag-16";
      build =
        (fun ~seed ->
          F.random_dag (Prng.create seed) ~n:16 ~extra_edges:16
            ~t_edge_prob:0.25);
    };
    {
      Runtime.Chaos.g_name = "random-digraph-16";
      build =
        (fun ~seed ->
          F.random_digraph (Prng.create seed) ~n:16 ~extra_edges:10
            ~back_edges:4 ~t_edge_prob:0.25);
    };
  ]
