(* sweep-faults: Par.Campaign over [general; Redundant(3) general] x one
   fixed random_digraph n=24 per campaign seed x the 24-point drop/dup/
   delay/corrupt grid x 20 seeds — 960 short faulty runs per cycle, plus
   the shrink runs of the bare protocol's violations.  The same engine
   code as flood-layered, used the opposite way: per-run set-up,
   fault-plan checks, Redundant dedup and shrinking dominate, so work
   moved from each delivery into each run's set-up shows here as a loss.

   Round [p] sweeps every [parts]-th grid point from [p]: the same
   per-point jobs the whole campaign would run, in rounds short enough
   for the fastest one to dodge the host's slow phases.  The pool runs on
   one domain: with two, the second vCPU's contention on a shared host
   moved runs/s by up to 31% between runs (README.md). *)

module H = Harness
module C = Runtime.Campaign

let name = "sweep-faults"
let parts = 8
let round_s = 0.4
let min_cycles = 3
let cell_seeds = 20
let domains = 1

let grid =
  C.grid ~drops:[ 0.0; 0.05; 0.15 ] ~duplicates:[ 0.0; 0.2 ]
    ~max_delays:[ 0; 2 ] ~corrupts:[ 0.0; 0.02 ] ()

module K3 = struct
  let k = 3
end

module Timed_general =
  Timed.Make (Anonet.General_broadcast) (Replay.Capture_general)

module Plain_bare = C.Of_protocol (Anonet.General_broadcast)
module Plain_r3 = C.Of_protocol (Anonet.Redundant.Make (K3) (Anonet.General_broadcast))
module Traced_bare = C.Of_protocol (Timed_general)
(* Timed outside Redundant too, so the wrapper's dedup and checksum count
   as protocol time, not engine time. *)
module Traced_r3 =
  C.Of_protocol
    (Timed.Make (Anonet.Redundant.Make (K3) (Timed_general)) (Timed.No_capture))

(* Sums over one round's runs. *)
type tally = { mutable runs : int; mutable deliveries : int; mutable busy_ns : int }

(* Engine self time of the traced cycle, split by whether any fault fired
   in the run. *)
type fault_split = {
  mutable faulty_self : int;
  mutable faulty_deliveries : int;
  mutable clean_self : int;
  mutable clean_deliveries : int;
}

type env = {
  seeds : int list;
  graphs : Digraph.t array;
  build_s : float;
  engine : H.engine;
  reference : string option array;  (** Warm-up campaign JSON per part. *)
  mutable deterministic : bool;
  bare_violations : int array;  (** Per part. *)
  shrink_runs : int array;
  mutable utilization : float list;
  split : fault_split;
}

(* The graphs are a fixed corpus, one per campaign seed; [seed] picks the
   campaign seeds, which drive the fault draws. *)
let setup ~seed =
  let graphs, build_s =
    Clock.time (fun () ->
        Array.init cell_seeds (fun i ->
            Digraph.Families.random_digraph
              (Prng.create (6000 + i))
              ~n:24 ~extra_edges:16 ~back_edges:6 ~t_edge_prob:0.25))
  in
  {
    seeds = List.init cell_seeds (fun i -> (seed * cell_seeds) + i + 1);
    graphs;
    build_s;
    engine = H.engine ();
    reference = Array.make parts None;
    deterministic = true;
    bare_violations = Array.make parts 0;
    shrink_runs = Array.make parts 0;
    utilization = [];
    split =
      { faulty_self = 0; faulty_deliveries = 0; clean_self = 0; clean_deliveries = 0 };
  }

let dispose _ = ()

let wrap env ~traced (t : tally) (r : C.runner) =
  {
    r with
    C.run =
      (fun ~faults ~step_limit g ->
        let s, p = H.probe (fun () -> r.run ~faults ~step_limit g) in
        let f = s.fault_stats in
        let fired =
          f.dropped_copies + f.extra_copies + f.delayed_copies
          + f.corrupted_deliveries + f.garbled_drops + f.checksum_rejects
          > 0
        in
        H.record env.engine ~traced ~fifo:true ~deliveries:s.deliveries
          ~bits:s.total_bits ~max_in_flight:0 p;
        t.runs <- t.runs + 1;
        t.deliveries <- t.deliveries + s.deliveries;
        t.busy_ns <- t.busy_ns + p.run_ns;
        let f = env.split in
        if traced && fired then begin
          f.faulty_self <- f.faulty_self + p.self_ns;
          f.faulty_deliveries <- f.faulty_deliveries + s.deliveries
        end
        else if traced then begin
          f.clean_self <- f.clean_self + p.self_ns;
          f.clean_deliveries <- f.clean_deliveries + s.deliveries
        end;
        s);
  }

let round env ~part phase =
  let traced = phase = H.Traced in
  let t = { runs = 0; deliveries = 0; busy_ns = 0 } in
  let bare, r3 =
    if traced then (Traced_bare.runner (), Traced_r3.runner ())
    else (Plain_bare.runner (), Plain_r3.runner ())
  in
  let graph =
    {
      C.g_name = "random-digraph-24";
      build = (fun ~seed -> env.graphs.((seed - 1) mod cell_seeds));
    }
  in
  let grid = List.filteri (fun i _ -> i mod parts = part) grid in
  let res, wall_s =
    Clock.time (fun () ->
        Par.Campaign.run ~domains
          ~runners:[ wrap env ~traced t bare; wrap env ~traced t r3 ]
          ~graphs:[ graph ] ~grid ~seeds:env.seeds ())
  in
  let count name =
    List.length
      (List.filter (fun (v : C.violation) -> v.v_runner = name) res.violations)
  in
  let json = C.to_json res in
  (match env.reference.(part) with
  | None -> env.reference.(part) <- Some json
  | Some j -> if j <> json then env.deterministic <- false);
  env.bare_violations.(part) <- count bare.r_name;
  env.shrink_runs.(part) <- t.runs - (2 * List.length grid * cell_seeds);
  if phase = H.Measured then
    env.utilization <-
      (float_of_int t.busy_ns *. 1e-9 /. (float_of_int domains *. wall_s))
      :: env.utilization;
  {
    H.wall_s;
    runs = t.runs;
    deliveries = t.deliveries;
    attempted = t.runs;
    failed = count r3.r_name;
  }

let check env = env.deterministic

let layers env set =
  H.engine_layers env.engine set;
  let f = float_of_int and sum = Array.fold_left ( + ) 0 in
  set "digraph.families.build_ms" (env.build_s *. 1000.0);
  set "runtime.campaign.bare_violations" (f (sum env.bare_violations));
  set "runtime.campaign.shrink_runs" (f (sum env.shrink_runs));
  set "par.pool.utilization" (Stats.median env.utilization);
  let t = env.split in
  set "runtime.faults.ns_per_delivery_faulty"
    (Stats.ratio (f t.faulty_self) (f t.faulty_deliveries));
  set "runtime.faults.ns_per_delivery_clean"
    (Stats.ratio (f t.clean_self) (f t.clean_deliveries))
