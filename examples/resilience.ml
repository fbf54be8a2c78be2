(* Probing the model's channel assumptions — what the paper's protocols
   guarantee when the network misbehaves, and the one protocol that is
   stronger than required.

     dune exec examples/resilience.exe

   The paper's channels are reliable and exactly-once.  This example injects
   drops and duplications on the same fleet of random networks and reports,
   per protocol: correct terminations, FALSE terminations (halting before
   everyone has the message — the one thing a broadcast protocol must never
   do), and non-terminations. *)

let pf = Printf.printf

module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine

let trials = 40

let fleet seed_base i =
  let prng = Prng.create (seed_base + i) in
  F.random_digraph prng ~n:25 ~extra_edges:12 ~back_edges:6 ~t_edge_prob:0.25

let tally name run =
  let ok = ref 0 and false_term = ref 0 and stuck = ref 0 in
  for i = 1 to trials do
    let g = fleet 500 i in
    let r, visited_all = run i g in
    match r with
    | E.Terminated -> if visited_all then incr ok else incr false_term
    | E.Quiescent -> incr stuck
    | E.Step_limit | E.Cancelled -> ()
  done;
  pf "  %-34s %8d %12d %10d\n" name !ok !false_term !stuck

let visited (r : _ E.report) = Array.for_all (fun v -> v) r.visited

let () =
  pf "Fault injection over %d random anonymous networks (|V|=27).\n\n" trials;
  pf "  %-34s %8s %12s %10s\n" "protocol + channel" "ok" "FALSE-term" "no-term";

  tally "general, reliable channels" (fun _ g ->
      let r = Anonet.General_engine.run g in
      (r.outcome, visited r));
  tally "general, 15% drops" (fun i g ->
      let faults = Runtime.Faults.create ~drop:0.15 ~seed:i () in
      let r = Anonet.General_engine.run ~faults g in
      (r.outcome, visited r));
  tally "general, 30% duplication" (fun i g ->
      let faults = Runtime.Faults.create ~duplicate:0.3 ~seed:i () in
      let r = Anonet.General_engine.run ~faults g in
      (r.outcome, visited r));
  tally "mapping, 30% duplication" (fun i g ->
      let faults = Runtime.Faults.create ~duplicate:0.3 ~seed:i () in
      let r = Anonet.Mapping_engine.run ~faults g in
      (r.outcome, visited r));

  pf "\nDrops only ever turn termination into waiting (safe).  Duplication\n";
  pf "can fool the broadcast protocol into early termination — a duplicated\n";
  pf "commodity looks exactly like a detected cycle — but never the mapping\n";
  pf "protocol, whose termination also waits for one adjacency fact per\n";
  pf "announced out-edge, and facts are only minted by visited vertices.\n\n";

  (* Synchronous replay: same protocol, measurable time. *)
  let module Sync = Runtime.Engine.Make (Anonet.General_broadcast) in
  pf "Synchronous rounds on the same fleet (time complexity, Section 2):\n";
  pf "  %6s %8s %8s %8s\n" "net" "|V|" "rounds" "msgs";
  for i = 1 to 5 do
    let g = fleet 500 i in
    let r = Sync.run ~scheduler:Rounds g in
    pf "  %6d %8d %8d %8d\n" i (G.n_vertices g) r.rounds r.deliveries
  done
