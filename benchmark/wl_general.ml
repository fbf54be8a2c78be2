(* general-cyclic: Section 4 general broadcast on six E5-family digraphs,
   each run under Fifo and under a seeded Random schedule, one run per
   round.  Messages are interval unions whose dyadic endpoints grow long,
   so the protocol's Iset, Dyadic, Bignat and codec work takes most of the
   time — the mirror image of flood-layered. *)

module H = Harness

let name = "general-cyclic"

(* The six n=160 E5 graphs: the first seeds from 5000 whose Fifo run takes
   4000-5500 deliveries (0.1-0.2 s), so no single graph dominates a cycle.
   The family's cost is heavy-tailed: random:160:5004 takes 13k deliveries
   and about 1 s. *)
let corpus = [| 5000; 5002; 5007; 5008; 5009; 5013 |]
let graphs = Array.length corpus
let parts = 2 * graphs
let round_s = 0.125
let min_cycles = 2

module Plain = Runtime.Engine.Make (Anonet.General_broadcast)

module Traced =
  Runtime.Engine.Make
    (Timed.Make (Anonet.General_broadcast) (Replay.Capture_general))

type env = {
  seed : int;
  gs : Digraph.t array;
  build_s : float;
  engine : H.engine;
}

(* The graphs are a fixed corpus and [seed] drives the Random schedules:
   general broadcast's cost differs several-fold between random graphs of
   one size, which would swamp any change measured across seeds. *)
let setup ~seed =
  let gs, build_s =
    Clock.time (fun () ->
        Array.map
          (fun s ->
            Digraph.Families.random_digraph (Prng.create s) ~n:160
              ~extra_edges:160 ~back_edges:40 ~t_edge_prob:0.2)
          corpus)
  in
  { seed; gs; build_s; engine = H.engine () }

let dispose _ = ()

let sound (r : _ Runtime.Engine.report) =
  r.outcome = Runtime.Engine.Terminated && Array.for_all Fun.id r.visited

(* Round [part] runs graph [part / 2], under Fifo for even parts and under
   Random for odd ones. *)
let round env ~part phase =
  let g = env.gs.(part / 2) in
  let fifo = part mod 2 = 0 in
  let run ~traced =
    (* A fresh PRNG per run: every cycle replays the same schedules. *)
    let scheduler =
      if fifo then Runtime.Scheduler.Fifo
      else Runtime.Scheduler.Random (Prng.create ((env.seed * graphs) + (part / 2)))
    in
    H.outcome sound
      (if traced then Traced.run ~scheduler g else Plain.run ~scheduler g)
  in
  H.engine_round env.engine ~traced:(phase = H.Traced) [ (fifo, run) ]

let check _ = true

let layers env set =
  H.engine_layers env.engine set;
  set "digraph.families.build_ms" (env.build_s *. 1000.0)
