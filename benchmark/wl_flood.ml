(* flood-layered: Anonet.Flood on the ~120k-edge random_layered_large DAG
   (the E15/E20/E21 graph).  Messages are one bit and [receive] is trivial,
   so the engine loop — scheduler pop, in-flight pool, encode, fault
   checks — is nearly all the cost.  A round is one Fifo and one Lifo run:
   Fifo is the schedule a flat fast path can take, Lifo keeps the generic
   path measured.  Short rounds give the fastest round a chance to fall
   in one of the host's fast phases. *)

module H = Harness

let name = "flood-layered"
let target_edges = 120_000
let parts = 1
let round_s = 0.12
let min_cycles = 10

module Plain = Runtime.Engine.Make (Anonet.Flood)
module Traced = Runtime.Engine.Make (Timed.Make (Anonet.Flood) (Timed.No_capture))

type env = { g : Digraph.t; build_s : float; engine : H.engine }

let setup ~seed =
  let g, build_s =
    Clock.time (fun () ->
        Digraph.Families.random_layered_large (Prng.create seed) ~target_edges)
  in
  { g; build_s; engine = H.engine () }

let dispose _ = ()

(* Flood never terminates: every edge carries exactly one token and every
   vertex but the root receives one. *)
let sound g (r : _ Runtime.Engine.report) =
  r.outcome = Runtime.Engine.Quiescent
  && r.deliveries = Digraph.n_edges g
  && Array.for_all Fun.id
       (Array.mapi (fun v seen -> seen || v = Digraph.source g) r.visited)

let round env ~part:_ phase =
  let traced = phase = H.Traced in
  let run scheduler ~traced =
    H.outcome (sound env.g)
      (if traced then Traced.run ~scheduler env.g else Plain.run ~scheduler env.g)
  in
  H.engine_round env.engine ~traced
    [ (true, run Runtime.Scheduler.Fifo); (false, run Runtime.Scheduler.Lifo) ]

let check _ = true

let layers env set =
  H.engine_layers env.engine set;
  set "digraph.families.build_ms" (env.build_s *. 1000.0)
