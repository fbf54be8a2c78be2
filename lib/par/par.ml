(** Multicore execution layer.

    {!Pool} spreads independent jobs — campaign cells, check-suite cases,
    chaos trials, bench repeats — over a work-stealing domain
    pool with deterministic result order.  {!map} hands that pool to
    {!Runtime.Chaos.run} and {!Runtime.Campaign.run}, whose results do not
    depend on the map they are given, hence not on the domain count. *)

module Pool = Pool

let map ?domains () =
  let map f a = Pool.run ?domains (Array.length a) (fun i -> f a.(i)) in
  { Runtime.Chaos.map }

(* [Runtime.Campaign.run] over the pool. *)
module Campaign = struct
  let run ?domains = Runtime.Campaign.run ~map:(map ?domains ())
end
