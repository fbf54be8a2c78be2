(** Multicore execution layer.

    {!Pool} spreads independent jobs — campaign cells, check-suite cases,
    chaos trials, bench repeats — over a work-stealing domain pool with
    deterministic result order; {!Campaign} and {!Chaos} are
    {!Runtime.Campaign} and {!Runtime.Chaos} on top of {!Pool}, and their
    results do not depend on the domain count. *)

module Pool = Pool
module Campaign = Campaign_par
module Chaos = Chaos_par
