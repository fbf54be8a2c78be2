(** {!Runtime.Campaign} sweeps spread over a {!Pool}.

    The cross product {e runners × graphs × grid} is split into
    single-(runner, graph, point) jobs, each run through the sequential
    campaign machinery on its own domain, and the partial results are merged
    in job order — so cells, violations and starvations come back in exactly
    the order the sequential sweep would list them, and [to_json] of the
    merged result is byte-identical to the sequential one.  Each cell still
    sweeps its full seed list, which keeps the per-job cost meaningful and
    the fault streams identical to the sequential campaign (they are keyed
    by [(seed, edge)], not by schedule). *)

val run :
  ?domains:int ->
  ?step_limit:int ->
  ?max_shrinks:int ->
  runners:Runtime.Campaign.runner list ->
  graphs:Runtime.Campaign.graph_case list ->
  grid:Runtime.Campaign.fault_point list ->
  seeds:int list ->
  unit ->
  Runtime.Campaign.result
(** Same contract as {!Runtime.Campaign.run}; [domains] defaults to
    [Domain.recommended_domain_count ()].  [max_shrinks] bounds the shrink
    work {e per job} rather than globally, so a parallel sweep may shrink
    more violations than a sequential one — never fewer. *)
