(** Self-healing protocol stacks: {!Redundant} + {!Runtime.Supervisor}
    composed, with adaptive escalation of the repetition factor.

    The supervisor can retransmit but never NACK, and the redundancy layer
    can absorb loss but costs [k]x the bits; this module is the policy
    glue between them:

    - {!redundant} wraps a protocol behind [Redundant(k)] as a first-class
      module, so the repetition factor becomes a runtime value;
    - {!chaos_runner} builds a {!Runtime.Chaos.runner} for the wrapped
      protocol — the form the chaos search, the [anonet chaos] CLI and the
      E17 bench consume;
    - {!run_escalating} implements the supervisor's adaptive escalation:
      run at [k], and if the run fell short of termination {e and} the
      report shows observed loss (dropped or swallowed copies, garbles,
      checksum rejects), double [k] and rerun, up to [k_max].  Each
      attempt's evidence is returned, so the caller sees what the
      escalation reacted to.

    The default chaos suite ({!chaos_graphs}) is the same three random
    families the fault campaign sweeps, at [n = 16]. *)

type attempt = {
  a_k : int;
  a_outcome : Runtime.Engine.outcome;
  a_deliveries : int;
  a_total_bits : int;
  a_all_visited : bool;
  a_losses : int;
      (** Observed-loss evidence: dropped + down-swallowed + garbled +
          checksum-rejected + stuttered copies. *)
}

type escalation = {
  attempts : attempt list;  (** In execution order. *)
  final_k : int;
  terminated : bool;  (** Whether the last attempt terminated. *)
}

val redundant :
  k:int ->
  (module Runtime.Protocol_intf.PROTOCOL) ->
  (module Runtime.Protocol_intf.PROTOCOL)

val chaos_runner :
  ?name:string ->
  ?k:int ->
  (module Runtime.Protocol_intf.PROTOCOL) ->
  Runtime.Chaos.runner
(** [k] defaults to 3 (the redundancy level PR 1 showed survives the edge
    grid); [k = 1] means the bare protocol.  The default name is the
    wrapped protocol's ([base+r3] style). *)

val run_escalating :
  ?k0:int ->
  ?k_max:int ->
  ?scheduler:Runtime.Scheduler.t ->
  ?step_limit:int ->
  ?faults:Runtime.Faults.t ->
  ?vfaults:Runtime.Vfaults.t ->
  ?supervisor:Runtime.Supervisor.config ->
  (module Runtime.Protocol_intf.PROTOCOL) ->
  Digraph.t ->
  escalation
(** Defaults: [k0 = 1], [k_max = 8], supervisor = {!Runtime.Supervisor}
    [.default].  Stops at the first terminating attempt, when no loss was
    observed (escalating cannot help), or past [k_max]. *)

val chaos_graphs : unit -> Runtime.Chaos.graph_case list
(** [random-tree-16], [random-dag-16], [random-digraph-16] — the fault
    campaign's families, reused as the chaos default suite. *)
