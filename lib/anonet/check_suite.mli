(** The model-checking suite: every library protocol paired with every
    deterministic small family its correctness theorem quantifies over
    (grounded trees for Section 3.1, DAGs for Section 3.3, arbitrary
    digraphs for Sections 4–6), sized so exhaustive schedule-space
    exploration is feasible (default [|E| <= 8]).

    Consumed by the [anonet check] CLI subcommand, [bench -- check] and the
    test-suite; the protocol's state/message types are hidden behind
    closures so callers need no functor plumbing. *)

type case = {
  c_protocol : string;  (** Short protocol name ([tree], [general], ...). *)
  c_family : string;
  c_edges : int;
  c_graph : Digraph.t;
  c_explore :
    ?max_states:int ->
    ?max_depth:int ->
    ?walks:int ->
    ?obs:Obs.t ->
    unit ->
    Runtime.Explore.result;
  c_replay : int list -> Runtime.Explore.replay;
      (** Replay a recorded schedule through {!Runtime.Engine}; it must
          reproduce a recorded counterexample byte-for-byte. *)
}

val make :
  (module Runtime.Protocol_intf.CHECKABLE) ->
  family:string ->
  Digraph.t ->
  case
(** Wrap an arbitrary checkable protocol on an arbitrary graph. *)

val cases : ?max_edges:int -> unit -> case list
(** The full suite, deterministic and in stable order. *)

val protocols :
  unit ->
  (string
  * [ `Trees | `Dags | `Digraphs ]
  * (module Runtime.Protocol_intf.CHECKABLE))
  list
(** The suite's protocols as first-class modules, each tagged with the
    widest graph class its correctness theorem covers — what the
    parallel-vs-sequential equivalence tests quantify over. *)

val sabotaged : unit -> case
(** The negative control: the tree protocol over a commodity whose [split]
    ships the whole value on the first out-edge.  Conservation holds but a
    sibling subtree starves, so exploring it must produce a
    [False_termination] counterexample. *)

val chaos_negative : ?budget:int -> ?seed:int -> unit -> Runtime.Chaos.result
(** Chaos negative control: bare [Flood] under crash-restart-amnesia
    vertex faults over the default {!Resilient.chaos_graphs} suite.  An
    amnesiac vertex forgets it was reached and flooding never resends, so
    the search must find — and shrink to at most 4 atoms — a replayable
    starvation witness.  Defaults: [budget = 60], [seed = 11]. *)

val chaos_supervised : ?budget:int -> ?seed:int -> unit -> Runtime.Chaos.result
(** The positive control: [Redundant(3)]-wrapped general broadcast under a
    default {!Runtime.Supervisor} (a checkpoint after every receive),
    searched over the
    full joint edge-and-vertex fault space.  Must report zero [Unsound]
    witnesses — starvation is permitted (and expected: a crash-stop can
    make coverage impossible), false termination is not. *)

val chaos_churn : ?budget:int -> ?seed:int -> unit -> Runtime.Chaos.result
(** The churn-hardened positive control: the {!chaos_supervised} stack
    searched over the {e joint} edge-kill x vertex-crash x churn-script
    space ([p_churn = 0.5]) with the T-interval contract [churn_t = 4]
    installed for accounting.  Must report zero [Unsound] witnesses:
    bounded outages heal under supervisor retransmission, so soundness
    survives churn.  Defaults: [budget = 40], [seed = 11]. *)

val dynamic_case : n:int -> Runtime.Chaos.graph_case
(** [random-dynamic-n]: the {!Digraph.Families.random_dynamic} footprint
    that the churn searches add to their suite. *)

val chaos_amnesiac : ?budget:int -> ?seed:int -> unit -> Runtime.Chaos.result
(** The dynamic-network negative control (Austin et al.): amnesiac flooding
    over a {!Digraph.Families.random_dynamic} footprint whose back edges
    close cycles.  Tokens circulate forever — with the cycle edge present
    from the start or churned in mid-run — so the all-churn search
    ([p_churn = 1.0]) must find only [Livelock] witnesses, each replaying
    byte-for-byte.  Defaults: [budget = 12], [seed = 11]. *)
