(** Edge-churn adversary: edges of the (fixed) network appear and disappear
    over time — the dynamic-network regime of anonymous broadcast
    (Kuhn–Lynch–Oshman-style T-interval connectivity; Parzych & Daymude's
    dynamic lower bounds; Austin et al.'s amnesiac-flooding breakage under
    edge insertion).

    {!Faults} can kill an edge {e permanently}; this module makes edges
    come and go.  The dynamic graph is always a subgraph of the static
    {!Digraph} footprint: a {e removal} takes a present edge down for a
    bounded number of offers (losing every copy offered on it meanwhile — the
    [messages_lost_in_flight] of the report), after which it {e heals}; an
    {e add} is an edge absent from the start of the run that appears at a
    scripted point.  Topology never grows beyond the footprint, so port
    numbers and degree-indexed initial states stay well-defined.

    {b Clocks are edge-local.}  An edge's churn state advances only on the
    {e offers} made on it — copies of messages popped for delivery across
    that edge — exactly like {!Vfaults} downtime advances on deliveries
    offered to the vertex.  An edge's fate therefore does not depend on
    traffic elsewhere, and a {!Scheduler.Replay} of the recorded [on_pop]
    schedule reproduces every churn event byte-for-byte.  The flip side: an
    edge nobody sends on has a frozen clock — a down edge heals only under
    traffic (e.g. {!Supervisor} retransmissions, which burn down the outage
    and then deliver the healed edge's last message).

    {b T-interval connectivity.}  The knob [t_interval] constrains the
    adversary to keep a stable spanning subgraph — the seeded {!skeleton}:
    a BFS out-arborescence from [s] plus one shortest out-step toward [t]
    per vertex — live through every window of [t_interval] deliveries, and
    additionally bounds every outage to fewer than [t_interval] consecutive
    offers.  {!constrain} {e clamps} a spec so the contract holds by
    construction ([t_interval = 1] permits no churn at all);
    {!with_contract} installs the contract {e without} clamping, so the
    engines count how often a raw adversary breaches it
    ([window_violations] — one per violating outage).

    Two specification styles compose into one {!t}, mirroring {!Vfaults}:
    probabilistic plans with per-edge PRNG streams derived from the seed,
    and deterministic scripts — the representation the {!Chaos} search
    minimizes. *)

type plan = {
  remove : float;  (** Per-offer removal probability, in [\[0,1\]]. *)
  max_downtime : int;
      (** Extra offers swallowed after the removing one: the outage spans
          [1 + Uniform{0..max_downtime}] offers.  Must be [>= 0]. *)
}

val stable : plan
(** The all-zero plan: the static network. *)

val plan : ?remove:float -> ?max_downtime:int -> unit -> plan
(** [stable] with fields overridden; validates ranges. *)

type event =
  | Remove of { edge : int; at : int; down_for : int }
      (** The edge vanishes on its [at]-th offer while up (1-based; that
          copy is lost), swallows [down_for] further offers, then heals. *)
  | Add of { edge : int; at : int }
      (** The edge is absent from the start; offers [1..at-1] are lost and
          the [at]-th delivers.  [at = 1] degenerates to a present edge. *)

val remove_event : edge:int -> at:int -> ?down_for:int -> unit -> event
(** Default [down_for = 1]. *)

val add_event : edge:int -> at:int -> event

val describe_event : event -> string
(** Stable canonical rendering, used by {!Chaos} keys and JSON. *)

type t
(** A churn specification; start a fresh {!Instance} per run. *)

val none : t
(** No churn; the engines take a fast path with zero delivery overhead. *)

val uniform : plan -> seed:int -> t
val per_edge : (int -> plan) -> seed:int -> t

val script : event list -> t
(** Deterministic churn only — the {!Chaos} witness representation.  At most
    one [Add] per edge; removals on one edge fire in [at] order. *)

val is_none : t -> bool

val skeleton : Digraph.t -> bool array
(** Per dense edge index: whether the edge belongs to the protected
    spanning subgraph (BFS arborescence from [s] union one shortest
    out-step toward [t] per co-reachable vertex). *)

val constrain : t_interval:int -> Digraph.t -> t -> t
(** Clamp the spec so the T-interval contract holds by construction:
    skeleton edges are never churned, and outages are capped below
    [t_interval] offers.  A spec clamped to nothing collapses to {!none}. *)

val with_contract : t_interval:int -> Digraph.t -> t -> t
(** Install the contract for {e accounting only}: fates are unchanged, but
    instances count [window_violations] — how {!Chaos} measures how badly a
    raw script breaches T-interval connectivity. *)

val of_dynamic : Digraph.Families.dyn_event list -> t
(** The churn script of a {!Digraph.Families.random_dynamic} scenario. *)

type fate =
  | Cross  (** The edge is live; the copy proceeds to its vertex fate. *)
  | Removed of int
      (** A removal fired on this offer (which is lost); the payload is the
          remaining outage length in offers. *)
  | Down  (** Swallowed by an absent edge that stays absent. *)
  | Back of [ `Add | `Heal ]
      (** Swallowed, but the outage drained: the edge is up again from the
          next offer on ([`Add] for an initially-absent edge's first
          appearance, [`Heal] for a removal healing). *)

(** Mutable per-run state: per-edge PRNG streams, up/down status, and the
    churn counters the engines fold into [churn_stats]. *)
module Instance : sig
  type churn := t
  type t

  val start : churn -> t

  val on_offer : t -> edge:int -> fate
  (** The fate of one copy offered on [edge]; advances that edge's clock
      and updates the counters. *)

  val is_up : t -> edge:int -> bool
  (** Whether the edge is currently present (no clock advance). *)

  val adds : t -> int
  (** Absent edges that came up. *)

  val removes : t -> int
  (** Removal transitions fired. *)

  val heals : t -> int
  (** Removed edges that came back up. *)

  val lost : t -> int
  (** Copies swallowed by absent edges ([messages_lost_in_flight]). *)

  val window_violations : t -> int
  (** Outages that breached the installed T-interval contract (0 when no
      contract is installed, and 0 by construction after {!constrain}). *)
end
