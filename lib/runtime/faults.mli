(** The per-edge adversary: channel faults and edge churn.

    The paper's model assumes reliable, exactly-once (if arbitrarily slow)
    channels over a static network; these knobs let the test-suite, the
    {!Campaign} harness and the {!Chaos} search probe what actually depends
    on that assumption.  At send time a copy may be hit by

    - {e drops}: no protocol in the paper retransmits, so any lost message
      must show up as non-termination, never as a false positive — this
      safety direction holds for every protocol and is property-tested;
    - {e duplication}: a re-delivered alpha commodity is indistinguishable
      from a detected cycle, so the scalar protocols double-count flow and
      even the interval protocols of Sections 4/5 can beta-flood coverage
      for values still in flight — both can falsely terminate (the paper's
      reliance on exactly-once channels is real).  The one exception is the
      mapping protocol: its termination additionally waits for one
      adjacency fact per announced out-edge, and facts are only minted by
      labeled (hence visited) vertices, which restores duplication safety;
    - {e delay}: a bounded hold on individual copies, which reorders
      messages sharing an edge even under the [Fifo] scheduler — the
      protocols are delta-based and must tolerate this;
    - {e corruption}: a single flipped bit on the encoded wire message,
      pushed through the real [decode] path by the engine;
    - {e kill}: a permanent edge failure — the adversary of the paper's
      non-termination direction made concrete.

    and when it is popped for delivery, by {e churn}: edges of the (fixed)
    network appear and disappear over time — the dynamic-network regime of
    anonymous broadcast (Kuhn–Lynch–Oshman-style T-interval connectivity;
    Parzych & Daymude's dynamic lower bounds; Austin et al.'s
    amnesiac-flooding breakage under edge insertion).  The dynamic graph is
    always a subgraph of the static {!Digraph} footprint: a {e removal}
    takes a present edge down for a bounded number of offers, after which
    it {e heals}; an {e add} is an edge absent from the start of the run
    that appears at a scripted point.

    A kill is not a removal that never heals: a dropped or killed copy
    never enters flight, while a copy offered on an absent edge is
    consumed — it counts as a delivery and occupies a replay-schedule slot,
    but is charged no bits and never reaches its vertex.

    {2 Distribution of one send}

    For a send on a live edge the draws are {e independent}, in this order,
    all from a per-edge PRNG stream derived from the plan seed (so a run is
    reproducible from [(seed, schedule)] and the stream of one edge does not
    depend on traffic elsewhere):

    + with probability [kill], the edge dies permanently; the killing send
      and everything after it on that edge is lost;
    + [1 + Geometric(duplicate)] copies are materialized: the count of
      extra copies is the number of leading successes of a [duplicate]-coin,
      so [P(extra = j) = duplicate^j * (1 - duplicate)];
    + each copy is {e independently} dropped with probability [drop];
    + each surviving copy is held for [Uniform{0..max_delay}] delivery
      steps and has one uniformly chosen bit of its wire encoding flipped
      with probability [corrupt].

    Duplication and drop compose the obvious way: a send materializes
    [Binomial(1 + Geometric(duplicate), 1 - drop)] deliverable copies.

    {2 Churn clocks are edge-local}

    An edge's churn state advances only on the {e offers} made on it —
    copies popped for delivery across that edge — exactly like {!Vfaults}
    downtime advances on deliveries offered to the vertex, and its coins
    come from a second per-edge stream derived from the churn seed.  An
    edge's fate therefore does not depend on traffic elsewhere, and a
    {!Scheduler.Replay} of the recorded [on_pop] schedule reproduces every
    churn event byte-for-byte.  The flip side: an edge nobody sends on has
    a frozen clock — a down edge heals only under traffic (e.g.
    {!Supervisor} retransmissions, which burn down the outage and then
    deliver the healed edge's last message).

    {2 T-interval connectivity}

    The T-interval contract keeps a stable spanning subgraph — the seeded
    {!skeleton}: a BFS out-arborescence from [s] plus one shortest out-step
    toward [t] per vertex — live through every window of [T] deliveries,
    and bounds every outage to fewer than [T] consecutive offers.
    {!constrain} {e clamps} a spec so the contract holds by construction
    ([T = 1] permits no churn at all); {!with_contract} installs it
    {e without} clamping, so a run counts how often a raw adversary
    breaches it ([window_violations] — one per violating outage).

    Two specification styles compose into one {!t}, mirroring {!Vfaults}:
    probabilistic plans drawn from the per-edge streams, and deterministic
    churn scripts — the representation the {!Chaos} search minimizes. *)

type plan = {
  drop : float;  (** Per-copy Bernoulli loss probability, in [\[0,1\]]. *)
  duplicate : float;
      (** Geometric extra-copy parameter, in [\[0,1)]; expected extra copies
          [duplicate / (1 - duplicate)]. *)
  max_delay : int;
      (** Max hold per copy, in delivery steps; 0 = deliverable at once. *)
  corrupt : float;  (** Per-copy single-bit-flip probability, in [\[0,1\]]. *)
  kill : float;  (** Per-send permanent edge-death probability, in [\[0,1\]]. *)
  remove : float;  (** Per-offer removal probability, in [\[0,1\]]. *)
  max_downtime : int;
      (** Extra offers swallowed after the removing one: the outage spans
          [1 + Uniform{0..max_downtime}] offers.  Must be [>= 0]. *)
}

val reliable : plan
(** The all-zero plan: the paper's channel on a static network. *)

val plan :
  ?drop:float ->
  ?duplicate:float ->
  ?max_delay:int ->
  ?corrupt:float ->
  ?kill:float ->
  ?remove:float ->
  ?max_downtime:int ->
  unit ->
  plan
(** [reliable] with the given fields overridden; validates ranges. *)

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
(** An immutable adversary specification: a plan per dense edge index, a
    churn script and two seeds.  Start a fresh {!Instance} per run. *)

val none : t
(** No faults; the engine takes a fast path. *)

val create :
  ?drop:float ->
  ?duplicate:float ->
  ?max_delay:int ->
  ?corrupt:float ->
  ?kill:float ->
  ?remove:float ->
  ?max_downtime:int ->
  seed:int ->
  unit ->
  t
(** Uniform plan on every edge, one [seed] for both streams.  All fields
    default to the reliable value. *)

val uniform : ?churn_seed:int -> plan -> seed:int -> t
(** [seed] derives the send streams, [churn_seed] (default [seed]) the
    churn streams.  A reliable plan is {!none}. *)

val per_edge : ?script:event list -> (int -> plan) -> seed:int -> t
(** [per_edge f ~seed] applies plan [f e] to dense edge index [e], plus the
    churn [script].  [f] is consulted once per edge per instance and must be
    pure; since it is opaque, the engine calls both hooks on every copy. *)

val script : event list -> t
(** Deterministic churn only — the {!Chaos} witness representation.  At most
    one [Add] per edge; removals on one edge fire in [at] order. *)

val is_none : t -> bool

val sends : t -> bool
(** Whether a send can be hit: the engine calls {!Instance.on_send} only
    then. *)

val offers : t -> bool
(** Whether an edge can churn: the engine calls {!Instance.on_offer} only
    then. *)

val skeleton : Digraph.t -> bool array
(** Per dense edge index: whether the edge belongs to the protected
    spanning subgraph (BFS arborescence from [s] union one shortest
    out-step toward [t] per co-reachable vertex). *)

val constrain : t_interval:int -> Digraph.t -> t -> t
(** Clamp the churn so the T-interval contract holds by construction:
    skeleton edges are never churned, and outages are capped below
    [t_interval] offers.  Send faults are untouched; a spec clamped to
    nothing collapses to {!none}. *)

val with_contract : t_interval:int -> Digraph.t -> t -> t
(** Install the contract for {e accounting only}: fates are unchanged, but
    instances count [window_violations] — how {!Chaos} measures how badly a
    raw script breaches T-interval connectivity. *)


type copy_fate = { delay : int; flip_bit : bool }
(** One materialized copy: hold it [delay] delivery steps, and flip one
    random bit of its encoding iff [flip_bit]. *)

type offer_fate =
  | Cross  (** The edge is live; the copy proceeds to its vertex fate. *)
  | Removed of int
      (** A removal fired on this offer (which is lost); the payload is the
          remaining outage length in offers. *)
  | Down  (** Swallowed by an absent edge that stays absent. *)
  | Back of [ `Add | `Heal ]
      (** Swallowed, but the outage drained: the edge is up again from the
          next offer on ([`Add] for an initially-absent edge's first
          appearance, [`Heal] for a removal healing). *)

(** Mutable per-run state: one per-edge table holding both PRNG streams,
    the dead flag and the churn status, plus every adversary counter.  The
    engine creates one per [run]. *)
module Instance : sig
  type faults := t
  type t

  val start : faults -> t

  val on_send : t -> edge:int -> copy_fate list
  (** Fates of the copies that actually enter the channel for one send on
      [edge]; [[]] means everything was lost (drop or dead edge).  The
      engine calls it only when {!sends} holds. *)

  val corrupt_bit : t -> edge:int -> length_bits:int -> int
  (** Which bit of a [length_bits]-bit encoding to flip, uniform; drawn at
      delivery time because the wire length is unknown at send time.
      Requires [length_bits > 0]. *)

  val on_offer : t -> edge:int -> offer_fate
  (** The churn fate of one copy popped on [edge]; advances that edge's
      churn clock.  The engine calls it only when {!offers} holds. *)

  val is_up : t -> edge:int -> bool
  (** Whether the edge is currently present (no clock advance). *)

  val dead_edges : t -> int list
  (** Dense indices of edges killed so far, sorted. *)

  val dropped_copies : t -> int
  (** Copies lost to the drop coin or to a dead edge. *)

  val extra_copies : t -> int
  (** Duplicate copies materialized beyond the one original per send. *)

  val delayed_copies : t -> int
  (** Copies held for at least one step. *)

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
