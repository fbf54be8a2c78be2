(** Per-vertex (process) fault plans: crashes, restarts and stutter.

    {!Faults} makes the {e channels} unreliable; this module makes the
    {e processes} unreliable — the churn regime of anonymous dynamic
    broadcast (Parzych & Daymude's impossibility results, amnesiac
    flooding), where the paper's linear-cut termination machinery is most
    fragile.  A vertex may

    - {e crash-stop}: die permanently, swallowing every later delivery;
    - {e crash-restart with amnesia}: lose its whole protocol state (reset
      to [pi0]) and its visited flag — it no longer holds the broadcast
      payload and must be re-reached.  When a {!Supervisor} is armed its
      per-vertex checkpoints are durable storage, so amnesia degrades to a
      restore-from-checkpoint (this is the supervisor's soundness
      guarantee: state loss after a vertex has forwarded its flow is
      invisible to the paper's conservation-based termination machinery);
    - {e crash-restart from a checkpoint}: resume from the engine's last
      per-vertex checkpoint (see {!Supervisor}); only the deliveries
      processed since the checkpoint are lost;
    - {e stutter}: silently swallow a delivery while otherwise healthy.

    Downtime is measured in {e deliveries addressed to the vertex}: a down
    vertex consumes (and loses) the next [downtime] messages aimed at it,
    then restarts.  This clock is local to the vertex, so a scripted fate
    does not depend on the delivery schedule elsewhere: {!Chaos} replays
    and shrinks a fault set under any schedule and sees the same crashes.

    The source [s] never receives, so it never crashes — the root is
    immortal by construction (the paper's model: [s] initiates, everything
    else reacts).

    Two specification styles compose into one {!t}:

    - {e probabilistic plans} ({!uniform}): per-delivery
      crash and stutter coins drawn from per-vertex PRNG streams derived
      from the seed, exactly like {!Faults} edge streams — reproducible and
      independent of the schedule;
    - {e scripts} ({!script}): deterministic crash events "vertex [v]
      crashes at its [at]-th offered delivery", the representation the
      {!Chaos} search minimizes. *)

type recovery =
  | Stop  (** Crash-stop: permanently dead. *)
  | Amnesia  (** Restart from [pi0] with full state loss. *)
  | Restore  (** Restart from the engine's last checkpoint. *)

val describe_recovery : recovery -> string

type plan = {
  crash : float;  (** Per-delivery crash probability, in [\[0,1\]]. *)
  max_downtime : int;
      (** Downtime per crash is [Uniform{1..max_downtime}] deliveries; must
          be [>= 1].  Ignored for [Stop]. *)
  recovery : recovery;
  stutter : float;  (** Per-delivery silent-swallow probability. *)
}

val immortal : plan
(** The all-zero plan: the paper's reliable process. *)

val plan :
  ?crash:float ->
  ?max_downtime:int ->
  ?recovery:recovery ->
  ?stutter:float ->
  unit ->
  plan
(** [immortal] with fields overridden; validates ranges. *)

type crash_event = {
  cv : int;  (** Vertex. *)
  at : int;  (** Crash at its [at]-th delivery offered while up (1-based). *)
  downtime : int;  (** Deliveries swallowed before restart; [>= 1]. *)
  c_recovery : recovery;
}

val event :
  vertex:int -> at:int -> ?downtime:int -> ?recovery:recovery -> unit ->
  crash_event
(** Defaults: [downtime = 1], [recovery = Amnesia]. *)

type t
(** A vertex-fault specification; start a fresh {!Instance} per run. *)

val none : t
(** No vertex faults; the engines take a fast path. *)

val uniform : plan -> seed:int -> t

val script : crash_event list -> t
(** Deterministic crashes only — the {!Chaos} witness representation.
    Multiple events per vertex fire in [at] order; one whose [at] passed
    while the vertex was down fires on its next delivery offered while
    up. *)

val is_none : t -> bool

type fate =
  | Deliver  (** Process normally. *)
  | Stutter  (** Swallow this delivery; vertex stays healthy. *)
  | Down_drop  (** Swallowed because the vertex is down or stopped. *)
  | Crash of recovery * int
      (** The vertex crashes {e on} this delivery (which is lost); the
          engine applies the recovery's state change and the instance keeps
          it down for the given number of subsequent deliveries. *)

(** Mutable per-run state: per-vertex PRNG streams, up/down status and the
    fault counters. *)
module Instance : sig
  type vfaults := t
  type t

  val start : vfaults -> t

  val on_deliver : t -> vertex:int -> fate
  (** The fate of one delivery addressed to [vertex]; advances that vertex's
      clocks and updates the counters. *)

  val is_up : t -> vertex:int -> bool
  (** Whether the vertex is currently healthy (used by the supervisor to
      pick retransmission sources). *)

  val stopped : t -> int list
  (** Vertices crash-stopped so far, sorted. *)

  val crashes : t -> int
  val restarts : t -> int

  val down_drops : t -> int
  (** Deliveries swallowed while down or stopped (the crashing delivery
      itself is counted under [crashes], not here). *)

  val stuttered : t -> int
end
