(** Delivery schedules.

    The model of Section 2 is fully asynchronous: an adversary may delay any
    in-flight message arbitrarily.  The paper's correctness claims hold for
    {e every} schedule, so the engine abstracts delivery order behind this
    type and the test-suite re-runs protocols under many schedules.  Since
    the protocols are delta-based and state-monotone, no per-edge FIFO
    assumption is made — [Lifo] and [Random] freely reorder messages that
    share an edge; [Rounds] runs Section 2's synchronous model. *)

type t =
  | Fifo  (** Deliver in send order: the "synchronous-looking" schedule. *)
  | Rounds
      (** Section 2's synchronous model: [Fifo] order, which delivers round
          by round (a copy's round is its causal depth), except that the
          terminal's acceptance only closes its round; the run ends once
          that round is delivered. *)
  | Lifo  (** Always deliver the newest message: depth-first progress. *)
  | Random of Prng.t
      (** Uniformly random in-flight message: the schedule used for
          randomized stress tests. *)
  | Edge_priority of (int -> int)
      (** Deliver the in-flight message whose dense edge index minimizes the
          given function (ties by send order); an adversarial family —
          e.g. starving the direct edges to [t] for as long as possible. *)
  | Replay of int list
      (** Deliver exactly the listed send sequence numbers, in order, then
          stop (the engine then reports [Terminated]/[Quiescent] from the
          state reached).  Sequence numbers are assigned deterministically by
          the engine — the root's [sigma0] messages first, then each
          delivery's sends in emission order — so a schedule recorded by
          {!Explore} replays the exact same interleaving, turning a
          counterexample into a runnable {!Trace}. *)

val describe : t -> string
