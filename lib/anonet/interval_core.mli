(** The interval-commodity state machine shared by the general-graph
    broadcast protocol (Section 4), the unique-labeling protocol (Section 5)
    and the topology-mapping extension.

    A vertex's state is [pi = (alpha_bar, beta)] plus, in labeling mode, the
    label interval-union [alpha_0] it keeps for itself:

    - [alpha.(j)] is the interval-union sent so far on out-port [j];
    - [beta] is the cycle/label information to be flooded towards [t];
    - on the {e first} message carrying a non-empty interval-union the vertex
      performs the canonical partition of Definition 4.1 (in labeling mode,
      into [d+1] parts, keeping part 0);
    - later arrivals route their unseen part to the last out-port and move
      the already-seen part (a detected cycle) into [beta];
    - [beta] deltas are flooded on every out-port.

    All state components are monotonically increasing under set inclusion —
    the paper's state-monotonicity property — which {!invariant} checks. *)

type t = {
  initialized : bool;  (** Has the canonical partition been performed? *)
  alpha : Intervals.Iset.t array;  (** Per out-port, length = out-degree. *)
  beta : Intervals.Iset.t;
  label : Intervals.Iset.t;  (** Empty unless labeling mode initialized. *)
  seen_alpha : Intervals.Iset.t;  (** Union of every received alpha. *)
  sent : Intervals.Iset.t;
      (** [label] and every [alpha.(j)] together: the alpha this vertex has
          already routed, against which later arrivals are checked.  Derived
          from the fields above, so {!digest} leaves it out. *)
  bits : int;
      (** The state size: the encoded sizes of [alpha], [beta], [label] and
          [seen_alpha] plus 8 bits.  Derived like [sent]; {!step} adjusts it
          for the components it changed, so reading it is O(1). *)
}

type outgoing = {
  port : int;
  d_alpha : Intervals.Iset.t;  (** New-to-this-port alpha content. *)
  d_beta : Intervals.Iset.t;  (** New beta content. *)
}

val create : out_degree:int -> t
(** The common initial state [pi0]. *)

val step :
  assign_label:bool ->
  t ->
  alpha:Intervals.Iset.t ->
  beta:Intervals.Iset.t ->
  t * outgoing list
(** One application of [(f, g)].  Only ports with something new to say
    appear in the result (the paper's [g = phi] case). *)

val accepting : t -> bool
(** The stopping predicate [S]: everything received or beta-flooded covers
    exactly [\[0,1)]. *)

val covered : t -> Intervals.Iset.t
(** [seen_alpha union beta], the quantity [S] tests. *)

val digest : t -> string
(** Canonical fingerprint of the whole state, for {!Runtime.Explore}. *)

val invariant : ?prev:t -> t -> bool
(** Structural invariants: [alpha.(j)] pairwise disjoint and disjoint from
    the label, [sent] their union at a vertex with out-ports, [bits] the
    recomputed state size; with [?prev],
    state-monotonicity w.r.t. that earlier state. *)
