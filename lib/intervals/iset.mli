(** Interval-unions: finite unions of disjoint half-open dyadic intervals,
    the paper's [U\[0,1)] (Definition 4.1).

    Values are kept in normal form — sorted, pairwise disjoint, non-adjacent,
    non-empty intervals — so structural equality is set equality and the
    interval count is the minimal one (the quantity bounded by [O(|E|)] in
    Theorem 4.3). *)

type t

val empty : t
val unit : t
(** The full commodity [\[0,1)]. *)

val of_interval : Interval.t -> t
val of_intervals : Interval.t list -> t
(** Normalizes an arbitrary collection (overlaps and adjacency allowed). *)

val interval : Exact.Dyadic.t -> Exact.Dyadic.t -> t
(** [interval lo hi] is the single interval [\[lo, hi)]. *)

val intervals : t -> Interval.t list
(** The normal form, sorted. *)

val count : t -> int
(** Number of intervals in normal form. *)

val is_empty : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val measure : t -> Exact.Dyadic.t
val mem : Exact.Dyadic.t -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val disjoint : t -> t -> bool

val complement : t -> t
(** Complement within [\[0,1)]; only meaningful for subsets of the unit
    interval, which is all the protocols ever produce. *)

val is_unit : t -> bool
(** Does this union cover exactly [\[0,1)]?  The terminal's stopping
    predicate. *)

val union_is_unit : t -> t -> bool
(** [union_is_unit a b = is_unit (union a b)], in one sweep of both normal
    forms that allocates nothing. *)

val first_interval : t -> Interval.t option
(** Leftmost interval of the normal form. *)

val canonical_partition : t -> int -> t list
(** [canonical_partition a d] is the paper's canonical partition of [a] into
    [d] interval-unions (Definition 4.1 as used by Theorem 4.2): the first
    interval [I1] of [a] is {!Interval.split} into [d] parts; part [j < d] is
    the [j]-th slice, and part [d] additionally receives the remaining
    intervals [I2 ... Ir].

    Note: the paper's prose says "partition [I1] into [d-1] parts", but that
    leaves the last out-edge with an empty commodity on single-interval
    unions, which would break Theorem 4.2 already on binary trees; the proof
    of Theorem 4.3 ("each vertex ... produces [d_out(v)] new intervals")
    confirms the [d]-way split implemented here.

    Every part is non-empty when [a] is non-empty.  Requires [d >= 1].
    Partitioning the empty union yields [d] empty unions. *)

val write : Bitio.Bit_writer.t -> t -> unit
val read : Bitio.Bit_reader.t -> t
val size_bits : t -> int
(** Exact encoded size: the unit of all communication measurements. *)

val max_endpoint_bits : t -> int
(** Largest [Dyadic.bit_size] over all endpoints — the quantity Theorem 4.3
    bounds by [O(|V| log d_out)]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
