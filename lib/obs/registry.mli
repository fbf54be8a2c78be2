(** A low-overhead metrics registry: named counters, gauges and
    log₂-bucketed histograms.

    Registration ([counter]/[gauge]/[histogram]/[acounter]) resolves a name
    to a cell under a mutex and is idempotent — ask for the same name twice
    and you share the cell.  The {e updates} on a cell are single plain
    stores (one atomic RMW for {!acounter}), so instrumented hot paths pay a
    few nanoseconds per event.  Plain cells are single-writer; when several
    domains bump one total, use {!acounter}.  [snapshot] is safe to take
    from any domain at any time (values racy-read, registration locked). *)

type t

val create : unit -> t

(** {1 Cells} *)

type counter
type gauge
type acounter
type histogram

val counter : t -> string -> counter
(** @raise Invalid_argument if [name] is registered with another kind
    (same for the three below). *)

val gauge : t -> string -> gauge

val acounter : t -> string -> acounter
(** Atomic counter, for totals shared across domains (serve workers,
    [Par] pool sweeps). *)

val histogram : t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set : gauge -> int -> unit
val gauge_value : gauge -> int
val aincr : acounter -> unit
val aadd : acounter -> int -> unit
val avalue : acounter -> int

val observe : histogram -> int -> unit
(** O(1): bucket [b] counts observations with exactly [b] significand bits
    ([v <= 0] lands in bucket 0, [2^(b-1) .. 2^b - 1] in bucket [b]). *)

val observe_n : histogram -> int -> int -> unit
(** [observe_n h v n] is [n] observations of [v] at once ([n >= 0]). *)

val bucket_of : int -> int
val bucket_lo : int -> int
(** Smallest value of bucket [i]. *)

val bucket_hi : int -> int
(** Largest value of bucket [i] (0 for bucket 0). *)

(** {1 Snapshots}

    Deterministic: entries sorted by name, histograms as sparse
    [(bucket, count)] lists — two snapshots of equal state render to equal
    JSON bytes. *)

type entry =
  | Counter of int  (** [acounter]s snapshot as counters. *)
  | Gauge of int
  | Histogram of { h_count : int; h_sum : int; h_buckets : (int * int) list }

type snapshot = (string * entry) list

val snapshot : t -> snapshot

val diff : older:snapshot -> newer:snapshot -> snapshot
(** What happened between two snapshots: counters and histograms subtract,
    gauges keep the newer reading, entries missing from [newer] drop. *)

val merge : into:t -> ?prefix:string -> snapshot -> unit
(** Roll [snap] up into [into], each entry under [prefix ^ name]: counters
    and histogram contents {e add}, gauges take the incoming reading.
    Registration is idempotent — merging the same names again reuses the
    cells — so any number of per-session snapshots fold into one
    server-wide registry without double-registration.
    @raise Invalid_argument if a prefixed name is already registered with
    another kind.  Concurrent merges into one registry must be serialized
    by the caller (cell updates are plain stores). *)

val find : snapshot -> string -> int option
(** Counter or gauge value by name. *)

val find_histogram : snapshot -> string -> (int * int * (int * int) list) option
(** [(count, sum, sparse buckets)] by name. *)

val to_json : snapshot -> string
(** [{"counters":{..},"gauges":{..},"histograms":{..}}], byte-stable for a
    given snapshot. *)
