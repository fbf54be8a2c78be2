(** A work-stealing domain pool for embarrassingly-parallel job arrays.

    [run ~domains n f] evaluates [f 0 .. f (n-1)] across [domains] domains
    (the calling domain included) and returns the results as an array in job
    order, regardless of which domain ran which job or in what order they
    finished.  Jobs are claimed from a shared atomic counter, so long and
    short jobs balance themselves.  If any job raises, the first exception
    (in job order) is re-raised in the caller with its backtrace after all
    domains have joined. *)

val run : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [domains] defaults to [Domain.recommended_domain_count ()] and is
    clamped to at most [max n 1].  Raises [Invalid_argument] if [domains < 1]
    or [n < 0]. *)

val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list f xs] = [List.map f xs], computed by {!run}: same result
    order, parallel evaluation. *)
