(** Append-only bit sink.

    The paper's complexity measures are stated in bits (bandwidth = maximal
    bits over a single edge; total communication = bits over all edges), so
    every protocol message in this repository has a concrete, self-delimiting
    binary encoding produced through this writer.  Bits are packed MSB-first
    into bytes. *)

type t

val create : unit -> t

val reset : t -> unit
(** Empty the writer, keeping its buffer: a reused writer then behaves
    exactly like a fresh one without allocating. *)

val bit : t -> bool -> unit

val bits : t -> int -> int -> unit
(** [bits w v width] appends the low [width] bits of [v], MSB first.
    Requires [0 <= width <= 62] and [v >= 0]. *)

val length : t -> int
(** Number of bits written so far. *)

val to_string : t -> string
(** Packed bytes; the final byte is zero-padded. *)

val padded_bytes : t -> Bytes.t
(** The writer's own buffer, without a copy: its first
    [(length w + 7) / 8] bytes are [to_string w].  It is valid until the
    next write or {!reset}, and must not be mutated. *)

val to_bit_string : t -> string
(** Human-readable ['0']['1'] string, for tests and debugging. *)
