(** Interned wire encodings: one slot per distinct [(bit length, bytes)]
    pair.

    A message is encoded into the arena's own reusable
    {!Bitio.Bit_writer.t}, hashed over its bit length and padded bytes, and
    looked up in an open-addressing table of slot ids.  A hash match is
    confirmed byte for byte against the stored encoding, so two different
    encodings never share a slot.  Only a miss copies the bytes, into one
    growing buffer; a hit allocates nothing.

    [seen] marks the slots whose encoding crossed an edge at least once:
    {!distinct} is the paper's symbol count [|Sigma_G|]. *)

type t

val create : unit -> t

val intern : t -> (Bitio.Bit_writer.t -> 'a -> unit) -> 'a -> int
(** [intern a encode msg] encodes [msg] with [encode] and returns the slot
    of that encoding.  A miss adds the next slot: slots are numbered
    0, 1, ... in order of first appearance. *)

val len_bits : t -> int -> int
(** Exact encoded length of a slot, in bits. *)

val to_string : t -> int -> string
(** A slot's packed bytes (last byte zero-padded), as a fresh string. *)

val mark_seen : t -> int -> unit

val distinct : t -> int
(** Slots marked by {!mark_seen}. *)
