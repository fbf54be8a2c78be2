(** Append-only, checksummed, fsync-batched write-ahead log of session
    lifecycle records — the durability half of [anonet serve].

    One record per line, [CRC32HEX ' ' BODY '\n'], checksum over the BODY
    bytes.  Sequential appends mean a crash can only damage the file's
    tail; {!scan_string} keeps the longest intact prefix and {e reports}
    a torn tail (missing newline, checksum mismatch, undecodable body)
    instead of failing on it.  {!open_append} amputates that tail so the
    continuing log is clean.

    Durability rule: [Submitted], [Cancelled] and [Failed] records are
    fsynced before {!append} returns; [Result] records are only written
    through, because a lost [Result] is recomputed: replay reruns the
    session deterministically and checks the digest of any [Result] that
    survived.  The fsynced kinds are group-committed: one caller writes
    and fsyncs the whole pending batch, and every batched caller returns
    together.  The server appends a submit {e before} acknowledging it,
    which is the entire recovery contract: acknowledged ⇒ journaled ⇒
    replayable. *)

type record =
  | Submitted of { id : string; line : string }
      (** The full request line as received — replay re-parses it, so
          recovery re-executes exactly the acknowledged submission. *)
  | Result of {
      id : string;
      digest : string;  (** MD5 hex of the result payload bytes. *)
      outcome : string;
      deliveries : int;
      total_bits : int;
    }
  | Cancelled of { id : string; reason : string }
  | Failed of { id : string; code : string; msg : string }

val digest : string -> string
(** MD5 hex of a payload — what {!Result} records carry and recovery
    verifies re-executed results against. *)

val crc32 : string -> int
(** IEEE CRC32 of a string (exposed for tests). *)

val encode : record -> string
(** One framed line including the trailing newline. *)

type scan = {
  records : record list;  (** The intact prefix, in append order. *)
  torn : bool;
      (** Trailing bytes failed framing, checksum or decode — recovery
          proceeds from the prefix and reports this. *)
  valid_bytes : int;  (** Offset where the intact prefix ends. *)
  total_bytes : int;
}

val scan_string : string -> scan
val scan_file : string -> (scan, string) result
(** A missing file is an empty (not torn) scan. *)

type t

val open_append : ?sync:bool -> string -> (t * scan, string) result
(** Scan the existing log (if any), truncate the torn tail, open for
    append.  [sync=false] writes every record through without fsync, for
    throwaway servers and tests. *)

val append : t -> record -> unit
(** Append one record in sequence order.  In sync mode a [Submitted],
    [Cancelled] or [Failed] record is durable on return (group-committed);
    a [Result] never waits for an fsync: it is written through, or, behind
    a syncer in flight, rides with the next batch or {!close}.
    @raise Invalid_argument after {!close}. *)

type stats = { s_appends : int; s_fsyncs : int; s_bytes : int }

val stats : t -> stats
val close : t -> unit
(** Wait for a syncer in flight, flush, fsync, close.  Idempotent. *)
