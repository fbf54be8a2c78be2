(** Minimal JSON emission helpers and the one parser.

    This is the single home of the RFC 8259 string-escaping rules for every
    JSON producer in the tree ({!Export}, {!Registry.to_json},
    [Runtime.Campaign.to_json], the model-checking report of
    [bench -- check]); callers compose objects by hand, which keeps the
    output byte-stable for diffing. *)

val buf_string : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal: surrounding quotes, with quote,
    backslash and all control characters below U+0020 escaped. *)

val buf_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** [buf_list b f xs] appends [\[f x1, f x2, ...\]]. *)

val buf_int_list : Buffer.t -> int list -> unit

val buf_float : Buffer.t -> float -> unit
(** Append a float as a legal JSON number: integers without a fraction,
    everything else via [%.6g]; non-finite values degrade to [0] (JSON has
    no [nan]/[inf] tokens). *)

val escape : string -> string
(** [escape s] is the JSON string literal for [s], quotes included. *)

val to_channel : out_channel -> (Buffer.t -> unit) -> unit
(** [to_channel oc emit] renders [emit] into a scratch buffer, writes the
    result to [oc] as one newline-terminated line and flushes — the NDJSON
    framing discipline of [anonet serve].  Rendering before writing keeps a
    raising emitter from leaving a torn frame on the wire. *)

(** {1 Documents}

    A full parser for the serving layer's request side; numbers keep their
    source lexeme, so {!to_string} of a parsed document never respells a
    number. *)

type value =
  | Null
  | Bool of bool
  | Number of string  (** The unconverted source lexeme. *)
  | String of string  (** Escapes decoded ([\uXXXX] re-encoded as UTF-8). *)
  | Array of value list
  | Object of (string * value) list  (** Members in source order. *)

val parse : string -> (value, int) result
(** One complete document (trailing whitespace allowed, trailing garbage
    not); [Error pos] gives the byte offset of the first offence. *)

val valid : string -> bool
(** [valid s] is [Result.is_ok (parse s)]. *)

val to_string : value -> string
(** Compact serialization: member order preserved, strings re-escaped with
    {!buf_string}, number lexemes verbatim. *)

val buf_value : Buffer.t -> value -> unit

val member : string -> value -> value option
(** Object member by key ([None] on non-objects too). *)

val to_int_opt : value -> int option
val to_float_opt : value -> float option
val to_string_opt : value -> string option
val to_bool_opt : value -> bool option
