(** Arbitrary-precision natural numbers.

    The commodity values manipulated by the paper's protocols shrink as fast
    as [2^-O(|E|)] (Theorem 3.1) and interval endpoints carry
    [O(|V| log d_out)] bits (Theorem 4.3), so fixed-width arithmetic is not an
    option and the sealed build environment has no [zarith].  This module is a
    self-contained bignum kernel: little-endian arrays of 30-bit limbs,
    schoolbook multiplication, shift-subtract division, binary GCD.

    All values are non-negative; [sub] raises on underflow.  Values are
    normalized (no leading zero limbs), so structural equality coincides with
    numeric equality. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] requires [n >= 0]. *)

val to_int_opt : t -> int option
(** [Some n] when the value fits in an OCaml [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit. *)

val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool

val compare : t -> t -> int

val compare_shifted : t -> t -> int -> int
(** [compare_shifted a b k] is [compare (shift_left a k) b], computed in
    place without allocating.  Requires [k >= 0]. *)

val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

val add : t -> t -> t

val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val succ : t -> t
val pred : t -> t

val mul : t -> t -> t
val mul_int : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], [0 <= r < b].
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val divmod_int : t -> int -> t * int
(** Division by a small positive int. *)

val gcd : t -> t -> t
(** Binary GCD; [gcd zero x = x]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val int_width : int -> int
(** Number of significant bits of a non-negative int; [int_width 0 = 0]. *)

val testbit : t -> int -> bool
(** [testbit x i] is bit [i] (LSB is bit 0). *)

val trailing_zeros : t -> int
(** Number of low zero bits; [trailing_zeros zero = 0]. *)

val pow2 : int -> t
(** [pow2 k] is [2^k]. *)

val pow : t -> int -> t
(** [pow b e] with [e >= 0], by binary exponentiation. *)

val of_string : string -> t
(** Parse a decimal string. @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val to_string_binary : t -> string
(** Binary representation, MSB first; ["0"] for zero. *)

val pp : Format.formatter -> t -> unit
