(** Exact signed dyadic rationals: values of the form [± m / 2^e].

    The paper's interval commodity (Definition 4.1) is built from
    "binary-point numbers of finite representation, i.e., a sum of powers of 2
    with a finite number of summands" — exactly the dyadic rationals.  The
    power-of-two flow rule of Section 3.1 also lives here: all its termination
    values are [2^-k].

    Values are normalized (mantissa odd unless the exponent is zero; zero is
    canonical).  A value whose mantissa magnitude is below [2^61] is one
    block of two ints, a signed mantissa and an exponent; any other keeps
    its mantissa as a {!Bignat.t}.  The form follows from the value alone,
    so each value has one representation and structural equality is
    numeric equality.  Arithmetic and comparison stay in native ints while
    both operands are small and the aligned mantissas fit, and otherwise
    run on {!Bignat} and pick the form of the result again. *)

type t

val zero : t
val one : t
val half : t

val make : ?negative:bool -> Bignat.t -> int -> t
(** [make m e] is [± m / 2^e], normalized. Requires [e >= 0]. *)

val make_int : negative:bool -> int -> int -> t
(** [make_int ~negative m e] is [make ~negative (Bignat.of_int m) e] without
    building the {!Bignat.t}.  Requires [m >= 0] and [e >= 0]. *)

val of_int : int -> t
val of_bignat : Bignat.t -> t

val mantissa : t -> Bignat.t
(** Mantissa magnitude of the normal form. *)

val mantissa_int : t -> int
(** The mantissa magnitude when it is below [2^61], and [-1] otherwise;
    unlike {!mantissa}, it allocates nothing. *)

val exponent : t -> int
(** Denominator exponent of the normal form: the value is
    [sign * mantissa / 2^exponent]. *)

val pow2 : int -> t
(** [pow2 k] is [2^k]; [k] may be negative. *)

val is_zero : t -> bool
val is_negative : t -> bool
val sign : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val mul_pow2 : t -> int -> t
(** [mul_pow2 x k] is [x * 2^k]; [k] may be negative (exact in all cases). *)

val div_pow2 : t -> int -> t
(** [div_pow2 x k] is [x / 2^k]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val sum : t list -> t

val midpoint : t -> t -> t
(** Exact average; the canonical way to bisect an interval. *)

val to_rational : t -> Rational.t

val of_rational_opt : Rational.t -> t option
(** [Some d] when the rational's denominator is a power of two. *)

val bit_size : t -> int
(** Bits of a mantissa+exponent encoding; used to measure message sizes and
    label lengths (Theorems 4.3 and 5.1). *)

val to_string : t -> string
(** Exact decimal expansion, e.g. ["0.3125"] for [5/16]. *)

val to_binary_string : t -> string
(** Exact binary-point expansion, e.g. ["0.0101"] for [5/16]. *)

val pp : Format.formatter -> t -> unit

val to_float : t -> float
(** Lossy, for display only. *)
