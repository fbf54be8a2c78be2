module B = Bignat

(* Two forms, and each value has exactly one of them:
   - [Small { m; e }] is [m / 2^e] with a signed mantissa [|m| < 2^61];
   - [Big { negative; mant; exp }] is [± mant / 2^exp] with [mant >= 2^61].
   Both keep [exponent >= 0], the mantissa odd unless the exponent is 0,
   and zero as [Small { m = 0; e = 0 }].  Two [Small] mantissas aligned
   within 2^61 add without overflow, since [2 * 2^61 <= max_int + 1]. *)
type t =
  | Small of { m : int; e : int }
  | Big of { negative : bool; mant : B.t; exp : int }

let small_bits = 61
let small_limit = 1 lsl small_bits

let zero = Small { m = 0; e = 0 }
let one = Small { m = 1; e = 0 }
let half = Small { m = 1; e = 1 }

(* [|m| * 2^d < 2^61]: [m] shifted left by [d >= 0] stays small.  Zero
   shifts to zero whatever [d]. *)
let shift_fits m d =
  m = 0
  || (d < small_bits
     &&
     let lim = small_limit asr d in
     m > -lim && m < lim)

(* Low zero bits of a non-zero int. *)
let ctz m =
  let m = ref m and k = ref 0 in
  if !m land 0xFFFFFFFF = 0 then (m := !m asr 32; k := 32);
  if !m land 0xFFFF = 0 then (m := !m asr 16; k := !k + 16);
  if !m land 0xFF = 0 then (m := !m asr 8; k := !k + 8);
  if !m land 0xF = 0 then (m := !m asr 4; k := !k + 4);
  if !m land 0x3 = 0 then (m := !m asr 2; k := !k + 2);
  if !m land 0x1 = 0 then k := !k + 1;
  !k

let int_width m = B.int_width (Stdlib.abs m)

(* The canonical form of [m / 2^e], for any int [m] but [min_int] and
   [e >= 0]. *)
let of_parts m e =
  if m = 0 then zero
  else begin
    let k = if e = 0 || m land 1 = 1 then 0 else Stdlib.min e (ctz m) in
    let m = m asr k and e = e - k in
    if m > -small_limit && m < small_limit then Small { m; e }
    else Big { negative = m < 0; mant = B.of_int (Stdlib.abs m); exp = e }
  end

(* The canonical form of a reduced, non-zero [± mant / 2^exp]. *)
let of_reduced negative mant exp =
  if B.bit_length mant <= small_bits then begin
    let m = B.to_int_exn mant in
    Small { m = (if negative then -m else m); e = exp }
  end
  else Big { negative; mant; exp }

(* Strip the common power of two from mantissa and denominator with one
   shift. *)
let normalize negative mant exp =
  if B.is_zero mant then zero
  else if exp = 0 || not (B.is_even mant) then of_reduced negative mant exp
  else begin
    let k = Stdlib.min exp (B.trailing_zeros mant) in
    of_reduced negative (B.shift_right mant k) (exp - k)
  end

let make ?(negative = false) m e =
  if e < 0 then invalid_arg "Dyadic.make: negative exponent";
  normalize negative m e

(* The same exception as [make], so that a garbled exponent read by
   [Bitio.Codes.read_dyadic] fails as it did through [make]. *)
let make_int ~negative m e =
  if e < 0 then invalid_arg "Dyadic.make: negative exponent";
  if m < 0 then invalid_arg "Dyadic.make_int: negative mantissa";
  of_parts (if negative then -m else m) e

let of_int n = of_parts n 0

let of_bignat n = normalize false n 0

let mantissa = function
  | Small { m; _ } -> B.of_int (Stdlib.abs m)
  | Big { mant; _ } -> mant

let mantissa_int = function Small { m; _ } -> Stdlib.abs m | Big _ -> -1

let exponent = function Small { e; _ } -> e | Big { exp; _ } -> exp

let pow2 k =
  if k < 0 then Small { m = 1; e = -k }
  else if k < small_bits then Small { m = 1 lsl k; e = 0 }
  else Big { negative = false; mant = B.pow2 k; exp = 0 }

let is_zero = function Small { m; _ } -> m = 0 | Big _ -> false
let is_negative = function Small { m; _ } -> m < 0 | Big { negative; _ } -> negative

let sign = function
  | Small { m; _ } -> Int.compare m 0
  | Big { negative; _ } -> if negative then -1 else 1

let neg = function
  | Small { m; e } as x -> if m = 0 then x else Small { m = -m; e }
  | Big b -> Big { b with negative = not b.negative }

let abs = function
  | Small { m; e } as x -> if m >= 0 then x else Small { m = -m; e }
  | Big b as x -> if b.negative then Big { b with negative = false } else x

(* [add] on [Bignat]s, for operands of either form; [normalize] picks
   the result's form. *)
let big_add x y =
  let ex = exponent x and ey = exponent y in
  let e = Stdlib.max ex ey in
  let mx = B.shift_left (mantissa x) (e - ex)
  and my = B.shift_left (mantissa y) (e - ey) in
  let nx = is_negative x and ny = is_negative y in
  if nx = ny then normalize nx (B.add mx my) e
  else begin
    let c = B.compare mx my in
    if c = 0 then zero
    else if c > 0 then normalize nx (B.sub mx my) e
    else normalize ny (B.sub my mx) e
  end

(* {1 Arithmetic} *)

let mul_pow2 x k =
  match x with
  | Small { m; e } ->
      if m = 0 || k = 0 then x
      else if k > 0 then
        if e >= k then Small { m; e = e - k }
        else if shift_fits m (k - e) then Small { m = m lsl (k - e); e = 0 }
        else begin
          let mant = B.shift_left (B.of_int (Stdlib.abs m)) (k - e) in
          Big { negative = m < 0; mant; exp = 0 }
        end
      else if e > 0 then Small { m; e = e - k }
      else of_parts m (-k)
  | Big b ->
      if k = 0 then x
      else if k > 0 then
        if b.exp >= k then Big { b with exp = b.exp - k }
        else Big { b with mant = B.shift_left b.mant (k - b.exp); exp = 0 }
      else normalize b.negative b.mant (b.exp - k)

(* [(x + y) / 2^extra] for [extra] 0 or 1: in native ints when both
   operands are small and the aligned mantissas stay small. *)
let add_div x y extra =
  match (x, y) with
  | Small a, Small b ->
      let d = a.e - b.e in
      if d >= 0 && shift_fits b.m d then of_parts (a.m + (b.m lsl d)) (a.e + extra)
      else if d < 0 && shift_fits a.m (-d) then
        of_parts ((a.m lsl (-d)) + b.m) (b.e + extra)
      else mul_pow2 (big_add x y) (-extra)
  | _ -> mul_pow2 (big_add x y) (-extra)

let add x y = add_div x y 0
let sub x y = add x (neg y)

let mul x y =
  normalize (is_negative x <> is_negative y)
    (B.mul (mantissa x) (mantissa y))
    (exponent x + exponent y)

let div_pow2 x k = mul_pow2 x (-k)

(* [compare m (n * 2^d)] for small [m], [n] and [d > 0]: once [n * 2^d]
   leaves the small range it outweighs [m], and [n]'s sign decides. *)
let compare_shifted m n d =
  if shift_fits n d then Int.compare m (n lsl d)
  else if n > 0 then -1
  else 1

(* [compare (m * 2^d) mant] for [0 < m < 2^61] and a wider [mant], where
   [d = bit_length mant - width m] lines the top bits up, by [m]'s bits
   against [mant]'s top ones.  Nothing is allocated.  Used only where the
   two values differ, so if every bit matches, [mant]'s lower bits are not
   all zero and [mant] is the larger. *)
let compare_top_bits m mant =
  let d = B.bit_length mant - int_width m in
  let i = ref (int_width m - 1) in
  while !i >= 0 && ((m lsr !i) land 1 = 1) = B.testbit mant (!i + d) do
    decr i
  done;
  if !i >= 0 && (m lsr !i) land 1 = 1 then 1 else -1

(* [compare (m / 2^e) (± mant / 2^exp)] for a small and a wide value.  A
   non-zero magnitude lies in [\[2^(p-1), 2^p)] for
   [p = bit_length mantissa - exponent], so unequal [p] order the
   magnitudes without aligning. *)
let compare_mixed m e negative mant exp =
  let sy = if negative then -1 else 1 in
  if m = 0 || (m < 0) <> negative then Int.compare (Int.compare m 0) sy
  else begin
    let am = Stdlib.abs m in
    let c = Int.compare (int_width am - e) (B.bit_length mant - exp) in
    let c = if c <> 0 then c else compare_top_bits am mant in
    if negative then -c else c
  end

(* Zero is never negative, so the signs alone order values of different
   signs. *)
let compare x y =
  match (x, y) with
  | Small a, Small b ->
      if a.e = b.e then Int.compare a.m b.m
      else if a.e > b.e then compare_shifted a.m b.m (a.e - b.e)
      else - compare_shifted b.m a.m (b.e - a.e)
  | Big a, Big b ->
      if a.negative <> b.negative then if a.negative then -1 else 1
      else begin
        (* Magnitudes over the common denominator, shifting in place. *)
        let c =
          if a.exp >= b.exp then - B.compare_shifted b.mant a.mant (a.exp - b.exp)
          else B.compare_shifted a.mant b.mant (b.exp - a.exp)
        in
        if a.negative then -c else c
      end
  | Small a, Big b -> compare_mixed a.m a.e b.negative b.mant b.exp
  | Big a, Small b -> - compare_mixed b.m b.e a.negative a.mant a.exp

(* The normal form is unique, so equality is structural. *)
let equal x y =
  match (x, y) with
  | Small a, Small b -> a.m = b.m && a.e = b.e
  | Big a, Big b -> a.exp = b.exp && a.negative = b.negative && B.equal a.mant b.mant
  | _ -> false

let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y

let sum = List.fold_left add zero

let midpoint x y = add_div x y 1

(* {1 Conversions} *)

let to_rational x = Rational.make ~negative:(is_negative x) (mantissa x) (B.pow2 (exponent x))

let of_rational_opt r =
  let den = Rational.den r in
  let e = B.bit_length den - 1 in
  if B.equal den (B.pow2 e) then
    Some (make ~negative:(Rational.is_negative r) (Rational.num r) e)
  else None

let bit_size x =
  (* Sign bit, mantissa bits, and an Elias-gamma-sized exponent field. *)
  let mant_bits =
    match x with Small { m; _ } -> int_width m | Big { mant; _ } -> B.bit_length mant
  in
  1 + mant_bits + (2 * B.int_width (exponent x)) + 1

(* Exponent, integer part and the fraction's bits, as [Bignat]s. *)
let split_point x =
  let mant = mantissa x and exp = exponent x in
  let int_part = B.shift_right mant exp in
  (exp, int_part, B.sub mant (B.shift_left int_part exp))

let to_binary_string x =
  let sign = if is_negative x then "-" else "" in
  if is_zero x then "0"
  else begin
    let exp, int_part, frac = split_point x in
    if exp = 0 then sign ^ B.to_string_binary int_part
    else begin
      let bits = String.init exp (fun i -> if B.testbit frac (exp - 1 - i) then '1' else '0') in
      sign ^ B.to_string_binary int_part ^ "." ^ bits
    end
  end

let to_string x =
  let sign = if is_negative x then "-" else "" in
  if is_zero x then "0"
  else begin
    let exp, int_part, frac = split_point x in
    if exp = 0 then sign ^ B.to_string int_part
    else begin
      (* frac / 2^e = frac * 5^e / 10^e: an exact decimal expansion. *)
      let scaled = B.mul frac (B.pow (B.of_int 5) exp) in
      let digits = B.to_string scaled in
      let padded =
        if String.length digits >= exp then digits
        else String.make (exp - String.length digits) '0' ^ digits
      in
      sign ^ B.to_string int_part ^ "." ^ padded
    end
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)

let to_float x =
  let mant = mantissa x in
  let shift = Stdlib.max 0 (B.bit_length mant - 512) in
  let m = float_of_string (B.to_string (B.shift_right mant shift)) in
  let r = m *. Float.pow 2.0 (Float.of_int (shift - exponent x)) in
  if is_negative x then -.r else r
