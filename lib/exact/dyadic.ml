module B = Bignat

(* Invariants: [exp >= 0]; [mant] is odd unless [exp = 0]; zero is
   [{ negative = false; mant = 0; exp = 0 }]. *)
type t = { negative : bool; mant : B.t; exp : int }

let zero = { negative = false; mant = B.zero; exp = 0 }
let one = { negative = false; mant = B.one; exp = 0 }
let half = { negative = false; mant = B.one; exp = 1 }

(* Strip the common power of two from mantissa and denominator with one
   shift. *)
let normalize negative mant exp =
  if B.is_zero mant then zero
  else if exp = 0 || not (B.is_even mant) then { negative; mant; exp }
  else begin
    let k = Stdlib.min exp (B.trailing_zeros mant) in
    { negative; mant = B.shift_right mant k; exp = exp - k }
  end

let make ?(negative = false) m e =
  if e < 0 then invalid_arg "Dyadic.make: negative exponent";
  normalize negative m e

let of_bignat n = { negative = false; mant = n; exp = 0 }

let of_int n =
  if n >= 0 then of_bignat (B.of_int n)
  else { negative = true; mant = B.of_int (-n); exp = 0 }

let mantissa x = x.mant
let exponent x = x.exp

let pow2 k =
  if k >= 0 then { negative = false; mant = B.pow2 k; exp = 0 }
  else { negative = false; mant = B.one; exp = -k }

let is_zero x = B.is_zero x.mant
let is_negative x = x.negative
let sign x = if is_zero x then 0 else if x.negative then -1 else 1

let neg x = if is_zero x then x else { x with negative = not x.negative }
let abs x = { x with negative = false }

(* Bring both operands over the common denominator 2^(max exp). *)
let align x y =
  let e = Stdlib.max x.exp y.exp in
  (B.shift_left x.mant (e - x.exp), B.shift_left y.mant (e - y.exp), e)

let add x y =
  let mx, my, e = align x y in
  if x.negative = y.negative then normalize x.negative (B.add mx my) e
  else begin
    let c = B.compare mx my in
    if c = 0 then zero
    else if c > 0 then normalize x.negative (B.sub mx my) e
    else normalize y.negative (B.sub my mx) e
  end

let sub x y = add x (neg y)

let mul x y = normalize (x.negative <> y.negative) (B.mul x.mant y.mant) (x.exp + y.exp)

let mul_pow2 x k =
  if is_zero x then x
  else if k >= 0 then
    if x.exp >= k then { x with exp = x.exp - k }
    else { x with mant = B.shift_left x.mant (k - x.exp); exp = 0 }
  else normalize x.negative x.mant (x.exp - k)

let div_pow2 x k = mul_pow2 x (-k)

(* Zero is never negative, so the sign flags alone order values of
   different signs; otherwise compare the magnitudes over the common
   denominator 2^(max exp), shifting in place. *)
let compare x y =
  if x.negative <> y.negative then if x.negative then -1 else 1
  else begin
    let c =
      if x.exp >= y.exp then - B.compare_shifted y.mant x.mant (x.exp - y.exp)
      else B.compare_shifted x.mant y.mant (y.exp - x.exp)
    in
    if x.negative then -c else c
  end

(* The normal form is unique, so equality is structural. *)
let equal x y = x.exp = y.exp && x.negative = y.negative && B.equal x.mant y.mant
let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y

let sum = List.fold_left add zero

let midpoint x y = div_pow2 (add x y) 1

let to_rational x =
  Rational.make ~negative:x.negative x.mant (B.pow2 x.exp)

let of_rational_opt r =
  let den = Rational.den r in
  let e = B.bit_length den - 1 in
  if B.equal den (B.pow2 e) then
    Some (make ~negative:(Rational.is_negative r) (Rational.num r) e)
  else None

let bit_size x =
  (* Sign bit, mantissa bits, and an Elias-gamma-sized exponent field. *)
  1 + B.bit_length x.mant + (2 * B.int_width x.exp) + 1

let to_binary_string x =
  let sign = if x.negative then "-" else "" in
  if is_zero x then "0"
  else begin
    let int_part = B.shift_right x.mant x.exp in
    let frac = B.sub x.mant (B.shift_left int_part x.exp) in
    if x.exp = 0 then sign ^ B.to_string_binary int_part
    else begin
      let bits =
        String.init x.exp (fun i -> if B.testbit frac (x.exp - 1 - i) then '1' else '0')
      in
      sign ^ B.to_string_binary int_part ^ "." ^ bits
    end
  end

let to_string x =
  let sign = if x.negative then "-" else "" in
  if is_zero x then "0"
  else begin
    let int_part = B.shift_right x.mant x.exp in
    let frac = B.sub x.mant (B.shift_left int_part x.exp) in
    if x.exp = 0 then sign ^ B.to_string int_part
    else begin
      (* frac / 2^e = frac * 5^e / 10^e: an exact decimal expansion. *)
      let scaled = B.mul frac (B.pow (B.of_int 5) x.exp) in
      let digits = B.to_string scaled in
      let padded =
        if String.length digits >= x.exp then digits
        else String.make (x.exp - String.length digits) '0' ^ digits
      in
      sign ^ B.to_string int_part ^ "." ^ padded
    end
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)

let to_float x =
  let shift = Stdlib.max 0 (B.bit_length x.mant - 512) in
  let m = float_of_string (B.to_string (B.shift_right x.mant shift)) in
  let r = m *. Float.pow 2.0 (Float.of_int (shift - x.exp)) in
  if x.negative then -.r else r
