module B = Bignat
module Q = Exact.Rational
module Dy = Exact.Dyadic
module C = Bitio.Codes
module W = Bitio.Bit_writer
module R = Bitio.Bit_reader
open Helpers

(* {1 Unit tests} *)

let test_normalization () =
  Alcotest.check dyadic "4/8 = 1/2" Dy.half (Dy.make (B.of_int 4) 3);
  Alcotest.check dyadic "0/2^k = 0" Dy.zero (Dy.make B.zero 10);
  Alcotest.(check int) "mantissa odd after normalize" 3
    (B.to_int_exn (Dy.mantissa (Dy.make (B.of_int 12) 4)));
  Alcotest.(check int) "exponent reduced" 2 (Dy.exponent (Dy.make (B.of_int 12) 4))

let test_decimal_strings () =
  Alcotest.(check string) "5/16" "0.3125" (Dy.to_string (Dy.make (B.of_int 5) 4));
  Alcotest.(check string) "1/2" "0.5" (Dy.to_string Dy.half);
  Alcotest.(check string) "integer" "7" (Dy.to_string (Dy.of_int 7));
  Alcotest.(check string) "negative" "-0.25" (Dy.to_string (Dy.make ~negative:true B.one 2));
  Alcotest.(check string) "zero" "0" (Dy.to_string Dy.zero);
  Alcotest.(check string) "mixed" "2.75" (Dy.to_string (Dy.make (B.of_int 11) 2))

let test_binary_strings () =
  Alcotest.(check string) "5/16" "0.0101" (Dy.to_binary_string (Dy.make (B.of_int 5) 4));
  Alcotest.(check string) "integer" "111" (Dy.to_binary_string (Dy.of_int 7));
  Alcotest.(check string) "zero" "0" (Dy.to_binary_string Dy.zero)

let test_arith_known () =
  Alcotest.check dyadic "1/2 + 1/4" (Dy.make (B.of_int 3) 2)
    (Dy.add Dy.half (Dy.make B.one 2));
  Alcotest.check dyadic "1/2 - 1/4" (Dy.make B.one 2) (Dy.sub Dy.half (Dy.make B.one 2));
  Alcotest.check dyadic "1/4 - 1/2 negative" (Dy.make ~negative:true B.one 2)
    (Dy.sub (Dy.make B.one 2) Dy.half);
  Alcotest.check dyadic "3/4 * 1/2" (Dy.make (B.of_int 3) 3)
    (Dy.mul (Dy.make (B.of_int 3) 2) Dy.half)

let test_pow2 () =
  Alcotest.check dyadic "2^3" (Dy.of_int 8) (Dy.pow2 3);
  Alcotest.check dyadic "2^-2" (Dy.make B.one 2) (Dy.pow2 (-2));
  Alcotest.check dyadic "2^0" Dy.one (Dy.pow2 0)

let test_mul_pow2 () =
  let x = Dy.make (B.of_int 3) 2 in
  Alcotest.check dyadic "x * 4" (Dy.of_int 3) (Dy.mul_pow2 x 2);
  Alcotest.check dyadic "x / 4" (Dy.make (B.of_int 3) 4) (Dy.div_pow2 x 2);
  Alcotest.check dyadic "x * 8 across exp" (Dy.of_int 6) (Dy.mul_pow2 x 3)

let test_midpoint () =
  Alcotest.check dyadic "mid(0,1)" Dy.half (Dy.midpoint Dy.zero Dy.one);
  Alcotest.check dyadic "mid(1/4,1/2)" (Dy.make (B.of_int 3) 3)
    (Dy.midpoint (Dy.make B.one 2) Dy.half)

let test_rational_bridge () =
  let d = Dy.make (B.of_int 5) 4 in
  Alcotest.check rational "to_rational" (Q.of_ints 5 16) (Dy.to_rational d);
  (match Dy.of_rational_opt (Q.of_ints 5 16) with
  | Some d' -> Alcotest.check dyadic "roundtrip" d d'
  | None -> Alcotest.fail "5/16 is dyadic");
  Alcotest.(check bool) "1/3 not dyadic" true (Dy.of_rational_opt (Q.of_ints 1 3) = None)

let test_to_float () =
  Alcotest.(check (float 1e-12)) "0.3125" 0.3125 (Dy.to_float (Dy.make (B.of_int 5) 4));
  Alcotest.(check (float 1e-12)) "-2.5" (-2.5) (Dy.to_float (Dy.make ~negative:true (B.of_int 5) 1))

(* {1 Properties} *)

let prop_add_comm =
  qcheck_to_alcotest "add commutative"
    QCheck.(pair arb_dyadic arb_dyadic)
    (fun (a, b) -> Dy.equal (Dy.add a b) (Dy.add b a))

let prop_add_assoc =
  qcheck_to_alcotest "add associative"
    QCheck.(triple arb_dyadic arb_dyadic arb_dyadic)
    (fun (a, b, c) -> Dy.equal (Dy.add (Dy.add a b) c) (Dy.add a (Dy.add b c)))

let prop_add_neg =
  qcheck_to_alcotest "x + (-x) = 0" arb_dyadic (fun a -> Dy.is_zero (Dy.add a (Dy.neg a)))

let prop_sub_add =
  qcheck_to_alcotest "(a-b)+b = a"
    QCheck.(pair arb_dyadic arb_dyadic)
    (fun (a, b) -> Dy.equal (Dy.add (Dy.sub a b) b) a)

let prop_mul_agrees_with_rational =
  qcheck_to_alcotest "mul agrees with rationals"
    QCheck.(pair arb_dyadic arb_dyadic)
    (fun (a, b) ->
      Q.equal (Dy.to_rational (Dy.mul a b)) (Q.mul (Dy.to_rational a) (Dy.to_rational b)))

let prop_add_agrees_with_rational =
  qcheck_to_alcotest "add agrees with rationals"
    QCheck.(pair arb_dyadic arb_dyadic)
    (fun (a, b) ->
      Q.equal (Dy.to_rational (Dy.add a b)) (Q.add (Dy.to_rational a) (Dy.to_rational b)))

let prop_compare_agrees_with_rational =
  qcheck_to_alcotest "compare agrees with rationals"
    QCheck.(pair arb_dyadic arb_dyadic)
    (fun (a, b) -> Dy.compare a b = Q.compare (Dy.to_rational a) (Dy.to_rational b))

let prop_normal_form =
  qcheck_to_alcotest "normal form: odd mantissa or zero exponent" arb_dyadic (fun a ->
      if Dy.is_zero a then Dy.exponent a = 0 && not (Dy.is_negative a)
      else Dy.exponent a = 0 || not (B.is_even (Dy.mantissa a)))

let prop_mul_pow2_roundtrip =
  qcheck_to_alcotest "mul_pow2 then div_pow2"
    QCheck.(pair arb_dyadic (int_bound 60))
    (fun (a, k) -> Dy.equal (Dy.div_pow2 (Dy.mul_pow2 a k) k) a)

let prop_midpoint_between =
  qcheck_to_alcotest "midpoint strictly between"
    QCheck.(pair arb_dyadic arb_dyadic)
    (fun (a, b) ->
      QCheck.assume (not (Dy.equal a b));
      let lo = Dy.min a b and hi = Dy.max a b in
      let m = Dy.midpoint a b in
      Dy.compare lo m < 0 && Dy.compare m hi < 0)

let prop_rational_roundtrip =
  qcheck_to_alcotest "dyadic -> rational -> dyadic" arb_dyadic (fun a ->
      match Dy.of_rational_opt (Dy.to_rational a) with
      | Some a' -> Dy.equal a a'
      | None -> false)

let prop_of_rational_rejects_non_dyadic =
  qcheck_to_alcotest "rejects odd denominators > 1" arb_rational (fun q ->
      QCheck.assume (not (B.is_one (Q.den q)));
      QCheck.assume (not (B.is_even (Q.den q)));
      Dy.of_rational_opt q = None)

(* [b] is often [a] itself, rebuilt from a mantissa and exponent both
   scaled by 2^k, so equal values take the structural path. *)
let prop_equal_is_compare_zero =
  qcheck_to_alcotest "equal iff compare = 0, on rebuilt copies too"
    QCheck.(triple arb_dyadic arb_dyadic (int_range (-20) 20))
    (fun (a, b, k) ->
      let b =
        if k < 0 then b
        else
          Dy.make ~negative:(Dy.is_negative a)
            (B.shift_left (Dy.mantissa a) k)
            (Dy.exponent a + k)
      in
      Dy.equal a b = (Dy.compare a b = 0)
      && Dy.compare a b = - Dy.compare b a)

let prop_div_pow2_normal =
  qcheck_to_alcotest "div_pow2 keeps the normal form"
    QCheck.(pair arb_dyadic (int_bound 60))
    (fun (a, k) ->
      let d = Dy.div_pow2 a k in
      (Dy.exponent d = 0 || not (B.is_even (Dy.mantissa d)))
      && Q.equal (Dy.to_rational d) (Q.div (Dy.to_rational a) (Q.make (B.pow2 k) B.one)))

(* {1 The 2^61 boundary}  A mantissa below 2^61 is held in an int and a
   wider one in a [Bignat]; [gen_dyadic] seldom lands near the switch.
   These draws have 55-66-bit mantissas and exponents up to 80, so
   aligning two of them crosses 2^61 either way. *)

let gen_boundary =
  QCheck.Gen.(
    map3 (fun negative m e -> Dy.make ~negative m e) bool (gen_wide_mantissa 55 66) (int_bound 80))

let arb_boundary = QCheck.make ~print:Dy.to_string gen_boundary

let arb_boundary_pair =
  QCheck.(
    make
      ~print:(Print.pair Dy.to_string Dy.to_string)
      Gen.(pair gen_boundary (oneof [ gen_boundary; gen_dyadic ])))

let q = Dy.to_rational
let same d r = Q.equal (q d) r

let prop_boundary_arith =
  qcheck_to_alcotest ~count:500 "near 2^61: add, sub and midpoint agree with rationals"
    arb_boundary_pair (fun (a, b) ->
      same (Dy.add a b) (Q.add (q a) (q b))
      && same (Dy.add b a) (Q.add (q a) (q b))
      && same (Dy.sub a b) (Q.sub (q a) (q b))
      && same (Dy.sub b a) (Q.sub (q b) (q a))
      && same (Dy.midpoint a b) (Q.div (Q.add (q a) (q b)) (Q.of_int 2)))

let prop_boundary_order =
  qcheck_to_alcotest ~count:500 "near 2^61: compare, min and max agree with rationals"
    arb_boundary_pair (fun (a, b) ->
      let c = Q.compare (q a) (q b) in
      Dy.compare a b = c
      && Dy.compare b a = -c
      && same (Dy.min a b) (if c <= 0 then q a else q b)
      && same (Dy.max a b) (if c >= 0 then q a else q b))

(* [a] against [a ± 2^-k]: the same leading bit, so [compare] cannot
   decide on magnitudes alone, and the two often differ in form. *)
let prop_boundary_neighbours =
  qcheck_to_alcotest ~count:500 "near 2^61: compare with a neighbour one low bit away"
    QCheck.(triple arb_boundary (int_bound 100) bool)
    (fun (a, k, up) ->
      let eps = Dy.pow2 (-k) in
      let b = if up then Dy.add a eps else Dy.sub a eps in
      let c = Q.compare (q a) (q b) in
      Dy.compare a b = c && Dy.compare b a = -c && c = if up then -1 else 1)

let prop_boundary_pow2 =
  qcheck_to_alcotest ~count:500 "near 2^61: mul_pow2 and div_pow2 agree with rationals"
    QCheck.(pair arb_boundary (int_range (-90) 90))
    (fun (a, k) ->
      let p = Q.make (B.pow2 (Stdlib.abs k)) B.one in
      let scaled = if k >= 0 then Q.mul (q a) p else Q.div (q a) p in
      same (Dy.mul_pow2 a k) scaled && same (Dy.div_pow2 a (-k)) scaled)

(* The form follows from the value: an int mantissa exactly when it is
   below 2^61. *)
let normal d =
  let m = Dy.mantissa d in
  (Dy.exponent d = 0 || not (B.is_even m))
  && Dy.mantissa_int d = if B.bit_length m <= 61 then B.to_int_exn m else -1

let prop_boundary_normal_form =
  qcheck_to_alcotest ~count:500 "near 2^61: every result is in normal form"
    QCheck.(pair arb_boundary_pair (int_range (-70) 70))
    (fun ((a, b), k) ->
      List.for_all normal
        [ a; b; Dy.add a b; Dy.sub a b; Dy.midpoint a b; Dy.mul_pow2 a k; Dy.mul a b ])

(* One representation per value: a copy rebuilt from a shifted mantissa,
   or reached through the other form, is structurally the same. *)
let prop_boundary_structural =
  qcheck_to_alcotest ~count:500 "near 2^61: equal iff structurally equal, on rebuilt copies"
    QCheck.(triple arb_boundary_pair (int_bound 40) bool)
    (fun ((a, b), k, rebuild) ->
      let b =
        if not rebuild then b
        else
          Dy.make ~negative:(Dy.is_negative a)
            (B.shift_left (Dy.mantissa a) k)
            (Dy.exponent a + k)
      in
      let through = Dy.sub (Dy.add a b) b in
      Dy.equal a b = (a = b) && through = a && Dy.equal through a)

(* Sign, exponent, then [write_bignat] of the mantissa: the bits the int
   path must write too. *)
let reference_bits d =
  let w = W.create () in
  W.bit w (Dy.is_negative d);
  C.write_gamma0 w (Dy.exponent d);
  C.write_bignat w (Dy.mantissa d);
  W.to_bit_string w

(* Values a mantissa's width away from 2^61, where the two forms meet:
   each result must be in normal form, right, and a codec round trip. *)
let test_boundary_values () =
  let p61 = B.pow2 61 in
  let big_int m = Dy.make m 0 in
  let at = big_int p61 and below = big_int (B.pred p61) and above = big_int (B.succ p61) in
  let cases =
    [
      ("2^61", at, Q.make p61 B.one);
      ("2^61 - 1", below, Q.make (B.pred p61) B.one);
      ("2^60 + 2^60", Dy.add (Dy.pow2 60) (Dy.pow2 60), Q.make p61 B.one);
      ("(2^61 - 1) + 1", Dy.add below Dy.one, Q.make p61 B.one);
      ("2^61 - 1", Dy.sub at Dy.one, Q.make (B.pred p61) B.one);
      ("-(2^61) + 1", Dy.add (Dy.neg at) Dy.one, Q.neg (Q.make (B.pred p61) B.one));
      ("(2^61 + 1) - 2", Dy.sub above (Dy.of_int 2), Q.make (B.pred p61) B.one);
      ("1 * 2^61", Dy.mul_pow2 Dy.one 61, Q.make p61 B.one);
      ("2^60 * 2", Dy.mul_pow2 (Dy.pow2 60) 1, Q.make p61 B.one);
      ("-(2^59) * 4", Dy.mul_pow2 (Dy.neg (Dy.pow2 59)) 2, Q.neg (Q.make p61 B.one));
      ("(2^61 - 1) * 2", Dy.mul_pow2 below 1, Q.make (B.shift_left (B.pred p61) 1) B.one);
      ("2^62 / 2", Dy.div_pow2 (Dy.pow2 62) 1, Q.make p61 B.one);
      ("mid(2^61 - 1, 2^61 + 1)", Dy.midpoint below above, Q.make p61 B.one);
      ("(2^61 - 1) / 2^70 + 2^-70", Dy.add (Dy.div_pow2 below 70) (Dy.pow2 (-70)),
        Q.make B.one (B.pow2 9));
    ]
  in
  List.iter
    (fun (name, d, r) ->
      Alcotest.check rational name r (Dy.to_rational d);
      Alcotest.(check bool) (name ^ ": normal form") true (normal d);
      let w = W.create () in
      C.write_dyadic w d;
      let back = C.read_dyadic (R.of_string ~length_bits:(W.length w) (W.to_string w)) in
      Alcotest.(check bool) (name ^ ": codec") true (back = d && W.length w = C.dyadic_size d))
    cases;
  Alcotest.(check int) "2^61 - 1 is an int" (B.to_int_exn (B.pred p61)) (Dy.mantissa_int below);
  Alcotest.(check int) "2^61 is not" (-1) (Dy.mantissa_int at);
  Alcotest.(check int) "compare 2^61 - 1 with 2^61" (-1) (Dy.compare below at);
  Alcotest.(check int) "compare -(2^61) with -(2^61 - 1)" (-1) (Dy.compare (Dy.neg at) (Dy.neg below))

let prop_boundary_codec =
  qcheck_to_alcotest ~count:500 "codec at mantissa widths 59-64: same bits, round trip, size"
    QCheck.(
      make ~print:Dy.to_string
        Gen.(
          map3
            (fun negative m e -> Dy.make ~negative (if B.is_even m then B.succ m else m) (e + 1))
            bool (gen_wide_mantissa 59 64) (int_bound 80)))
    (fun d ->
      let w = W.create () in
      C.write_dyadic w d;
      let r = R.of_string ~length_bits:(W.length w) (W.to_string w) in
      let back = C.read_dyadic r in
      W.to_bit_string w = reference_bits d
      && back = d
      && R.at_end r
      && W.length w = C.dyadic_size d
      && B.bit_length (Dy.mantissa d) >= 59)

let test_div_pow2_even_integer () =
  let d = Dy.div_pow2 (Dy.of_int 4) 1 in
  Alcotest.(check int) "4/2 has exponent 0" 0 (Dy.exponent d);
  Alcotest.check dyadic "4/2 = 2" (Dy.of_int 2) d;
  Alcotest.check dyadic "midpoint(0,2) = 1" Dy.one (Dy.midpoint Dy.zero (Dy.of_int 2))

let () =
  Alcotest.run "dyadic"
    [
      ( "units",
        [
          Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "decimal strings" `Quick test_decimal_strings;
          Alcotest.test_case "binary strings" `Quick test_binary_strings;
          Alcotest.test_case "arithmetic" `Quick test_arith_known;
          Alcotest.test_case "pow2" `Quick test_pow2;
          Alcotest.test_case "mul_pow2" `Quick test_mul_pow2;
          Alcotest.test_case "midpoint" `Quick test_midpoint;
          Alcotest.test_case "rational bridge" `Quick test_rational_bridge;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "div_pow2 of an even integer" `Quick
            test_div_pow2_even_integer;
        ] );
      ( "properties",
        [
          prop_add_comm;
          prop_add_assoc;
          prop_add_neg;
          prop_sub_add;
          prop_mul_agrees_with_rational;
          prop_add_agrees_with_rational;
          prop_compare_agrees_with_rational;
          prop_normal_form;
          prop_mul_pow2_roundtrip;
          prop_midpoint_between;
          prop_rational_roundtrip;
          prop_of_rational_rejects_non_dyadic;
          prop_equal_is_compare_zero;
          prop_div_pow2_normal;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "values at 2^61" `Quick test_boundary_values;
          prop_boundary_arith;
          prop_boundary_order;
          prop_boundary_neighbours;
          prop_boundary_pow2;
          prop_boundary_normal_form;
          prop_boundary_structural;
          prop_boundary_codec;
        ] );
    ]
