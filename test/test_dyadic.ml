module B = Bignat
module Q = Exact.Rational
module Dy = Exact.Dyadic
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
    ]
