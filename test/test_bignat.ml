module B = Bignat
open Helpers

(* {1 Unit tests against known values} *)

let test_constants () =
  Alcotest.check bignat "zero" B.zero (B.of_int 0);
  Alcotest.check bignat "one" B.one (B.of_int 1);
  Alcotest.check bignat "two" B.two (B.of_int 2);
  Alcotest.(check bool) "is_zero" true (B.is_zero B.zero);
  Alcotest.(check bool) "is_one" true (B.is_one B.one)

let test_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check int) "roundtrip" n (B.to_int_exn (B.of_int n)))
    [ 0; 1; 2; 1073741823; 1073741824; 4611686018427387903; max_int ]

let test_of_int_negative () =
  Alcotest.check_raises "negative rejected" (Invalid_argument "Bignat.of_int: negative")
    (fun () -> ignore (B.of_int (-1)))

let test_string_known () =
  Alcotest.(check string) "decimal" "123456789012345678901234567890"
    B.(to_string (of_string "123456789012345678901234567890"));
  Alcotest.(check string) "zero" "0" (B.to_string B.zero);
  Alcotest.(check string) "binary" "1010" (B.to_string_binary (B.of_int 10));
  Alcotest.(check string) "binary zero" "0" (B.to_string_binary B.zero)

let test_add_known () =
  let a = B.of_string "99999999999999999999" in
  Alcotest.check bignat "carry chain" (B.of_string "100000000000000000000") (B.add a B.one)

let test_sub_known () =
  let a = B.of_string "100000000000000000000" in
  Alcotest.check bignat "borrow chain" (B.of_string "99999999999999999999") (B.sub a B.one);
  Alcotest.check_raises "underflow" (Invalid_argument "Bignat.sub: negative result")
    (fun () -> ignore (B.sub B.one B.two))

let test_mul_known () =
  Alcotest.check bignat "big square"
    (B.of_string "15241578753238836750495351562536198787501905199875019052100")
    B.(mul (of_string "123456789012345678901234567890")
         (of_string "123456789012345678901234567890"))

let test_divmod_known () =
  let a = B.of_string "1000000000000000000000000000007" in
  let b = B.of_string "998244353" in
  let q, r = B.divmod a b in
  Alcotest.check bignat "reconstruct" a (B.add (B.mul q b) r);
  Alcotest.(check bool) "r < b" true (B.compare r b < 0);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod a B.zero))

let test_divmod_int () =
  let a = B.of_string "123456789123456789123456789" in
  let q, r = B.divmod_int a 97 in
  Alcotest.check bignat "reconstruct" a (B.add (B.mul_int q 97) (B.of_int r));
  Alcotest.(check bool) "r in range" true (r >= 0 && r < 97)

let test_gcd_known () =
  Alcotest.check bignat "gcd(12,18)" (B.of_int 6) (B.gcd (B.of_int 12) (B.of_int 18));
  Alcotest.check bignat "gcd(x,0)" (B.of_int 5) (B.gcd (B.of_int 5) B.zero);
  Alcotest.check bignat "gcd(0,x)" (B.of_int 5) (B.gcd B.zero (B.of_int 5));
  Alcotest.check bignat "coprime" B.one (B.gcd (B.of_int 35) (B.of_int 64))

let test_shifts_known () =
  Alcotest.check bignat "shl" (B.of_int 40) (B.shift_left (B.of_int 5) 3);
  Alcotest.check bignat "shr" (B.of_int 5) (B.shift_right (B.of_int 40) 3);
  Alcotest.check bignat "shr to zero" B.zero (B.shift_right (B.of_int 40) 7);
  Alcotest.check bignat "shl across limbs"
    (B.of_string "85070591730234615865843651857942052864")
    (B.shift_left B.one 126)

let test_bit_length () =
  Alcotest.(check int) "zero" 0 (B.bit_length B.zero);
  Alcotest.(check int) "one" 1 (B.bit_length B.one);
  Alcotest.(check int) "255" 8 (B.bit_length (B.of_int 255));
  Alcotest.(check int) "256" 9 (B.bit_length (B.of_int 256));
  Alcotest.(check int) "2^100" 101 (B.bit_length (B.pow2 100))

let test_testbit () =
  let x = B.of_int 0b1011010 in
  let expected = [ false; true; false; true; true; false; true; false ] in
  List.iteri
    (fun i b -> Alcotest.(check bool) (Printf.sprintf "bit %d" i) b (B.testbit x i))
    expected

let test_pow () =
  Alcotest.check bignat "3^20" (B.of_string "3486784401") (B.pow (B.of_int 3) 20);
  Alcotest.check bignat "x^0" B.one (B.pow (B.of_int 42) 0);
  Alcotest.check bignat "0^0" B.one (B.pow B.zero 0);
  Alcotest.check bignat "2^200 = pow2 200" (B.pow2 200) (B.pow B.two 200)

let test_limb_boundaries () =
  (* The representation uses 30-bit limbs; exercise values straddling the
     limb edges where carry/borrow/shift bugs hide. *)
  let b30 = B.pow2 30 and b60 = B.pow2 60 and b90 = B.pow2 90 in
  List.iter
    (fun x ->
      Alcotest.check bignat "x = (x+1)-1" x (B.sub (B.add x B.one) B.one);
      Alcotest.check bignat "x = (x-1)+1" x (B.add (B.sub x B.one) B.one);
      Alcotest.check bignat "x = (x<<1)>>1" x (B.shift_right (B.shift_left x 1) 1);
      let q, r = B.divmod x (B.of_int 7) in
      Alcotest.check bignat "divmod at boundary" x (B.add (B.mul_int q 7) r))
    [ b30; B.pred b30; B.succ b30; b60; B.pred b60; B.succ b60; b90; B.pred b90 ]

let test_mul_carry_chain () =
  (* (2^30 - 1)^2 exercises the widest single-limb product. *)
  let m = B.pred (B.pow2 30) in
  Alcotest.check bignat "max limb square"
    (B.add (B.sub (B.pow2 60) (B.pow2 31)) B.one)
    (B.mul m m);
  (* Multiplying all-ones limbs forces long carry propagation. *)
  let ones = B.pred (B.pow2 120) in
  Alcotest.check bignat "(2^120-1)*(2^120-1)"
    (B.sub (B.add (B.pow2 240) B.one) (B.shift_left B.one 121))
    (B.mul ones ones)

let test_compare_order () =
  let xs = List.map B.of_string [ "0"; "1"; "2"; "1073741824"; "99999999999999999999" ] in
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "strictly increasing" true (B.compare a b < 0);
        Alcotest.(check bool) "antisymmetric" true (B.compare b a > 0);
        check rest
    | _ -> ()
  in
  check xs;
  Alcotest.(check bool) "min" true (B.equal (B.min B.one B.two) B.one);
  Alcotest.(check bool) "max" true (B.equal (B.max B.one B.two) B.two)

(* {1 Properties} *)

let prop_add_comm =
  qcheck_to_alcotest "add commutative"
    QCheck.(pair arb_bignat arb_bignat)
    (fun (a, b) -> B.equal (B.add a b) (B.add b a))

let prop_add_assoc =
  qcheck_to_alcotest "add associative"
    QCheck.(triple arb_bignat arb_bignat arb_bignat)
    (fun (a, b, c) -> B.equal (B.add (B.add a b) c) (B.add a (B.add b c)))

let prop_add_sub =
  qcheck_to_alcotest "sub inverts add"
    QCheck.(pair arb_bignat arb_bignat)
    (fun (a, b) -> B.equal (B.sub (B.add a b) b) a)

let prop_mul_comm =
  qcheck_to_alcotest "mul commutative"
    QCheck.(pair arb_bignat arb_bignat)
    (fun (a, b) -> B.equal (B.mul a b) (B.mul b a))

let prop_mul_distributes =
  qcheck_to_alcotest "mul distributes over add"
    QCheck.(triple arb_bignat arb_bignat arb_bignat)
    (fun (a, b, c) ->
      B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_mul_int_agrees =
  qcheck_to_alcotest "mul_int agrees with mul"
    QCheck.(pair arb_bignat arb_small_nat)
    (fun (a, m) -> B.equal (B.mul_int a m) (B.mul a (B.of_int m)))

let prop_divmod =
  qcheck_to_alcotest "divmod reconstructs"
    QCheck.(pair arb_bignat arb_bignat)
    (fun (a, b) ->
      let b = B.succ b in
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r) && B.compare r b < 0)

let prop_gcd_divides =
  qcheck_to_alcotest "gcd divides both"
    QCheck.(pair arb_bignat arb_bignat)
    (fun (a, b) ->
      let g = B.gcd a b in
      if B.is_zero g then B.is_zero a && B.is_zero b
      else B.is_zero (B.rem a g) && B.is_zero (B.rem b g))

let prop_gcd_comm =
  qcheck_to_alcotest "gcd commutative"
    QCheck.(pair arb_bignat arb_bignat)
    (fun (a, b) -> B.equal (B.gcd a b) (B.gcd b a))

let prop_shift_roundtrip =
  qcheck_to_alcotest "shift left then right"
    QCheck.(pair arb_bignat (int_bound 200))
    (fun (a, k) -> B.equal (B.shift_right (B.shift_left a k) k) a)

let prop_shift_is_mul_pow2 =
  qcheck_to_alcotest "shift_left = mul by 2^k"
    QCheck.(pair arb_bignat (int_bound 120))
    (fun (a, k) -> B.equal (B.shift_left a k) (B.mul a (B.pow2 k)))

let prop_string_roundtrip =
  qcheck_to_alcotest "decimal string roundtrip" arb_bignat (fun a ->
      B.equal a (B.of_string (B.to_string a)))

let prop_bit_length_bounds =
  qcheck_to_alcotest "2^(len-1) <= x < 2^len" arb_bignat (fun a ->
      let n = B.bit_length a in
      if B.is_zero a then n = 0
      else B.compare a (B.pow2 n) < 0 && B.compare a (B.pow2 (n - 1)) >= 0)

let prop_compare_total_order =
  qcheck_to_alcotest "compare consistent with sub"
    QCheck.(pair arb_bignat arb_bignat)
    (fun (a, b) ->
      match B.compare a b with
      | 0 -> B.equal a b
      | c when c < 0 -> not (B.is_zero (B.sub b a))
      | _ -> not (B.is_zero (B.sub a b)))

let prop_int_roundtrip =
  qcheck_to_alcotest "to_int_opt on small values" arb_small_nat (fun n ->
      B.to_int_opt (B.of_int n) = Some n)

(* [b] is near [a lsl k] (off by -1, 0 or +1) in half the cases, so the
   limb-by-limb tie-breaking is exercised, not just the bit lengths. *)
let prop_compare_shifted =
  qcheck_to_alcotest ~count:500 "compare_shifted a b k = compare (a lsl k) b"
    QCheck.(quad arb_bignat arb_bignat (int_bound 100) (int_range (-1) 2))
    (fun (a, b, k, near) ->
      let shifted = B.shift_left a k in
      let b =
        match near with
        | 0 -> shifted
        | 1 -> B.succ shifted
        | -1 when not (B.is_zero shifted) -> B.pred shifted
        | _ -> b
      in
      B.compare_shifted a b k = B.compare shifted b
      && B.compare_shifted b a k = B.compare (B.shift_left b k) a)

let prop_trailing_zeros =
  qcheck_to_alcotest "trailing_zeros strips exactly the low zero bits"
    QCheck.(pair arb_bignat (int_bound 100))
    (fun (a, k) ->
      let x = B.shift_left a k in
      let tz = B.trailing_zeros x in
      if B.is_zero x then tz = 0
      else
        (not (B.is_even (B.shift_right x tz)))
        && B.equal (B.shift_left (B.shift_right x tz) tz) x
        && tz >= k)

let prop_int_width =
  qcheck_to_alcotest "int_width is the bit count"
    QCheck.(oneof [ int_bound 1_000; int_bound max_int; always max_int; always 0 ])
    (fun n ->
      let rec naive acc n = if n = 0 then acc else naive (acc + 1) (n lsr 1) in
      B.int_width n = naive 0 n)

let () =
  Alcotest.run "bignat"
    [
      ( "units",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "int roundtrip" `Quick test_int_roundtrip;
          Alcotest.test_case "of_int negative" `Quick test_of_int_negative;
          Alcotest.test_case "strings" `Quick test_string_known;
          Alcotest.test_case "add carry" `Quick test_add_known;
          Alcotest.test_case "sub borrow" `Quick test_sub_known;
          Alcotest.test_case "mul big" `Quick test_mul_known;
          Alcotest.test_case "divmod big" `Quick test_divmod_known;
          Alcotest.test_case "divmod_int" `Quick test_divmod_int;
          Alcotest.test_case "gcd" `Quick test_gcd_known;
          Alcotest.test_case "shifts" `Quick test_shifts_known;
          Alcotest.test_case "bit_length" `Quick test_bit_length;
          Alcotest.test_case "testbit" `Quick test_testbit;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "limb boundaries" `Quick test_limb_boundaries;
          Alcotest.test_case "mul carry chains" `Quick test_mul_carry_chain;
          Alcotest.test_case "compare order" `Quick test_compare_order;
        ] );
      ( "properties",
        [
          prop_add_comm;
          prop_add_assoc;
          prop_add_sub;
          prop_mul_comm;
          prop_mul_distributes;
          prop_mul_int_agrees;
          prop_divmod;
          prop_gcd_divides;
          prop_gcd_comm;
          prop_shift_roundtrip;
          prop_shift_is_mul_pow2;
          prop_string_roundtrip;
          prop_bit_length_bounds;
          prop_compare_total_order;
          prop_int_roundtrip;
          prop_compare_shifted;
          prop_trailing_zeros;
          prop_int_width;
        ] );
    ]
