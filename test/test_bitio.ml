module W = Bitio.Bit_writer
module R = Bitio.Bit_reader
module C = Bitio.Codes
module B = Bignat
module Dy = Exact.Dyadic
open Helpers

(* {1 Writer / reader units} *)

let test_bit_roundtrip () =
  let w = W.create () in
  let pattern = [ true; false; true; true; false; false; true; false; true ] in
  List.iter (W.bit w) pattern;
  Alcotest.(check int) "length" 9 (W.length w);
  let r = R.of_string ~length_bits:9 (W.to_string w) in
  List.iter (fun b -> Alcotest.(check bool) "bit" b (R.bit r)) pattern;
  Alcotest.(check bool) "at end" true (R.at_end r)

let test_bits_roundtrip () =
  let w = W.create () in
  W.bits w 0b101101 6;
  W.bits w 0 3;
  W.bits w 12345 20;
  let r = R.of_string ~length_bits:(W.length w) (W.to_string w) in
  Alcotest.(check int) "first" 0b101101 (R.bits r 6);
  Alcotest.(check int) "zero" 0 (R.bits r 3);
  Alcotest.(check int) "third" 12345 (R.bits r 20)

let test_bit_string () =
  let w = W.create () in
  W.bits w 0b1011 4;
  Alcotest.(check string) "bit string" "1011" (W.to_bit_string w)

let test_truncated () =
  let w = W.create () in
  W.bits w 3 2;
  let r = R.of_string ~length_bits:2 (W.to_string w) in
  let _ = R.bits r 2 in
  Alcotest.check_raises "reading past end" R.Truncated (fun () -> ignore (R.bit r))

let test_reader_limits () =
  Alcotest.check_raises "bad length" (Invalid_argument "Bit_reader.of_string: bad length")
    (fun () -> ignore (R.of_string ~length_bits:9 "x"));
  let r = R.of_string "ab" in
  Alcotest.(check int) "remaining" 16 (R.remaining r)

(* {1 Code units} *)

let test_unary () =
  List.iter
    (fun n ->
      let w = W.create () in
      C.write_unary w n;
      Alcotest.(check int) "size" (n + 1) (W.length w);
      let r = R.of_string ~length_bits:(W.length w) (W.to_string w) in
      Alcotest.(check int) "value" n (C.read_unary r))
    [ 0; 1; 5; 17 ]

let test_gamma_known () =
  (* Elias gamma of 1 is "1"; of 2 is "010"; of 5 is "00101". *)
  let enc n =
    let w = W.create () in
    C.write_gamma w n;
    W.to_bit_string w
  in
  Alcotest.(check string) "gamma 1" "1" (enc 1);
  Alcotest.(check string) "gamma 2" "010" (enc 2);
  Alcotest.(check string) "gamma 5" "00101" (enc 5)

let test_gamma_rejects () =
  let w = W.create () in
  Alcotest.check_raises "gamma 0" (Invalid_argument "Codes.write_gamma: needs n >= 1")
    (fun () -> C.write_gamma w 0)

let test_delta_roundtrip () =
  List.iter
    (fun n ->
      let w = W.create () in
      C.write_delta w n;
      let r = R.of_string ~length_bits:(W.length w) (W.to_string w) in
      Alcotest.(check int) "delta roundtrip" n (C.read_delta r))
    [ 1; 2; 3; 100; 65535; 1_000_000 ]

let test_gamma0_size () =
  List.iter
    (fun n ->
      let w = W.create () in
      C.write_gamma0 w n;
      Alcotest.(check int)
        (Printf.sprintf "predicted size for %d" n)
        (W.length w) (C.gamma0_size n))
    [ 0; 1; 2; 7; 8; 100; 12345 ]

(* {1 Properties} *)

let prop_gamma_roundtrip =
  qcheck_to_alcotest "gamma roundtrip"
    QCheck.(int_range 1 1_000_000)
    (fun n ->
      let w = W.create () in
      C.write_gamma w n;
      let r = R.of_string ~length_bits:(W.length w) (W.to_string w) in
      C.read_gamma r = n)

let prop_gamma0_roundtrip =
  qcheck_to_alcotest "gamma0 roundtrip"
    QCheck.(int_bound 1_000_000)
    (fun n ->
      let w = W.create () in
      C.write_gamma0 w n;
      let r = R.of_string ~length_bits:(W.length w) (W.to_string w) in
      C.read_gamma0 r = n)

let prop_bignat_roundtrip =
  qcheck_to_alcotest "bignat roundtrip" arb_bignat (fun x ->
      let w = W.create () in
      C.write_bignat w x;
      let r = R.of_string ~length_bits:(W.length w) (W.to_string w) in
      B.equal (C.read_bignat r) x)

let prop_bignat_size =
  qcheck_to_alcotest "bignat_size predicts" arb_bignat (fun x ->
      let w = W.create () in
      C.write_bignat w x;
      W.length w = C.bignat_size x)

let prop_dyadic_roundtrip =
  qcheck_to_alcotest "dyadic roundtrip" arb_dyadic (fun d ->
      let w = W.create () in
      C.write_dyadic w d;
      let r = R.of_string ~length_bits:(W.length w) (W.to_string w) in
      Dy.equal (C.read_dyadic r) d)

let prop_dyadic_size =
  qcheck_to_alcotest "dyadic_size predicts" arb_dyadic (fun d ->
      let w = W.create () in
      C.write_dyadic w d;
      W.length w = C.dyadic_size d)

let prop_rational_roundtrip =
  qcheck_to_alcotest "rational roundtrip" arb_rational (fun q ->
      let w = W.create () in
      C.write_rational w q;
      let r = R.of_string ~length_bits:(W.length w) (W.to_string w) in
      Exact.Rational.equal (C.read_rational r) q)

let prop_concatenation_self_delimits =
  qcheck_to_alcotest "two values concatenated decode independently"
    QCheck.(pair arb_dyadic arb_bignat)
    (fun (d, x) ->
      let w = W.create () in
      C.write_dyadic w d;
      C.write_bignat w x;
      let r = R.of_string ~length_bits:(W.length w) (W.to_string w) in
      Dy.equal (C.read_dyadic r) d && B.equal (C.read_bignat r) x && R.at_end r)

(* A write is (width, value): width 0 stands for one [bit], 1..62 for a
   [bits] call.  Forty writes can outgrow the writer's first buffer. *)
let arb_writes =
  QCheck.(list_of_size (Gen.int_range 0 40) (pair (int_bound 62) int))

let apply w =
  List.iter (fun (width, v) ->
      if width = 0 then W.bit w (v land 1 = 1)
      else W.bits w (v land ((1 lsl width) - 1)) width)

let prop_reset_is_fresh =
  qcheck_to_alcotest "reset writer = fresh writer"
    QCheck.(pair arb_writes arb_writes)
    (fun (junk, writes) ->
      let reused = W.create () in
      apply reused junk;
      W.reset reused;
      apply reused writes;
      let fresh = W.create () in
      apply fresh writes;
      let n = (W.length fresh + 7) / 8 in
      W.length reused = W.length fresh
      && W.to_string reused = W.to_string fresh
      && Bytes.sub_string (W.padded_bytes reused) 0 n = W.to_string fresh)

let () =
  Alcotest.run "bitio"
    [
      ( "writer-reader",
        [
          Alcotest.test_case "bit roundtrip" `Quick test_bit_roundtrip;
          Alcotest.test_case "bits roundtrip" `Quick test_bits_roundtrip;
          Alcotest.test_case "bit string" `Quick test_bit_string;
          Alcotest.test_case "truncation" `Quick test_truncated;
          Alcotest.test_case "reader limits" `Quick test_reader_limits;
        ] );
      ( "codes",
        [
          Alcotest.test_case "unary" `Quick test_unary;
          Alcotest.test_case "gamma known" `Quick test_gamma_known;
          Alcotest.test_case "gamma rejects 0" `Quick test_gamma_rejects;
          Alcotest.test_case "delta roundtrip" `Quick test_delta_roundtrip;
          Alcotest.test_case "gamma0 size" `Quick test_gamma0_size;
        ] );
      ( "properties",
        [
          prop_gamma_roundtrip;
          prop_gamma0_roundtrip;
          prop_bignat_roundtrip;
          prop_bignat_size;
          prop_dyadic_roundtrip;
          prop_dyadic_size;
          prop_rational_roundtrip;
          prop_concatenation_self_delimits;
          prop_reset_is_fresh;
        ] );
    ]
