(* Runtime.Arena: slots are identified by (bit length, bytes), stay put as
   the table grows, and [distinct] counts only slots marked seen. *)

module A = Runtime.Arena
module W = Bitio.Bit_writer

(* An encoding given as a '0'/'1' string. *)
let encode_bits w s = String.iter (fun c -> W.bit w (c = '1')) s
let slot a s = A.intern a encode_bits s

let test_same_iff_equal () =
  let a = A.create () in
  let zero1 = slot a "0" and zero8 = slot a "00000000" in
  Alcotest.(check bool) "1 zero bit vs 8 zero bits: equal bytes, two slots" true
    (zero1 <> zero8);
  Alcotest.(check int) "1 zero bit again" zero1 (slot a "0");
  Alcotest.(check int) "8 zero bits again" zero8 (slot a "00000000");
  let empty = slot a "" in
  Alcotest.(check bool) "empty encoding has its own slot" true
    (empty <> zero1 && empty <> zero8);
  Alcotest.(check int) "empty again" empty (slot a "");
  Alcotest.(check bool) "one bit differs" true (slot a "101" <> slot a "100");
  Alcotest.(check int) "lengths kept" 8 (A.len_bits a zero8);
  Alcotest.(check string) "bytes kept, zero-padded" "\xa0"
    (A.to_string a (slot a "101"));
  Alcotest.(check int) "five encodings, five slots" 5 (slot a "11")

let prop_same_iff_equal =
  Helpers.qcheck_to_alcotest ~count:300 "random encodings: same slot iff equal"
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_bound 20) (Gen.oneofl [ '0'; '1' ]))
        (string_gen_of_size (Gen.int_bound 20) (Gen.oneofl [ '0'; '1' ])))
    (fun (x, y) ->
      let a = A.create () in
      (* Some unrelated slots first, so the probe sequence is not trivial. *)
      List.iter (fun s -> ignore (slot a s)) [ "1"; "01"; "0011"; "111111111" ];
      slot a x = slot a y = (x = y))

let test_stable_across_growth () =
  let a = A.create () in
  let n = 12_000 in
  (* Even values over 15 bits and odd ones over 16: two lengths, one
     padded byte count, every encoding distinct. *)
  let enc w i = W.bits w i (if i land 1 = 0 then 15 else 16) in
  let slots = Array.init n (fun i -> A.intern a enc i) in
  Alcotest.(check (array int)) "one slot each, in order" (Array.init n Fun.id) slots;
  Array.iteri
    (fun i s -> if A.intern a enc i <> s then Alcotest.failf "slot of %d moved" i)
    slots;
  Alcotest.(check int) "no slot added by the lookups" n (A.intern a enc n)

let test_distinct_counts_seen () =
  let a = A.create () in
  let x = slot a "1" and y = slot a "10" and _z = slot a "110" in
  Alcotest.(check int) "nothing seen yet" 0 (A.distinct a);
  A.mark_seen a x;
  A.mark_seen a x;
  A.mark_seen a y;
  Alcotest.(check int) "two seen, marked three times" 2 (A.distinct a)

let () =
  Alcotest.run "arena"
    [
      ( "arena",
        [
          Alcotest.test_case "same slot iff equal encoding" `Quick test_same_iff_equal;
          prop_same_iff_equal;
          Alcotest.test_case "stable across growth" `Quick test_stable_across_growth;
          Alcotest.test_case "distinct counts seen" `Quick test_distinct_counts_seen;
        ] );
    ]
