module B = Bignat
module Dy = Exact.Dyadic
module I = Intervals.Interval
module Is = Intervals.Iset
open Helpers

let dy n e = Dy.make (B.of_int n) e
let iv a b = I.make a b

(* {1 Interval units} *)

let test_empty_canonical () =
  Alcotest.check interval "reversed is empty" I.empty (iv Dy.one Dy.zero);
  Alcotest.check interval "degenerate is empty" I.empty (iv Dy.half Dy.half);
  Alcotest.(check bool) "is_empty" true (I.is_empty I.empty);
  Alcotest.(check bool) "unit non-empty" false (I.is_empty I.unit)

let test_measure () =
  Alcotest.check dyadic "unit measure" Dy.one (I.measure I.unit);
  Alcotest.check dyadic "empty measure" Dy.zero (I.measure I.empty);
  Alcotest.check dyadic "[1/4,1/2)" (dy 1 2) (I.measure (iv (dy 1 2) Dy.half))

let test_mem () =
  Alcotest.(check bool) "lo included" true (I.mem Dy.zero I.unit);
  Alcotest.(check bool) "hi excluded" false (I.mem Dy.one I.unit);
  Alcotest.(check bool) "inside" true (I.mem Dy.half I.unit);
  Alcotest.(check bool) "empty has no members" false (I.mem Dy.zero I.empty)

let test_intersect () =
  let a = iv Dy.zero Dy.half and b = iv (dy 1 2) Dy.one in
  Alcotest.check interval "overlap" (iv (dy 1 2) Dy.half) (I.intersect a b);
  let c = iv Dy.half Dy.one in
  Alcotest.check interval "touching intervals are disjoint" I.empty (I.intersect a c);
  Alcotest.(check bool) "touches though" true (I.touches a c)

let test_subset () =
  Alcotest.(check bool) "empty subset of anything" true (I.subset I.empty I.unit);
  Alcotest.(check bool) "self subset" true (I.subset I.unit I.unit);
  Alcotest.(check bool) "strict" true (I.subset (iv (dy 1 2) Dy.half) I.unit);
  Alcotest.(check bool) "not subset" false (I.subset I.unit (iv Dy.zero Dy.half))

let test_split_known () =
  (* Splitting [0,1) in 3: N=4, delta=1/4 -> [0,1/4) [1/4,1/2) [1/2,1). *)
  match I.split I.unit 3 with
  | [ a; b; c ] ->
      Alcotest.check interval "first" (iv Dy.zero (dy 1 2)) a;
      Alcotest.check interval "second" (iv (dy 1 2) Dy.half) b;
      Alcotest.check interval "third" (iv Dy.half Dy.one) c
  | _ -> Alcotest.fail "expected 3 parts"

let test_split_edge_cases () =
  Alcotest.(check (list interval)) "k=1 identity" [ I.unit ] (I.split I.unit 1);
  Alcotest.(check int) "empty splits to empties" 4 (List.length (I.split I.empty 4));
  Alcotest.(check bool) "all empty" true (List.for_all I.is_empty (I.split I.empty 4));
  Alcotest.check_raises "k=0 rejected" (Invalid_argument "Interval.split: k must be >= 1")
    (fun () -> ignore (I.split I.unit 0))

(* Endpoints with mantissas of up to six limbs or around 2^61, where a
   dyadic switches from an int mantissa to a [Bignat] one, and exponents
   up to 200. *)
let gen_wide_endpoint =
  QCheck.Gen.(
    map3
      (fun negative m e -> Dy.make ~negative m e)
      (frequency [ (4, return false); (1, return true) ])
      (oneof [ gen_bignat; gen_wide_mantissa 55 66 ])
      (int_bound 200))

let arb_any_interval =
  QCheck.make ~print:I.to_string
    QCheck.Gen.(oneof [ gen_interval; map2 I.make gen_wide_endpoint gen_wide_endpoint ])

let prop_split_partitions =
  qcheck_to_alcotest "split: disjoint cover, all non-empty"
    QCheck.(pair arb_any_interval (int_range 1 12))
    (fun (ivl, k) ->
      QCheck.assume (not (I.is_empty ivl));
      let parts = I.split ivl k in
      List.length parts = k
      && List.for_all (fun p -> not (I.is_empty p)) parts
      && Is.equal (Is.of_intervals parts) (Is.of_interval ivl)
      && Dy.equal (Dy.sum (List.map I.measure parts)) (I.measure ivl))

let prop_interval_codec =
  qcheck_to_alcotest "interval codec roundtrip" arb_any_interval (fun ivl ->
      let w = Bitio.Bit_writer.create () in
      I.write w ivl;
      let r =
        Bitio.Bit_reader.of_string
          ~length_bits:(Bitio.Bit_writer.length w)
          (Bitio.Bit_writer.to_string w)
      in
      I.equal (I.read r) ivl)

(* {1 Iset units} *)

let test_normalization_merges () =
  let s = Is.of_intervals [ iv Dy.half Dy.one; iv Dy.zero Dy.half ] in
  Alcotest.check iset "adjacent merge to unit" Is.unit s;
  Alcotest.(check int) "single interval" 1 (Is.count s);
  let s2 = Is.of_intervals [ iv Dy.zero (dy 3 2); iv (dy 1 2) Dy.one ] in
  Alcotest.check iset "overlapping merge" Is.unit s2

let test_gap_preserved () =
  let s = Is.of_intervals [ iv Dy.zero (dy 1 2); iv Dy.half Dy.one ] in
  Alcotest.(check int) "two intervals" 2 (Is.count s);
  Alcotest.check dyadic "measure 3/4" (dy 3 2) (Is.measure s)

let test_union_inter_diff_known () =
  let a = Is.interval Dy.zero Dy.half in
  let b = Is.interval (dy 1 2) Dy.one in
  Alcotest.check iset "union" Is.unit (Is.union a b);
  Alcotest.check iset "inter" (Is.interval (dy 1 2) Dy.half) (Is.inter a b);
  Alcotest.check iset "diff" (Is.interval Dy.zero (dy 1 2)) (Is.diff a b);
  Alcotest.check iset "complement" (Is.interval Dy.half Dy.one) (Is.complement a)

let test_is_unit () =
  Alcotest.(check bool) "unit" true (Is.is_unit Is.unit);
  Alcotest.(check bool) "not quite" false
    (Is.is_unit (Is.interval Dy.zero (dy 1023 10)));
  let pieces = I.split I.unit 7 in
  Alcotest.(check bool) "reassembled from 7 pieces" true
    (Is.is_unit (Is.of_intervals pieces))

let test_mem_iset () =
  let s = Is.of_intervals [ iv Dy.zero (dy 1 2); iv Dy.half Dy.one ] in
  Alcotest.(check bool) "in first" true (Is.mem (dy 1 3) s);
  Alcotest.(check bool) "in gap" false (Is.mem (dy 3 3) s);
  Alcotest.(check bool) "in second" true (Is.mem (dy 3 2) s)

(* {1 Iset algebra properties} *)

let prop_union_comm =
  qcheck_to_alcotest "union commutative"
    QCheck.(pair arb_iset arb_iset)
    (fun (a, b) -> Is.equal (Is.union a b) (Is.union b a))

let prop_union_assoc =
  qcheck_to_alcotest "union associative"
    QCheck.(triple arb_iset arb_iset arb_iset)
    (fun (a, b, c) -> Is.equal (Is.union (Is.union a b) c) (Is.union a (Is.union b c)))

let prop_inter_comm =
  qcheck_to_alcotest "inter commutative"
    QCheck.(pair arb_iset arb_iset)
    (fun (a, b) -> Is.equal (Is.inter a b) (Is.inter b a))

let prop_inter_union_distrib =
  qcheck_to_alcotest "inter distributes over union"
    QCheck.(triple arb_iset arb_iset arb_iset)
    (fun (a, b, c) ->
      Is.equal (Is.inter a (Is.union b c)) (Is.union (Is.inter a b) (Is.inter a c)))

let prop_diff_partition =
  qcheck_to_alcotest "a = (a-b) + (a&b), disjointly"
    QCheck.(pair arb_iset arb_iset)
    (fun (a, b) ->
      let d = Is.diff a b and i = Is.inter a b in
      Is.equal a (Is.union d i) && Is.disjoint d i && Is.disjoint d b)

let prop_measure_additive =
  qcheck_to_alcotest "measure additive over disjoint union"
    QCheck.(pair arb_iset arb_iset)
    (fun (a, b) ->
      let d = Is.diff b a in
      Dy.equal (Is.measure (Is.union a d)) (Dy.add (Is.measure a) (Is.measure d)))

let prop_subset_diff =
  qcheck_to_alcotest "subset iff empty diff"
    QCheck.(pair arb_iset arb_iset)
    (fun (a, b) -> Is.subset a b = Is.is_empty (Is.diff a b))

let prop_complement_involution =
  qcheck_to_alcotest "complement involutive on subsets of [0,1)" arb_iset (fun a ->
      let a = Is.inter a Is.unit in
      Is.equal a (Is.complement (Is.complement a)))

let prop_complement_partition =
  qcheck_to_alcotest "a + complement(a) = [0,1)" arb_iset (fun a ->
      let a = Is.inter a Is.unit in
      Is.is_unit (Is.union a (Is.complement a)) && Is.disjoint a (Is.complement a))

(* Sorted, pairwise disjoint, non-adjacent, non-empty. *)
let normal s =
  let rec ok = function
    | a :: (b :: _ as rest) ->
        (not (I.is_empty a)) && Dy.compare (I.hi a) (I.lo b) < 0 && ok rest
    | [ a ] -> not (I.is_empty a)
    | [] -> true
  in
  ok (Is.intervals s)

let prop_normal_form_sorted_disjoint =
  qcheck_to_alcotest "normal form: sorted, disjoint, non-adjacent" arb_iset normal

let prop_canonical_partition =
  qcheck_to_alcotest "canonical partition: disjoint cover, non-empty parts"
    QCheck.(pair arb_iset (int_range 1 8))
    (fun (s, d) ->
      QCheck.assume (not (Is.is_empty s));
      let parts = Is.canonical_partition s d in
      List.length parts = d
      && List.for_all (fun p -> not (Is.is_empty p)) parts
      && Is.equal (List.fold_left Is.union Is.empty parts) s
      && Helpers.pairwise_disjoint parts)

let prop_canonical_partition_interval_budget =
  qcheck_to_alcotest "canonical partition adds at most d intervals"
    QCheck.(pair arb_iset (int_range 1 8))
    (fun (s, d) ->
      QCheck.assume (not (Is.is_empty s));
      let parts = Is.canonical_partition s d in
      let total = List.fold_left (fun acc p -> acc + Is.count p) 0 parts in
      total <= Is.count s + d)

let prop_iset_codec =
  qcheck_to_alcotest "iset codec roundtrip and size accounting" arb_iset (fun s ->
      let w = Bitio.Bit_writer.create () in
      Is.write w s;
      let r =
        Bitio.Bit_reader.of_string
          ~length_bits:(Bitio.Bit_writer.length w)
          (Bitio.Bit_writer.to_string w)
      in
      Is.equal (Is.read r) s && Bitio.Bit_writer.length w = Is.size_bits s)

(* {1 The sweeps against a sort-based reference}

   [Ref] computes every operation the slow, obviously correct way: gather
   candidate pieces in any order and let [of_intervals] sort and coalesce
   them.  The operands have wide endpoints — mantissas up to six limbs,
   exponents up to 200, signs — drawn from a small pool per case, so shared
   endpoints, adjacency and containment are common. *)

module Ref = struct
  let union a b = Is.of_intervals (Is.intervals a @ Is.intervals b)

  let inter a b =
    Is.of_intervals
      (List.concat_map
         (fun ia -> List.map (I.intersect ia) (Is.intervals b))
         (Is.intervals a))

  let diff a b =
    let cut iv c =
      if not (I.overlaps iv c) then [ iv ]
      else
        [
          I.make (I.lo iv) (Dy.min (I.hi iv) (I.lo c));
          I.make (Dy.max (I.lo iv) (I.hi c)) (I.hi iv);
        ]
    in
    Is.of_intervals
      (List.fold_left
         (fun pieces c -> List.concat_map (fun p -> cut p c) pieces)
         (Is.intervals a) (Is.intervals b))

  let subset a b = Is.is_empty (diff a b)
  let disjoint a b = Is.is_empty (inter a b)

  let canonical_partition s d =
    match Is.intervals s with
    | [] -> List.init d (fun _ -> Is.empty)
    | first :: rest ->
        let parts = List.map Is.of_interval (I.split first d) in
        List.mapi
          (fun j p -> if j = d - 1 then union p (Is.of_intervals rest) else p)
          parts
end

let gen_wide_iset_pair : (Is.t * Is.t) QCheck.Gen.t =
  QCheck.Gen.(
    let* pool = array_size (int_range 2 7) gen_wide_endpoint in
    let pick = map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)) in
    let iset = map Is.of_intervals (list_size (int_range 0 6) (map2 I.make pick pick)) in
    pair iset iset)

let arb_wide_iset_pair =
  QCheck.make
    ~print:(fun (a, b) -> Is.to_string a ^ "  |  " ^ Is.to_string b)
    gen_wide_iset_pair

let prop_sweeps_match_reference =
  qcheck_to_alcotest ~count:1000 "union/inter/diff/subset/disjoint = reference"
    arb_wide_iset_pair
    (fun (a, b) ->
      let agree op reference = Is.equal (op a b) (reference a b) && normal (op a b) in
      agree Is.union Ref.union && agree Is.inter Ref.inter && agree Is.diff Ref.diff
      && Is.subset a b = Ref.subset a b
      && Is.subset a (Is.union a b)
      && Is.disjoint a b = Ref.disjoint a b
      && Is.disjoint a (Is.diff b a))

let prop_partition_matches_reference =
  qcheck_to_alcotest ~count:500 "canonical_partition = reference"
    QCheck.(pair arb_wide_iset_pair (int_range 1 9))
    (fun ((a, _), d) ->
      List.equal Is.equal (Is.canonical_partition a d) (Ref.canonical_partition a d)
      && List.for_all normal (Is.canonical_partition a d))

(* {1 The allocation-free stopping predicate} *)

let union_is_unit_agrees (a, b) =
  Is.union_is_unit a b = Is.is_unit (Is.union a b)
  && Is.union_is_unit b a = Is.union_is_unit a b

(* Random pairs almost never cover [0,1), so two cases in three pair [a] with
   its complement, sometimes with a random piece [c] cut out of it or
   added to it. *)
let gen_near_cover : (Is.t * Is.t) QCheck.Gen.t =
  QCheck.Gen.(
    let* a = gen_iset and* c = gen_iset in
    let rest = Is.complement (Is.inter a Is.unit) in
    let* b =
      frequency
        [
          (2, return rest);
          (1, return (Is.diff rest c));
          (1, return (Is.union rest c));
          (2, return c);
        ]
    in
    return (a, b))

let prop_union_is_unit =
  qcheck_to_alcotest ~count:1000 "union_is_unit = is_unit (union)"
    (QCheck.make
       ~print:(fun (a, b) -> Is.to_string a ^ "  |  " ^ Is.to_string b)
       gen_near_cover)
    union_is_unit_agrees

let prop_union_is_unit_wide =
  qcheck_to_alcotest ~count:1000 "union_is_unit = is_unit (union), wide endpoints"
    arb_wide_iset_pair union_is_unit_agrees

let test_union_is_unit_known () =
  let q = dy 1 2 and h = Dy.half and tq = dy 3 2 in
  let check name want a b =
    Alcotest.(check bool) name want (Is.union_is_unit a b);
    Alcotest.(check bool) (name ^ " (reference)") want (Is.is_unit (Is.union a b))
  in
  check "empty, empty" false Is.empty Is.empty;
  check "empty side" true Is.empty Is.unit;
  check "other empty side" true Is.unit Is.empty;
  check "half and empty" false (Is.interval Dy.zero h) Is.empty;
  check "starts above 0" false (Is.interval q h) (Is.interval h Dy.one);
  check "gap of 2^-12" false (Is.interval Dy.zero q)
    (Is.of_intervals [ iv (dy 1025 12) Dy.one ]);
  check "touching endpoints" true (Is.interval Dy.zero h) (Is.interval h Dy.one);
  check "interleaved pieces" true
    (Is.of_intervals [ iv Dy.zero q; iv h tq ])
    (Is.of_intervals [ iv q h; iv tq Dy.one ]);
  check "overlap" true (Is.interval Dy.zero tq) (Is.interval q Dy.one);
  check "ends short of 1" false (Is.interval Dy.zero h) (Is.interval q tq);
  check "overshoots 1" false (Is.interval Dy.zero h) (Is.interval h (Dy.add Dy.one q));
  check "starts below 0" false (Is.interval (Dy.neg q) h) (Is.interval h Dy.one)

(* A decoder must normalize whatever order the intervals arrive in, as a
   corrupted message may carry any. *)
let prop_read_normalizes =
  qcheck_to_alcotest "read normalizes an arbitrary interval list"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 6) arb_interval)
    (fun ivs ->
      let w = Bitio.Bit_writer.create () in
      Bitio.Codes.write_gamma0 w (List.length ivs);
      List.iter (I.write w) ivs;
      let r =
        Bitio.Bit_reader.of_string
          ~length_bits:(Bitio.Bit_writer.length w)
          (Bitio.Bit_writer.to_string w)
      in
      Is.equal (Is.read r) (Is.of_intervals ivs))

let () =
  Alcotest.run "intervals"
    [
      ( "interval",
        [
          Alcotest.test_case "empty canonical" `Quick test_empty_canonical;
          Alcotest.test_case "measure" `Quick test_measure;
          Alcotest.test_case "mem" `Quick test_mem;
          Alcotest.test_case "intersect/touches" `Quick test_intersect;
          Alcotest.test_case "subset" `Quick test_subset;
          Alcotest.test_case "split known" `Quick test_split_known;
          Alcotest.test_case "split edge cases" `Quick test_split_edge_cases;
          prop_split_partitions;
          prop_interval_codec;
        ] );
      ( "iset",
        [
          Alcotest.test_case "normalization merges" `Quick test_normalization_merges;
          Alcotest.test_case "gap preserved" `Quick test_gap_preserved;
          Alcotest.test_case "union/inter/diff" `Quick test_union_inter_diff_known;
          Alcotest.test_case "is_unit" `Quick test_is_unit;
          Alcotest.test_case "mem" `Quick test_mem_iset;
        ] );
      ( "iset-properties",
        [
          prop_union_comm;
          prop_union_assoc;
          prop_inter_comm;
          prop_inter_union_distrib;
          prop_diff_partition;
          prop_measure_additive;
          prop_subset_diff;
          prop_complement_involution;
          prop_complement_partition;
          prop_normal_form_sorted_disjoint;
          prop_canonical_partition;
          prop_canonical_partition_interval_budget;
          prop_iset_codec;
        ] );
      ( "iset-reference",
        [
          prop_sweeps_match_reference;
          prop_partition_matches_reference;
          prop_union_is_unit;
          prop_union_is_unit_wide;
          Alcotest.test_case "union_is_unit known" `Quick test_union_is_unit_known;
          prop_read_normalizes;
        ] );
    ]
