let test_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_copy_independent () =
  let a = Prng.create 3 in
  let _ = Prng.bits64 a in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_split_diverges () =
  let a = Prng.create 11 in
  let b = Prng.split a in
  Alcotest.(check bool) "split stream differs" true (Prng.bits64 a <> Prng.bits64 b)

let test_int_bounds () =
  let g = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_one () =
  let g = Prng.create 5 in
  for _ = 1 to 10 do
    Alcotest.(check int) "bound 1 gives 0" 0 (Prng.int g 1)
  done

let test_int_in () =
  let g = Prng.create 9 in
  for _ = 1 to 1000 do
    let v = Prng.int_in g (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_int_covers_range () =
  let g = Prng.create 13 in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    seen.(Prng.int g 10) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all (fun b -> b) seen)

let test_float_range () =
  let g = Prng.create 21 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_chance_extremes () =
  let g = Prng.create 23 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Prng.chance g 0.0);
    Alcotest.(check bool) "p=1 always" true (Prng.chance g 1.0)
  done

let test_shuffle_is_permutation () =
  let g = Prng.create 31 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle_in_place g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_shuffle_list () =
  let g = Prng.create 37 in
  let l = List.init 30 (fun i -> i) in
  let l' = Prng.shuffle_list g l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare l')

let test_sample_without_replacement () =
  let g = Prng.create 41 in
  for _ = 1 to 50 do
    let k = Prng.int_in g 0 10 in
    let s = Prng.sample_without_replacement g k 10 in
    Alcotest.(check int) "size k" k (List.length s);
    Alcotest.(check bool) "distinct sorted in range" true
      (List.sort_uniq compare s = s && List.for_all (fun v -> v >= 0 && v < 10) s)
  done

let test_pick () =
  let g = Prng.create 43 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "picked element" true (Array.mem (Prng.pick g a) a)
  done;
  Alcotest.(check bool) "pick_list" true
    (List.mem (Prng.pick_list g [ 1; 2; 3 ]) [ 1; 2; 3 ])

(* {1 Golden streams}

   Prefixes recorded from the boxed-state implementation the generator
   replaced: every seeded experiment, schedule and fault trace in the
   repository depends on these exact values, so a representation change
   must reproduce them bit for bit.  The bound [3 * 2^60] redraws 3/8 of
   the raw draws, so it pins the rejection loop too. *)

type golden = {
  g_seed : int;
  g_bits64 : int64 list;
  g_int : (int * int list) list;
  g_float : string list;
  g_split_child : int64 list;
  g_split_parent : int64 list;
  g_copy : int64 list;
}

let goldens =
  [
    {
      g_seed = 0;
      g_bits64 = [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL; 0xF88BB8A8724C81ECL ];
      g_int =
        [
          (1, [ 0; 0; 0; 0; 0; 0 ]);
          (7, [ 4; 4; 4; 2; 4; 1 ]);
          (1 lsl 40, [ 123439343319; 228989907706; 602369467047; 361736061174; 778074077773; 576502845813 ]);
          (3 lsl 60, [ 1229575180688221911; 521378747276636922; 2037276660749189366; 198731905159091614; 1863404229348448339; 198007126102679172 ]);
        ];
      g_float = [ "0x1.c4415072f63b9p-1"; "0x1.b9e279aa86e58p-2"; "0x1.b1174620025p-6" ];
      g_split_child = [ 0x568A9B0B1A2C05ECL; 0x44E5B8B147EF718BL; 0x458563AB55521133L ];
      g_split_parent = [ 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ];
      g_copy = [ 0x06C45D188009454FL; 0xF88BB8A8724C81ECL; 0x1B39896A51A8749BL ];
    };
    {
      g_seed = 1;
      g_bits64 = [ 0xBFEF8030DDC2D772L; 0x5F552CE482F2AA47L; 0x70335FC3DAF3D8A7L; 0xF440FE3B62C79D2CL ];
      g_int =
        [
          (1, [ 0; 0; 0; 0; 0; 0 ]);
          (7, [ 5; 4; 2; 6; 6; 2 ]);
          (1 lsl 40, [ 104939482041; 490724742435; 970351832147; 127530159766; 639746749533; 705794784307 ]);
          (3 lsl 60, [ 3456442450202160057; 583691011607882835; 1882644409747754646; 2036224772180130867; 744965386395259644; 1219605964238407074 ]);
        ];
      g_float = [ "0x1.7fdf0061bb85ap-1"; "0x1.7d54b3920bcaap-2"; "0x1.c0cd7f0f6bcf6p-2" ];
      g_split_child = [ 0xF0E0E7BE2FCF87EDL; 0xCA7E1C9EF3F43D32L; 0x477203FC7AF79E35L ];
      g_split_parent = [ 0x5F552CE482F2AA47L; 0x70335FC3DAF3D8A7L ];
      g_copy = [ 0x70335FC3DAF3D8A7L; 0xF440FE3B62C79D2CL; 0x33BA2F29E7C168BBL ];
    };
    {
      g_seed = 42;
      g_bits64 = [ 0x989B3F130A063869L; 0x290DB4BF2570DED7L; 0x2A990BE63A01B2D5L; 0x0C4B6B24EF01890EL ];
      g_int =
        [
          (1, [ 0; 0; 0; 0; 0; 0 ]);
          (7, [ 3; 2; 0; 5; 4; 6 ]);
          (1 lsl 40, [ 590642093108; 410483453803; 1044163647850; 629070152839; 236918802515; 205797935457 ]);
          (3 lsl 60, [ 2039461619259612212; 2128883446711715923; 98536372699858534; 133237238020400266; 1256369040645502858; 1383306072426471590 ]);
        ];
      g_float = [ "0x1.31367e26140c7p-1"; "0x1.486da5f92b86cp-3"; "0x1.54c85f31d00d8p-3" ];
      g_split_child = [ 0x33D3B3229FE0C44DL; 0xCC0AAF5E8D84AAC2L; 0xA539E214256B51ECL ];
      g_split_parent = [ 0x290DB4BF2570DED7L; 0x2A990BE63A01B2D5L ];
      g_copy = [ 0x2A990BE63A01B2D5L; 0x0C4B6B24EF01890EL; 0xFB16A06E52EC10A7L ];
    };
  ]

let draws n f = List.init n (fun _ -> f ())

let test_golden_streams () =
  List.iter
    (fun g ->
      let name what = Printf.sprintf "seed %d %s" g.g_seed what in
      let p = Prng.create g.g_seed in
      Alcotest.(check (list int64)) (name "bits64") g.g_bits64
        (draws (List.length g.g_bits64) (fun () -> Prng.bits64 p));
      List.iter
        (fun (bound, want) ->
          let p = Prng.create g.g_seed in
          Alcotest.(check (list int))
            (name (Printf.sprintf "int %d" bound))
            want
            (draws (List.length want) (fun () -> Prng.int p bound)))
        g.g_int;
      let p = Prng.create g.g_seed in
      Alcotest.(check (list string)) (name "float") g.g_float
        (draws (List.length g.g_float) (fun () -> Printf.sprintf "%h" (Prng.float p)));
      let p = Prng.create g.g_seed in
      let child = Prng.split p in
      Alcotest.(check (list int64)) (name "split child") g.g_split_child
        (draws (List.length g.g_split_child) (fun () -> Prng.bits64 child));
      Alcotest.(check (list int64)) (name "split parent") g.g_split_parent
        (draws (List.length g.g_split_parent) (fun () -> Prng.bits64 p));
      (* The copy is taken after a [bits64] and an [int], and the original
         advances once more before the copy is read. *)
      let p = Prng.create g.g_seed in
      ignore (Prng.bits64 p);
      ignore (Prng.int p 7);
      let c = Prng.copy p in
      ignore (Prng.bits64 p);
      Alcotest.(check (list int64)) (name "copy") g.g_copy
        (draws (List.length g.g_copy) (fun () -> Prng.bits64 c)))
    goldens

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split" `Quick test_split_diverges;
          Alcotest.test_case "golden streams" `Quick test_golden_streams;
        ] );
      ( "draws",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int bound=1" `Quick test_int_one;
          Alcotest.test_case "int_in range" `Quick test_int_in;
          Alcotest.test_case "int covers range" `Quick test_int_covers_range;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
          Alcotest.test_case "pick" `Quick test_pick;
        ] );
      ( "collections",
        [
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "shuffle list" `Quick test_shuffle_list;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_sample_without_replacement;
        ] );
    ]
