(* The 64-bit state lives unboxed in an 8-byte buffer: a mutable [int64]
   record field would box a fresh state on every draw.  The byte order is
   irrelevant, since a state is never serialized. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 s;
  g

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

(* Inlined into every draw, so the result stays unboxed too. *)
let[@inline] next g =
  let s = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 s;
  mix64 s

let bits64 g = next g

let split g = of_state (mix64 (next g))

let int g bound =
  assert (bound > 0);
  (* Redraw while [r - v < bound - 1], i.e. while [r] falls in the first
     block [\[0, bound)].  This is the rejection test every recorded seed
     was drawn with; unlike the usual last-block test it does not remove
     modulo bias, but changing it would change every seeded stream. *)
  let bound64 = Int64.of_int bound in
  let r = ref (Int64.shift_right_logical (next g) 1) in
  let v = ref (Int64.rem !r bound64) in
  while bound > 1 && Int64.sub (Int64.sub !r !v) (Int64.sub bound64 1L) < 0L do
    r := Int64.shift_right_logical (next g) 1;
    v := Int64.rem !r bound64
  done;
  Int64.to_int !v

let int_in g lo hi =
  assert (lo <= hi);
  lo + int g (hi - lo + 1)

let bool g = Int64.logand (next g) 1L = 1L

let float g =
  (* 53 random mantissa bits, as in Java's SplittableRandom. *)
  let r = Int64.shift_right_logical (next g) 11 in
  Int64.to_float r *. 0x1.0p-53

let chance g p = float g < p

let pick g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))

let pick_list g l =
  match l with
  | [] -> invalid_arg "Prng.pick_list: empty list"
  | _ -> List.nth l (int g (List.length l))

let shuffle_in_place g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_list g l =
  let a = Array.of_list l in
  shuffle_in_place g a;
  Array.to_list a

let sample_without_replacement g k n =
  assert (0 <= k && k <= n);
  (* Floyd's algorithm. *)
  let module S = Set.Make (Int) in
  let s = ref S.empty in
  for j = n - k to n - 1 do
    let v = int g (j + 1) in
    if S.mem v !s then s := S.add j !s else s := S.add v !s
  done;
  S.elements !s
