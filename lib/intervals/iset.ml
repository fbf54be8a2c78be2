module Dy = Exact.Dyadic
module I = Interval

(* Normal form: sorted by lower endpoint; intervals non-empty, pairwise
   disjoint and non-adjacent (no [a,b) [b,c) pairs). *)
type t = I.t list

let empty : t = []
let unit : t = [ I.unit ]

let intervals s = s
let count = List.length
let is_empty s = s = []

(* Coalesce a sorted list of possibly overlapping/adjacent intervals. *)
let coalesce sorted =
  let rec go acc = function
    | [] -> List.rev acc
    | iv :: rest -> (
        match acc with
        | prev :: acc' when I.touches prev iv ->
            let merged = I.make (Dy.min (I.lo prev) (I.lo iv)) (Dy.max (I.hi prev) (I.hi iv)) in
            go (merged :: acc') rest
        | _ -> go (iv :: acc) rest)
  in
  go [] sorted

let of_intervals ivs =
  ivs |> List.filter (fun iv -> not (I.is_empty iv)) |> List.sort I.compare |> coalesce

let rec is_normal = function
  | [] -> true
  | [ iv ] -> not (I.is_empty iv)
  | a :: (b :: _ as rest) ->
      (not (I.is_empty a)) && Dy.compare (I.hi a) (I.lo b) < 0 && is_normal rest

let of_interval iv = if I.is_empty iv then [] else [ iv ]

let interval lo hi = of_interval (I.make lo hi)

let equal a b = List.equal I.equal a b

let compare a b = List.compare I.compare a b

let measure s = Dy.sum (List.map I.measure s)

let mem x s = List.exists (I.mem x) s

(* The binary operations below sweep both sorted normal forms once, left to
   right, so each costs O(|a| + |b|) endpoint comparisons. *)

(* Merge by lower endpoint into the pending interval [cur], which absorbs
   every next interval that overlaps or touches it.  Once one side is used
   up and the other's next interval starts beyond [cur], that remaining
   normal form is the tail. *)
let union a b =
  let[@tail_mod_cons] rec go cur a b =
    match (a, b) with
    | [], [] -> [ cur ]
    | (iv :: a' as rest), [] | [], (iv :: a' as rest) ->
        if Dy.compare (I.hi cur) (I.lo iv) < 0 then cur :: rest
        else absorb cur iv a' []
    | ia :: a', ib :: b' ->
        if Dy.compare (I.lo ia) (I.lo ib) <= 0 then absorb cur ia a' b
        else absorb cur ib a b'
  and[@tail_mod_cons] absorb cur iv a b =
    if Dy.compare (I.lo iv) (I.hi cur) > 0 then cur :: go iv a b
    else if Dy.compare (I.hi iv) (I.hi cur) > 0 then
      go (I.make (I.lo cur) (I.hi iv)) a b
    else go cur a b
  in
  match (a, b) with
  | [], s | s, [] -> s
  | ia :: a', ib :: b' ->
      if Dy.compare (I.lo ia) (I.lo ib) <= 0 then go ia a' b else go ib a b'

(* The same sweep as [union], keeping only how far the covered prefix
   [\[0, reach)] extends, so the stopping predicate allocates nothing. *)
let union_is_unit a b =
  let rec go reach a b =
    match (a, b) with
    | [], [] -> Dy.equal reach Dy.one
    | iv :: a', [] | [], iv :: a' -> extend reach iv a' []
    | ia :: a', ib :: b' ->
        if Dy.compare (I.lo ia) (I.lo ib) <= 0 then extend reach ia a' b
        else extend reach ib a b'
  and extend reach iv a b =
    Dy.compare (I.lo iv) reach <= 0 && go (Dy.max reach (I.hi iv)) a b
  in
  (* A first interval starting below 0 would pass the gap test. *)
  let starts_in_unit = function
    | [] -> true
    | iv :: _ -> Dy.sign (I.lo iv) >= 0
  in
  starts_in_unit a && starts_in_unit b && go Dy.zero a b

let[@tail_mod_cons] rec inter a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | ia :: ra, ib :: rb ->
      let c = Dy.compare (I.hi ia) (I.hi ib) in
      let lo = Dy.max (I.lo ia) (I.lo ib) in
      let hi = if c <= 0 then I.hi ia else I.hi ib in
      if Dy.compare lo hi < 0 then
        I.make lo hi :: (if c <= 0 then inter ra b else inter a rb)
      else if c <= 0 then inter ra b
      else inter a rb

(* Cut each interval of [a] by the intervals of [b] it meets; the
   remainder of a cut interval goes back on [a] for the next one. *)
let[@tail_mod_cons] rec diff a b =
  match (a, b) with
  | [], _ -> []
  | _, [] -> a
  | ia :: ra, ib :: rb ->
      if Dy.compare (I.hi ib) (I.lo ia) <= 0 then diff a rb
      else if Dy.compare (I.hi ia) (I.lo ib) <= 0 then ia :: diff ra b
      else if Dy.compare (I.lo ia) (I.lo ib) < 0 then
        I.make (I.lo ia) (I.lo ib) :: cut ia ra ib b rb
      else cut ia ra ib b rb

(* [ib] meets [ia] and nothing of [ia] is left of it: keep what sticks
   out on the right. *)
and[@tail_mod_cons] cut ia ra ib b rb =
  if Dy.compare (I.hi ib) (I.hi ia) < 0 then
    diff (I.make (I.hi ib) (I.hi ia) :: ra) rb
  else diff ra b

(* Each interval of [a] must lie inside a single interval of [b]: the
   first one of [b] not entirely to its left. *)
let rec subset a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | ia :: ra, ib :: rb ->
      if Dy.compare (I.hi ib) (I.lo ia) <= 0 then subset a rb
      else
        Dy.compare (I.lo ib) (I.lo ia) <= 0
        && Dy.compare (I.hi ia) (I.hi ib) <= 0
        && subset ra b

let rec disjoint a b =
  match (a, b) with
  | [], _ | _, [] -> true
  | ia :: ra, ib :: rb ->
      if Dy.compare (I.hi ia) (I.lo ib) <= 0 then disjoint ra b
      else Dy.compare (I.hi ib) (I.lo ia) <= 0 && disjoint a rb

let complement s = diff unit s

let is_unit s = equal s unit

let first_interval = function [] -> None | iv :: _ -> Some iv

let canonical_partition s d =
  if d < 1 then invalid_arg "Iset.canonical_partition: d must be >= 1";
  match s with
  | [] -> List.init d (fun _ -> empty)
  | first :: rest ->
      (* The slices of a non-empty interval are non-empty, and the last one
         ends where [first] does, before [rest] begins: every part is
         already in normal form. *)
      let rec attach_rest = function
        | [] -> assert false
        | [ last ] -> [ last :: rest ]
        | iv :: ivs -> [ iv ] :: attach_rest ivs
      in
      attach_rest (I.split first d)

let write w s =
  Bitio.Codes.write_gamma0 w (count s);
  List.iter (I.write w) s

let read r =
  let n = Bitio.Codes.read_gamma0 r in
  (* Explicit recursion: List.init does not guarantee evaluation order. *)
  let rec go acc k = if k = 0 then List.rev acc else go (I.read r :: acc) (k - 1) in
  let ivs = go [] n in
  (* Every encoder writes a normal form, so only a corrupted message needs
     the sort. *)
  if is_normal ivs then ivs else of_intervals ivs

let size_bits s =
  let rec go n acc = function
    | [] -> Bitio.Codes.gamma0_size n + acc
    | iv :: rest -> go (n + 1) (acc + I.size_bits iv) rest
  in
  go 0 0 s

let max_endpoint_bits s =
  List.fold_left
    (fun acc iv -> max acc (max (Dy.bit_size (I.lo iv)) (Dy.bit_size (I.hi iv))))
    0 s

let to_string s =
  if is_empty s then "{}"
  else String.concat " u " (List.map I.to_string s)

let pp fmt s = Format.pp_print_string fmt (to_string s)
