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
  let rec go acc cur a b =
    match (a, b) with
    | [], [] -> List.rev (cur :: acc)
    | iv :: a', [] | [], iv :: a' ->
        if Dy.compare (I.hi cur) (I.lo iv) < 0 then
          List.rev_append (cur :: acc) (iv :: a')
        else absorb acc cur iv a' []
    | ia :: a', ib :: b' ->
        if Dy.compare (I.lo ia) (I.lo ib) <= 0 then absorb acc cur ia a' b
        else absorb acc cur ib a b'
  and absorb acc cur iv a b =
    if Dy.compare (I.lo iv) (I.hi cur) > 0 then go (cur :: acc) iv a b
    else if Dy.compare (I.hi iv) (I.hi cur) > 0 then
      go acc (I.make (I.lo cur) (I.hi iv)) a b
    else go acc cur a b
  in
  match (a, b) with
  | [], s | s, [] -> s
  | ia :: a', ib :: b' ->
      if Dy.compare (I.lo ia) (I.lo ib) <= 0 then go [] ia a' b else go [] ib a b'

let inter a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | ia :: ra, ib :: rb ->
        let c = Dy.compare (I.hi ia) (I.hi ib) in
        let lo = Dy.max (I.lo ia) (I.lo ib) in
        let hi = if c <= 0 then I.hi ia else I.hi ib in
        let acc = if Dy.compare lo hi < 0 then I.make lo hi :: acc else acc in
        if c <= 0 then go acc ra b else go acc a rb
  in
  go [] a b

(* Cut each interval of [a] by the intervals of [b] it meets; the
   remainder of a cut interval goes back on [a] for the next one. *)
let diff a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ -> List.rev acc
    | _, [] -> List.rev_append acc a
    | ia :: ra, ib :: rb ->
        if Dy.compare (I.hi ib) (I.lo ia) <= 0 then go acc a rb
        else if Dy.compare (I.hi ia) (I.lo ib) <= 0 then go (ia :: acc) ra b
        else begin
          let acc =
            if Dy.compare (I.lo ia) (I.lo ib) < 0 then I.make (I.lo ia) (I.lo ib) :: acc
            else acc
          in
          if Dy.compare (I.hi ib) (I.hi ia) < 0 then
            go acc (I.make (I.hi ib) (I.hi ia) :: ra) rb
          else go acc ra b
        end
  in
  go [] a b

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
