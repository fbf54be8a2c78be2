module Dy = Exact.Dyadic

(* [bits] caches the encoded size of the two endpoints, which
   [Iset.size_bits] sums on every delivery. *)
type t = { lo : Dy.t; hi : Dy.t; bits : int }

let endpoints_bits lo hi = Bitio.Codes.dyadic_size lo + Bitio.Codes.dyadic_size hi

let empty = { lo = Dy.zero; hi = Dy.zero; bits = endpoints_bits Dy.zero Dy.zero }

let make lo hi =
  if Dy.compare lo hi >= 0 then empty else { lo; hi; bits = endpoints_bits lo hi }

let unit = make Dy.zero Dy.one

let lo iv = iv.lo
let hi iv = iv.hi

let is_empty iv = Dy.compare iv.lo iv.hi >= 0

let equal a b = Dy.equal a.lo b.lo && Dy.equal a.hi b.hi

let compare a b =
  let c = Dy.compare a.lo b.lo in
  if c <> 0 then c else Dy.compare a.hi b.hi

let measure iv = if is_empty iv then Dy.zero else Dy.sub iv.hi iv.lo

let mem x iv = Dy.compare iv.lo x <= 0 && Dy.compare x iv.hi < 0

let subset a b = is_empty a || (Dy.compare b.lo a.lo <= 0 && Dy.compare a.hi b.hi <= 0)

let intersect a b =
  if is_empty a || is_empty b then empty
  else make (Dy.max a.lo b.lo) (Dy.min a.hi b.hi)

let overlaps a b = not (is_empty (intersect a b))

let touches a b =
  (not (is_empty a)) && (not (is_empty b))
  && Dy.compare a.lo b.hi <= 0
  && Dy.compare b.lo a.hi <= 0

(* Smallest exponent c with 2^c >= k. *)
let ceil_log2 k =
  assert (k >= 1);
  let rec go c p = if p >= k then c else go (c + 1) (p * 2) in
  go 0 1

let split iv k =
  if k < 1 then invalid_arg "Interval.split: k must be >= 1";
  if is_empty iv then List.init k (fun _ -> empty)
  else if k = 1 then [ iv ]
  else begin
    let c = ceil_log2 k in
    let delta = Dy.div_pow2 (Dy.sub iv.hi iv.lo) c in
    (* Boundary [j] is [lo + j*delta], one exact addition past boundary
       [j - 1]; the last part ends at [hi]. *)
    let rec parts acc j lo =
      if j = k - 1 then List.rev (make lo iv.hi :: acc)
      else begin
        let next = Dy.add lo delta in
        parts (make lo next :: acc) (j + 1) next
      end
    in
    parts [] 0 iv.lo
  end

let write w iv =
  Bitio.Codes.write_dyadic w iv.lo;
  Bitio.Codes.write_dyadic w iv.hi

let read r =
  let lo = Bitio.Codes.read_dyadic r in
  let hi = Bitio.Codes.read_dyadic r in
  make lo hi

let size_bits iv = iv.bits

let to_string iv =
  if is_empty iv then "[)"
  else Printf.sprintf "[%s, %s)" (Dy.to_string iv.lo) (Dy.to_string iv.hi)

let pp fmt iv = Format.pp_print_string fmt (to_string iv)
