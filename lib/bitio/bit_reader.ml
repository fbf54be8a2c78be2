type t = { data : string; limit : int; mutable pos : int }

exception Truncated

let of_string ?length_bits s =
  let limit =
    match length_bits with
    | None -> 8 * String.length s
    | Some n ->
        if n < 0 || n > 8 * String.length s then
          invalid_arg "Bit_reader.of_string: bad length";
        n
  in
  { data = s; limit; pos = 0 }

let bit r =
  if r.pos >= r.limit then raise Truncated;
  let byte = Char.code r.data.[r.pos / 8] in
  let b = (byte lsr (7 - (r.pos mod 8))) land 1 = 1 in
  r.pos <- r.pos + 1;
  b

(* Up to the rest of the current byte per step rather than one bit.  A
   read past [limit] consumes what is left, then raises. *)
let bits r width =
  if width < 0 || width > 62 then invalid_arg "Bit_reader.bits: bad width";
  if r.pos + width > r.limit then begin
    r.pos <- r.limit;
    raise Truncated
  end;
  let v = ref 0 and left = ref width in
  while !left > 0 do
    let avail = 8 - (r.pos land 7) in
    let take = Int.min !left avail in
    let byte = Char.code r.data.[r.pos lsr 3] in
    v := (!v lsl take) lor ((byte lsr (avail - take)) land ((1 lsl take) - 1));
    r.pos <- r.pos + take;
    left := !left - take
  done;
  !v

let pos r = r.pos
let remaining r = r.limit - r.pos
let at_end r = r.pos >= r.limit
