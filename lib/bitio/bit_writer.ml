(* [buf.[0 .. pos-1]] are the completed bytes; the [used] (< 8) bits of
   the partial byte wait in the low end of [acc]. *)
type t = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable acc : int;
  mutable used : int;
  mutable total : int;
}

let create () = { buf = Bytes.create 64; pos = 0; acc = 0; used = 0; total = 0 }

let reset w =
  w.pos <- 0;
  w.acc <- 0;
  w.used <- 0;
  w.total <- 0

(* Room for the completed bytes plus the padded partial one. *)
let reserve w =
  if w.pos >= Bytes.length w.buf then begin
    let bigger = Bytes.create (2 * Bytes.length w.buf) in
    Bytes.blit w.buf 0 bigger 0 w.pos;
    w.buf <- bigger
  end

let flush_byte w =
  reserve w;
  Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr w.acc);
  w.pos <- w.pos + 1;
  w.acc <- 0;
  w.used <- 0

let bit w b =
  w.acc <- (w.acc lsl 1) lor (if b then 1 else 0);
  w.used <- w.used + 1;
  w.total <- w.total + 1;
  if w.used = 8 then flush_byte w

(* Up to a byte's remaining room per step rather than one bit. *)
let bits w v width =
  if width < 0 || width > 62 then invalid_arg "Bit_writer.bits: bad width";
  if v < 0 then invalid_arg "Bit_writer.bits: negative value";
  let left = ref width in
  while !left > 0 do
    let take = Int.min !left (8 - w.used) in
    let chunk = (v lsr (!left - take)) land ((1 lsl take) - 1) in
    w.acc <- (w.acc lsl take) lor chunk;
    w.used <- w.used + take;
    left := !left - take;
    if w.used = 8 then flush_byte w
  done;
  w.total <- w.total + width

let length w = w.total

(* The partial byte is stored padded but [pos] stays put, so the next
   completed byte overwrites it. *)
let padded_bytes w =
  if w.used > 0 then begin
    reserve w;
    Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr (w.acc lsl (8 - w.used)))
  end;
  w.buf

let to_string w = Bytes.sub_string (padded_bytes w) 0 ((w.total + 7) / 8)

let to_bit_string w =
  let s = to_string w in
  String.init w.total (fun i ->
      let byte = Char.code s.[i / 8] in
      if (byte lsr (7 - (i mod 8))) land 1 = 1 then '1' else '0')
