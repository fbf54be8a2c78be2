type t = { buf : Buffer.t; mutable acc : int; mutable used : int; mutable total : int }

let create () = { buf = Buffer.create 64; acc = 0; used = 0; total = 0 }

let bit w b =
  w.acc <- (w.acc lsl 1) lor (if b then 1 else 0);
  w.used <- w.used + 1;
  w.total <- w.total + 1;
  if w.used = 8 then begin
    Buffer.add_char w.buf (Char.chr w.acc);
    w.acc <- 0;
    w.used <- 0
  end

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
    if w.used = 8 then begin
      Buffer.add_char w.buf (Char.chr w.acc);
      w.acc <- 0;
      w.used <- 0
    end
  done;
  w.total <- w.total + width

let length w = w.total

let to_string w =
  let s = Buffer.contents w.buf in
  if w.used = 0 then s
  else s ^ String.make 1 (Char.chr (w.acc lsl (8 - w.used)))

let to_bit_string w =
  let s = to_string w in
  String.init w.total (fun i ->
      let byte = Char.code s.[i / 8] in
      if (byte lsr (7 - (i mod 8))) land 1 = 1 then '1' else '0')
