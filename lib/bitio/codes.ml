module B = Bignat
module Dy = Exact.Dyadic
module Q = Exact.Rational

let write_unary w n =
  if n < 0 then invalid_arg "Codes.write_unary: negative";
  for _ = 1 to n do
    Bit_writer.bit w false
  done;
  Bit_writer.bit w true

let read_unary r =
  let n = ref 0 in
  while not (Bit_reader.bit r) do
    incr n
  done;
  !n

let write_gamma w n =
  if n < 1 then invalid_arg "Codes.write_gamma: needs n >= 1";
  let k = B.int_width n - 1 in
  (* [k] zeros, then [n]'s [k+1] bits (the first is the unary code's
     terminating 1): [n] itself, written [2k+1] bits wide. *)
  if (2 * k) + 1 <= 62 then Bit_writer.bits w n ((2 * k) + 1)
  else begin
    write_unary w k;
    Bit_writer.bits w (n - (1 lsl k)) k
  end

let read_gamma r =
  let k = read_unary r in
  (1 lsl k) lor Bit_reader.bits r k

let write_gamma0 w n = write_gamma w (n + 1)
let read_gamma0 r = read_gamma r - 1

let write_delta w n =
  if n < 1 then invalid_arg "Codes.write_delta: needs n >= 1";
  let k = B.int_width n - 1 in
  write_gamma w (k + 1);
  Bit_writer.bits w (n - (1 lsl k)) k

let read_delta r =
  let k = read_gamma r - 1 in
  (1 lsl k) lor Bit_reader.bits r k

let write_bignat w x =
  let n = B.bit_length x in
  write_gamma0 w n;
  match B.to_int_opt x with
  | Some v -> Bit_writer.bits w v n
  | None ->
      for i = n - 1 downto 0 do
        Bit_writer.bit w (B.testbit x i)
      done

(* The [n]-bit payload of a bignat, up to 62 bits per step rather than
   one bit. *)
let read_bignat_bits r n =
  let x = ref B.zero and left = ref n in
  while !left > 0 do
    let width = min 62 !left in
    x := B.add (B.shift_left !x width) (B.of_int (Bit_reader.bits r width));
    left := !left - width
  done;
  !x

let read_bignat r = read_bignat_bits r (read_gamma0 r)

(* A mantissa below 2^61 is written from its int, with the bits
   [write_bignat] would write. *)
let write_dyadic w d =
  Bit_writer.bit w (Dy.is_negative d);
  write_gamma0 w (Dy.exponent d);
  let m = Dy.mantissa_int d in
  if m < 0 then write_bignat w (Dy.mantissa d)
  else begin
    let n = B.int_width m in
    write_gamma0 w n;
    Bit_writer.bits w m n
  end

(* A payload of up to 62 bits is one read, as in [read_bignat_bits], so
   a garbled message reads the same bits and fails the same way. *)
let read_dyadic r =
  let negative = Bit_reader.bit r in
  let e = read_gamma0 r in
  let n = read_gamma0 r in
  if n > 62 then Dy.make ~negative (read_bignat_bits r n) e
  else Dy.make_int ~negative (if n > 0 then Bit_reader.bits r n else 0) e

let write_rational w q =
  Bit_writer.bit w (Q.is_negative q);
  write_bignat w (Q.num q);
  write_bignat w (Q.den q)

let read_rational r =
  let negative = Bit_reader.bit r in
  let num = read_bignat r in
  let den = read_bignat r in
  Q.make ~negative num den

let gamma0_size n =
  let k = B.int_width (n + 1) - 1 in
  (2 * k) + 1

let bignat_size x =
  let n = B.bit_length x in
  gamma0_size n + n

let dyadic_size d =
  let m = Dy.mantissa_int d in
  let mant =
    if m < 0 then bignat_size (Dy.mantissa d)
    else begin
      let n = B.int_width m in
      gamma0_size n + n
    end
  in
  1 + gamma0_size (Dy.exponent d) + mant

let rational_size q = 1 + bignat_size (Q.num q) + bignat_size (Q.den q)
