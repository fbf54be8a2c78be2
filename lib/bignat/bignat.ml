(* Little-endian array of limbs, each in [0, 2^limb_bits).  Normalized: the
   most significant limb is non-zero; zero is the empty array.  30-bit limbs
   keep every intermediate product of the schoolbook loops well inside the
   63-bit native int range. *)

let limb_bits = 30
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero x = Array.length x = 0
let is_one x = Array.length x = 1 && x.(0) = 1

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignat.of_int: negative";
  if n = 0 then zero
  else if n < limb_base then [| n |]
  else if n lsr (2 * limb_bits) = 0 then [| n land limb_mask; n lsr limb_bits |]
  else [| n land limb_mask; (n lsr limb_bits) land limb_mask; n lsr (2 * limb_bits) |]

let to_int_opt x =
  let n = Array.length x in
  if n = 0 then Some 0
  else if n * limb_bits <= 62 then begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl limb_bits) lor x.(i)
    done;
    Some !v
  end
  else begin
    (* May still fit: check the high limbs. *)
    let v = ref 0 and ok = ref true in
    for i = n - 1 downto 0 do
      if !v > (max_int - x.(i)) lsr limb_bits then ok := false
      else v := (!v lsl limb_bits) lor x.(i)
    done;
    if !ok then Some !v else None
  end

let to_int_exn x =
  match to_int_opt x with
  | Some n -> n
  | None -> failwith "Bignat.to_int_exn: value too large"

(* Top-down limb scan; a loop rather than a local recursive function so
   that no closure is allocated. *)
let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let i = ref (la - 1) in
    while !i >= 0 && a.(!i) = b.(!i) do
      decr i
    done;
    if !i < 0 then 0 else Stdlib.compare a.(!i) b.(!i)
  end

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash (x : t) = Hashtbl.hash x

let is_even x = Array.length x = 0 || x.(0) land 1 = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = Stdlib.max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let succ x = add x one
let pred x = sub x one

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- cur land limb_mask;
        carry := cur lsr limb_bits
      done;
      (* Propagate the remaining carry (can span several limbs). *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur land limb_mask;
        carry := cur lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let mul_int a m =
  if m < 0 then invalid_arg "Bignat.mul_int: negative"
  else if m = 0 then zero
  else if m < limb_base then begin
    let la = Array.length a in
    let r = Array.make (la + 2) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let cur = (a.(i) * m) + !carry in
      r.(i) <- cur land limb_mask;
      carry := cur lsr limb_bits
    done;
    let k = ref la in
    while !carry <> 0 do
      r.(!k) <- !carry land limb_mask;
      carry := !carry lsr limb_bits;
      incr k
    done;
    normalize r
  end
  else mul a (of_int m)

(* Binary search over the bit position, six steps for any int. *)
let int_width n =
  let n = ref n and w = ref 0 in
  if !n lsr 32 <> 0 then (n := !n lsr 32; w := 32);
  if !n lsr 16 <> 0 then (n := !n lsr 16; w := !w + 16);
  if !n lsr 8 <> 0 then (n := !n lsr 8; w := !w + 8);
  if !n lsr 4 <> 0 then (n := !n lsr 4; w := !w + 4);
  if !n lsr 2 <> 0 then (n := !n lsr 2; w := !w + 2);
  if !n lsr 1 <> 0 then (n := !n lsr 1; w := !w + 1);
  !w + !n

let bit_length x =
  let n = Array.length x in
  if n = 0 then 0 else ((n - 1) * limb_bits) + int_width x.(n - 1)

let testbit x i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length x && (x.(limb) lsr off) land 1 = 1

let shift_left (x : t) k =
  if k < 0 then invalid_arg "Bignat.shift_left: negative shift";
  if is_zero x || k = 0 then x
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let lx = Array.length x in
    let r = Array.make (lx + limbs + 1) 0 in
    if bits = 0 then Array.blit x 0 r limbs lx
    else begin
      let carry = ref 0 in
      for i = 0 to lx - 1 do
        let cur = (x.(i) lsl bits) lor !carry in
        r.(i + limbs) <- cur land limb_mask;
        carry := cur lsr limb_bits
      done;
      r.(lx + limbs) <- !carry
    end;
    normalize r
  end

let shift_right (x : t) k =
  if k < 0 then invalid_arg "Bignat.shift_right: negative shift";
  if is_zero x || k = 0 then x
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let lx = Array.length x in
    if limbs >= lx then zero
    else begin
      let n = lx - limbs in
      let r = Array.make n 0 in
      if bits = 0 then Array.blit x limbs r 0 n
      else begin
        for i = 0 to n - 1 do
          let lo = x.(i + limbs) lsr bits in
          let hi = if i + limbs + 1 < lx then (x.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask else 0 in
          r.(i) <- lo lor hi
        done
      end;
      normalize r
    end
  end

let trailing_zeros x =
  let n = Array.length x in
  if n = 0 then 0
  else begin
    let i = ref 0 in
    while x.(!i) = 0 do
      incr i
    done;
    let v = ref x.(!i) and bits = ref 0 in
    while !v land 1 = 0 do
      v := !v lsr 1;
      incr bits
    done;
    (!i * limb_bits) + !bits
  end

(* Limb [i] of [shift_left a k], read off [a] in place: [limbs]/[bits]
   split [k] as in [shift_left]. *)
let shifted_limb (a : t) limbs bits i =
  let j = i - limbs in
  let la = Array.length a in
  let low = if j >= 0 && j < la then (a.(j) lsl bits) land limb_mask else 0 in
  if bits > 0 && j >= 1 && j <= la then low lor (a.(j - 1) lsr (limb_bits - bits))
  else low

let compare_shifted (a : t) (b : t) k =
  if k < 0 then invalid_arg "Bignat.compare_shifted: negative shift";
  if k = 0 || is_zero a then compare a b
  else begin
    let c = Stdlib.compare (bit_length a + k) (bit_length b) in
    if c <> 0 then c
    else begin
      (* Equal bit lengths, hence equal limb counts. *)
      let limbs = k / limb_bits and bits = k mod limb_bits in
      let i = ref (Array.length b - 1) in
      while !i >= 0 && shifted_limb a limbs bits !i = b.(!i) do
        decr i
      done;
      if !i < 0 then 0 else Stdlib.compare (shifted_limb a limbs bits !i) b.(!i)
    end
  end

let pow2 k =
  let r = Array.make ((k / limb_bits) + 1) 0 in
  r.(k / limb_bits) <- 1 lsl (k mod limb_bits);
  r

(* Division by a small positive int, m < limb_base. *)
let divmod_small (a : t) (m : int) : t * int =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / m;
    r := cur mod m
  done;
  (normalize q, !r)

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, of_int r)
  end
  else begin
    (* Shift-subtract long division, one bit at a time: O(bits(a) * limbs(b)).
       Plenty fast for the endpoint sizes our protocols produce. *)
    let n = bit_length a in
    let q = Array.make (Array.length a) 0 in
    let r = ref zero in
    for i = n - 1 downto 0 do
      r := shift_left !r 1;
      if testbit a i then r := add !r one;
      if compare !r b >= 0 then begin
        r := sub !r b;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (normalize q, !r)
  end

let divmod_int (a : t) (m : int) : t * int =
  if m <= 0 then invalid_arg "Bignat.divmod_int: divisor must be positive";
  if m < limb_base then divmod_small a m
  else begin
    let q, r = divmod a (of_int m) in
    (q, to_int_exn r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Binary GCD: only shifts, subtraction and parity tests. *)
let gcd a0 b0 =
  if is_zero a0 then b0
  else if is_zero b0 then a0
  else begin
    let a = ref a0 and b = ref b0 and shift = ref 0 in
    while is_even !a && is_even !b do
      a := shift_right !a 1;
      b := shift_right !b 1;
      incr shift
    done;
    while is_even !a do
      a := shift_right !a 1
    done;
    (* Invariant: [!a] is odd. *)
    let continue = ref true in
    while !continue do
      while is_even !b do
        b := shift_right !b 1
      done;
      if compare !a !b > 0 then begin
        let t = !a in
        a := !b;
        b := sub t !b
      end
      else b := sub !b !a;
      if is_zero !b then continue := false
    done;
    shift_left !a !shift
  end

let pow b e =
  if e < 0 then invalid_arg "Bignat.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let of_string s =
  if String.length s = 0 then invalid_arg "Bignat.of_string: empty";
  let v = ref zero in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Bignat.of_string: not a digit";
      v := add (mul_int !v 10) (of_int (Char.code c - Char.code '0')))
    s;
  !v

let to_string x =
  if is_zero x then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec go x =
      if not (is_zero x) then begin
        let q, r = divmod_int x 10 in
        go q;
        Buffer.add_char buf (Char.chr (Char.code '0' + r))
      end
    in
    go x;
    Buffer.contents buf
  end

let to_string_binary x =
  let n = bit_length x in
  if n = 0 then "0"
  else String.init n (fun i -> if testbit x (n - 1 - i) then '1' else '0')

let pp fmt x = Format.pp_print_string fmt (to_string x)
