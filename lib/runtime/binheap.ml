type ('k, 'v) t = { mutable arr : ('k * 'v) array; mutable len : int }

let create () = { arr = [||]; len = 0 }

let length h = h.len
let is_empty h = h.len = 0

let swap h i j =
  let t = h.arr.(i) in
  h.arr.(i) <- h.arr.(j);
  h.arr.(j) <- t

let key h i = fst h.arr.(i)

let push h k v =
  if h.len = Array.length h.arr then begin
    let cap = Stdlib.max 16 (2 * h.len) in
    let bigger = Array.make cap (k, v) in
    Array.blit h.arr 0 bigger 0 h.len;
    h.arr <- bigger
  end;
  h.arr.(h.len) <- (k, v);
  h.len <- h.len + 1;
  let i = ref (h.len - 1) in
  while !i > 0 && key h !i < key h ((!i - 1) / 2) do
    swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let top h =
  if h.len = 0 then invalid_arg "Binheap.top: empty heap";
  h.arr.(0)

let remove_top h =
  if h.len = 0 then invalid_arg "Binheap.remove_top: empty heap";
  h.len <- h.len - 1;
  h.arr.(0) <- h.arr.(h.len);
  let i = ref 0 in
  let continue = ref (h.len > 1) in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < h.len && key h l < key h !smallest then smallest := l;
    if r < h.len && key h r < key h !smallest then smallest := r;
    if !smallest = !i then continue := false
    else begin
      swap h !i !smallest;
      i := !smallest
    end
  done

let pop h =
  if h.len = 0 then None
  else begin
    let top = top h in
    remove_top h;
    Some top
  end
