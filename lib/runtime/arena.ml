type t = {
  mutable buf : Bytes.t;  (* every slot's bytes, back to back *)
  mutable used : int;
  mutable off : int array;  (* per slot: byte offset into [buf] *)
  mutable len_bits : int array;  (* per slot: exact encoded length *)
  mutable hash : int array;  (* per slot: table hash, kept for regrowth *)
  mutable seen : Bytes.t;  (* per slot: '\001' once delivered across an edge *)
  mutable n_slots : int;
  mutable distinct : int;  (* slots marked seen *)
  (* Open addressing with linear probing: [slot + 1] per cell, 0 empty.
     The length is a power of two at least twice [n_slots]. *)
  mutable table : int array;
  writer : Bitio.Bit_writer.t;  (* reused by every [intern] *)
}

let create () =
  {
    buf = Bytes.create 256;
    used = 0;
    off = Array.make 16 0;
    len_bits = Array.make 16 0;
    hash = Array.make 16 0;
    seen = Bytes.make 16 '\000';
    n_slots = 0;
    distinct = 0;
    table = Array.make 32 0;
    writer = Bitio.Bit_writer.create ();
  }

let distinct a = a.distinct
let len_bits a slot = a.len_bits.(slot)

let mark_seen a slot =
  if Bytes.get a.seen slot = '\000' then begin
    Bytes.set a.seen slot '\001';
    a.distinct <- a.distinct + 1
  end

let to_string a slot =
  Bytes.sub_string a.buf a.off.(slot) ((a.len_bits.(slot) + 7) / 8)

(* FNV-1a over the bit length and the padded bytes, folded so the low
   bits that pick a cell depend on every byte. *)
let hash_bytes len_bits b nbytes =
  let h = ref ((0x2bf29ce484222325 lxor len_bits) * 0x100000001b3) in
  for i = 0 to nbytes - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
  done;
  (!h lxor (!h lsr 31)) land max_int

(* Lookups loop rather than recurse: a local recursive function's closure
   over the arguments would be allocated on every call. *)
let same_bytes a slot b nbytes =
  let off = a.off.(slot) in
  let i = ref 0 in
  while
    !i < nbytes && Bytes.unsafe_get a.buf (off + !i) = Bytes.unsafe_get b !i
  do
    incr i
  done;
  !i = nbytes

let insert table mask h slot =
  let i = ref (h land mask) in
  while Array.unsafe_get table !i <> 0 do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set table !i (slot + 1)

let grow_table a =
  let cap = 2 * Array.length a.table in
  let table = Array.make cap 0 in
  for s = 0 to a.n_slots - 1 do
    insert table (cap - 1) a.hash.(s) s
  done;
  a.table <- table

let add a b nbytes len_bits h =
  if a.used + nbytes > Bytes.length a.buf then begin
    let cap = Stdlib.max (a.used + nbytes) (2 * Bytes.length a.buf) in
    let bigger = Bytes.create cap in
    Bytes.blit a.buf 0 bigger 0 a.used;
    a.buf <- bigger
  end;
  Bytes.blit b 0 a.buf a.used nbytes;
  if a.n_slots = Array.length a.off then begin
    let grow arr = Array.append arr (Array.make a.n_slots 0) in
    a.off <- grow a.off;
    a.len_bits <- grow a.len_bits;
    a.hash <- grow a.hash;
    let seen = Bytes.make (2 * a.n_slots) '\000' in
    Bytes.blit a.seen 0 seen 0 a.n_slots;
    a.seen <- seen
  end;
  let slot = a.n_slots in
  a.off.(slot) <- a.used;
  a.len_bits.(slot) <- len_bits;
  a.hash.(slot) <- h;
  a.used <- a.used + nbytes;
  a.n_slots <- slot + 1;
  if 2 * a.n_slots > Array.length a.table then grow_table a
  else insert a.table (Array.length a.table - 1) h slot;
  slot

(* A cell whose hash, bit length and bytes all match is the same
   encoding; any other cell is skipped, so a hash collision costs a byte
   compare but never merges two symbols. *)
let intern a encode msg =
  let w = a.writer in
  Bitio.Bit_writer.reset w;
  encode w msg;
  let len_bits = Bitio.Bit_writer.length w in
  let b = Bitio.Bit_writer.padded_bytes w in
  let nbytes = (len_bits + 7) / 8 in
  let h = hash_bytes len_bits b nbytes in
  let table = a.table in
  let mask = Array.length table - 1 in
  let i = ref (h land mask) in
  let found = ref (-1) in
  while !found < 0 do
    let cell = Array.unsafe_get table !i in
    if cell = 0 then found := add a b nbytes len_bits h
    else begin
      let slot = cell - 1 in
      if
        a.hash.(slot) = h
        && a.len_bits.(slot) = len_bits
        && same_bytes a slot b nbytes
      then found := slot
      else i := (!i + 1) land mask
    end
  done;
  !found
