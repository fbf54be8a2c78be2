(* General broadcast's operands, captured in the traced round (every
   [every]-th receive) and replayed through the intervals, exact, bignat and
   bitio layers, so each operation is priced on the operand sizes the
   protocol really produces.  The replays mirror Interval_core.step: union
   of what was seen with the arrival, diff/inter of the arrival against
   what was already sent, the canonical partition of a first arrival, and
   the wire codec of the message. *)

module Is = Intervals.Iset
module Iv = Intervals.Interval
module D = Exact.Dyadic

type sample = { st : Anonet.Interval_core.t; alpha : Is.t; beta : Is.t }

let every = 16
let capturing = ref false
let counter = ref 0
let samples : sample list ref = ref []

module Capture_general = struct
  let capture st (alpha, beta) =
    if !capturing then begin
      if !counter mod every = 0 then samples := { st; alpha; beta } :: !samples;
      incr counter
    end
end

let min_seconds = 0.2

(* ns per call of [op] over [items], cycling through them for at least
   [min_seconds]. *)
let price items op =
  let n = Array.length items in
  if n = 0 then 0.0
  else begin
    let calls = ref 0 in
    let t0 = Clock.now_ns () in
    let deadline = t0 + int_of_float (min_seconds *. 1e9) in
    while Clock.now_ns () < deadline do
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (op items.(i)))
      done;
      calls := !calls + n
    done;
    float_of_int (Clock.now_ns () - t0) /. float_of_int !calls
  end

let endpoints s =
  List.concat_map (fun iv -> [ Iv.lo iv; Iv.hi iv ]) (Is.intervals s)

(* Fills the intervals/exact/bignat/bitio layers; all read 0 when nothing
   was captured (the workload runs no general broadcast). *)
let layers set =
  let all = List.rev !samples in
  let f = float_of_int and arr = Array.of_list in
  let out_degree s = Array.length s.st.alpha in
  let unions = List.map (fun s -> (s.st.seen_alpha, s.alpha)) all in
  let against_sent =
    List.filter_map
      (fun s ->
        if s.st.initialized then
          Some (s.alpha, Array.fold_left Is.union Is.empty s.st.alpha)
        else None)
      all
  in
  let firsts =
    List.filter
      (fun s ->
        (not s.st.initialized) && out_degree s > 0 && not (Is.is_empty s.alpha))
      all
  in
  set "intervals.iset.union_ns" (price (arr unions) (fun (a, b) -> Is.union a b));
  set "intervals.iset.diff_ns" (price (arr against_sent) (fun (a, b) -> Is.diff a b));
  set "intervals.iset.inter_ns" (price (arr against_sent) (fun (a, b) -> Is.inter a b));
  set "intervals.iset.canonical_partition_ns"
    (price
       (arr (List.map (fun s -> (s.alpha, out_degree s)) firsts))
       (fun (a, d) -> Is.canonical_partition a d));
  set "intervals.interval.split_ns"
    (price
       (arr
          (List.filter_map
             (fun s ->
               Option.map (fun iv -> (iv, out_degree s)) (Is.first_interval s.alpha))
             firsts))
       (fun (iv, d) -> Iv.split iv d));
  set "intervals.iset.operand_count_mean"
    (Stats.mean (List.concat_map (fun (a, b) -> [ f (Is.count a); f (Is.count b) ]) unions));
  let ends =
    arr
      (List.concat_map
         (fun s -> endpoints s.alpha @ endpoints s.beta @ endpoints s.st.seen_alpha)
         all)
  in
  let n = Array.length ends in
  let pairs = Array.init n (fun i -> (ends.(i), ends.((i + 1) mod n))) in
  set "exact.dyadic.compare_ns" (price pairs (fun (a, b) -> D.compare a b));
  set "exact.dyadic.add_ns" (price pairs (fun (a, b) -> D.add a b));
  set "exact.dyadic.endpoint_bits_mean"
    (Stats.mean (List.map (fun d -> f (D.bit_size d)) (Array.to_list ends)));
  let mantissas = Array.map (fun (a, b) -> (D.mantissa a, D.mantissa b)) pairs in
  set "bignat.add_ns" (price mantissas (fun (a, b) -> Bignat.add a b));
  set "bignat.compare_ns" (price mantissas (fun (a, b) -> Bignat.compare a b));
  (* The protocol's codec: alpha then beta. *)
  let encode (alpha, beta) =
    let w = Bitio.Bit_writer.create () in
    Is.write w alpha;
    Is.write w beta;
    w
  in
  let messages = arr (List.map (fun s -> (s.alpha, s.beta)) all) in
  let wire =
    Array.map
      (fun m ->
        let w = encode m in
        (Bitio.Bit_writer.to_string w, Bitio.Bit_writer.length w))
      messages
  in
  let bits = Array.fold_left (fun acc (_, l) -> acc + l) 0 wire in
  let per_bit ns = Stats.ratio (ns *. f (Array.length wire)) (f bits) in
  set "bitio.iset_write_ns_per_bit" (per_bit (price messages encode));
  set "bitio.iset_read_ns_per_bit"
    (per_bit
       (price wire (fun (s, length_bits) ->
            let r = Bitio.Bit_reader.of_string ~length_bits s in
            let a = Is.read r in
            (a, Is.read r))))

let start () =
  samples := [];
  counter := 0;
  capturing := true

let stop () = capturing := false
