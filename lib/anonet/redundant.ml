module Seen = Set.Make (String)

module Make
    (K : sig
      val k : int
    end)
    (P : Runtime.Protocol_intf.PROTOCOL) =
struct
  let () = if K.k < 1 then invalid_arg "Redundant.Make: k must be >= 1"

  type state = { inner : P.state; seen : Seen.t; seen_bits : int }
  type message = P.message

  let name = Printf.sprintf "%s+r%d" P.name K.k

  let initial_state ~out_degree ~in_degree =
    { inner = P.initial_state ~out_degree ~in_degree; seen = Seen.empty; seen_bits = 0 }

  let repeat sends =
    if K.k = 1 then sends
    else List.concat_map (fun s -> List.init K.k (fun _ -> s)) sends

  let root_emit ~out_degree = repeat (P.root_emit ~out_degree)

  (* Dedup key: the copy's in-port plus its exact wire encoding — the only
     identity an anonymous receiver can assign to a message. *)
  let key msg ~in_port =
    let w = Bitio.Bit_writer.create () in
    P.encode w msg;
    Printf.sprintf "%d|%d:%s" in_port
      (Bitio.Bit_writer.length w)
      (Bitio.Bit_writer.to_string w)

  let receive ~out_degree ~in_degree st msg ~in_port =
    let k = key msg ~in_port in
    if Seen.mem k st.seen then (st, [])
    else
      let inner', sends = P.receive ~out_degree ~in_degree st.inner msg ~in_port in
      ( {
          inner = inner';
          seen = Seen.add k st.seen;
          seen_bits = st.seen_bits + (8 * String.length k);
        },
        repeat sends )

  let accepting st = P.accepting st.inner

  (* A 16-bit checksum (bit-length mixed with an xor-fold of the packed
     bytes) rides ahead of the base encoding.  A single flipped wire bit
     either lands in the checksum, or changes one packed byte, or changes
     how many bits [P.decode] consumes — each case breaks the equation
     below, so the flip is detected, the decode fails, and the engine
     degrades the corruption into a drop that the k repetitions heal. *)
  let checksum s len =
    let c = ref (len land 0xFFFF) in
    String.iteri
      (fun i ch -> c := !c lxor (Char.code ch lsl (8 * (i land 1))))
      s;
    !c land 0xFFFF

  let encode w msg =
    let inner = Bitio.Bit_writer.create () in
    P.encode inner msg;
    let s = Bitio.Bit_writer.to_string inner in
    let len = Bitio.Bit_writer.length inner in
    Bitio.Bit_writer.bits w (checksum s len) 16;
    for i = 0 to (len / 8) - 1 do
      Bitio.Bit_writer.bits w (Char.code s.[i]) 8
    done;
    let tail = len mod 8 in
    if tail > 0 then
      Bitio.Bit_writer.bits w (Char.code s.[len / 8] lsr (8 - tail)) tail

  let decode r =
    let c = Bitio.Bit_reader.bits r 16 in
    let msg = P.decode r in
    (* The reader does not expose the raw bits it consumed, but the base
       codec is canonical (verify_codec-tested), so re-encoding the decoded
       message reconstructs them exactly. *)
    let inner = Bitio.Bit_writer.create () in
    P.encode inner msg;
    if
      checksum (Bitio.Bit_writer.to_string inner) (Bitio.Bit_writer.length inner)
      <> c
    then raise Runtime.Protocol_intf.Checksum_reject;
    msg

  let equal_message = P.equal_message

  (* The dedup table is real per-vertex memory; charge it. *)
  let state_bits st = P.state_bits st.inner + st.seen_bits

  let pp_message = P.pp_message

  let pp_state fmt st =
    Format.fprintf fmt "%a (dedup %d)" P.pp_state st.inner (Seen.cardinal st.seen)

  let inner st = st.inner
  let dedup_entries st = Seen.cardinal st.seen
end
