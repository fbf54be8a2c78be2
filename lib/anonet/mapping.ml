module I = Intervals.Interval
module Is = Intervals.Iset

type sender_id = Root | Labeled of I.t

let compare_sender_id a b =
  match (a, b) with
  | Root, Root -> 0
  | Root, Labeled _ -> -1
  | Labeled _, Root -> 1
  | Labeled x, Labeled y -> I.compare x y

type announcement = { ann_who : sender_id; ann_out : int; ann_in : int }

let compare_announcement a b =
  let c = compare_sender_id a.ann_who b.ann_who in
  if c <> 0 then c
  else Stdlib.compare (a.ann_out, a.ann_in) (b.ann_out, b.ann_in)

type fact = { src : sender_id; src_port : int; dst : I.t; dst_port : int }

let compare_fact a b =
  let c = compare_sender_id a.src b.src in
  if c <> 0 then c
  else begin
    let c = Stdlib.compare a.src_port b.src_port in
    if c <> 0 then c
    else begin
      let c = I.compare a.dst b.dst in
      if c <> 0 then c else Stdlib.compare a.dst_port b.dst_port
    end
  end

module Ann_set = Set.Make (struct
  type t = announcement

  let compare = compare_announcement
end)

module Fact_set = Set.Make (struct
  type t = fact

  let compare = compare_fact
end)

type state = {
  core : Interval_core.t;
  my_label : I.t option;
  (* Per in-port: sender identity and sender out-port, once learned. *)
  in_info : (sender_id * int) option array;
  anns : Ann_set.t;
  facts : Fact_set.t;
  (* Edge endpoints recorded by out-degree-0 vertices (t and dead ends):
     (sender, sender out-port, local in-port). *)
  local_ends : (sender_id * int * int) list;
  in_degree : int;
}

type message = {
  m_alpha : Is.t;
  m_beta : Is.t;
  m_anns : announcement list;
  m_facts : fact list;
  m_sender : sender_id option;
  m_sender_port : int;
}

let name = "mapping"

let initial_state ~out_degree ~in_degree =
  {
    core = Interval_core.create ~out_degree;
    my_label = None;
    in_info = Array.make (max in_degree 1) None;
    anns = Ann_set.empty;
    facts = Fact_set.empty;
    local_ends = [];
    in_degree;
  }

let root_emit ~out_degree =
  if out_degree = 0 then []
  else
    List.mapi
      (fun j part ->
        ( j,
          {
            m_alpha = part;
            m_beta = Is.empty;
            (* The root cannot be labeled, but sigma0 can carry its own
               degree announcement so the terminal knows how many Root
               facts to wait for (multi-out-degree-root extension). *)
            m_anns = [ { ann_who = Root; ann_out = out_degree; ann_in = 0 } ];
            m_facts = [];
            m_sender = Some Root;
            m_sender_port = j;
          } ))
      (Is.canonical_partition Is.unit out_degree)

(* A fact for in-port [k] can be minted once both endpoint identities are
   known. *)
let mint_facts st out_degree =
  match st.my_label with
  | None -> st
  | Some label when out_degree > 0 ->
      let facts = ref st.facts in
      Array.iteri
        (fun k info ->
          match info with
          | Some (src, src_port) ->
              facts := Fact_set.add { src; src_port; dst = label; dst_port = k } !facts
          | None -> ())
        st.in_info;
      { st with facts = !facts }
  | Some _ -> st

let receive ~out_degree ~in_degree st msg ~in_port =
  let core', core_outs =
    Interval_core.step ~assign_label:true st.core ~alpha:msg.m_alpha ~beta:msg.m_beta
  in
  (* Learn the sender behind this in-port (fixed once known). *)
  let st =
    match (msg.m_sender, st.in_info.(in_port)) with
    | Some sid, None ->
        let in_info = Array.copy st.in_info in
        in_info.(in_port) <- Some (sid, msg.m_sender_port);
        let local_ends =
          if out_degree = 0 then (sid, msg.m_sender_port, in_port) :: st.local_ends
          else st.local_ends
        in
        { st with in_info; local_ends }
    | _ -> st
  in
  (* Adopt the label the instant the core assigns one. *)
  let st =
    match (st.my_label, Is.first_interval core'.label) with
    | None, Some iv when out_degree > 0 -> { st with my_label = Some iv }
    | _ -> st
  in
  let anns_before = st.anns and facts_before = st.facts in
  (* Merge flooded knowledge. *)
  let st =
    {
      st with
      core = core';
      anns = List.fold_left (fun s a -> Ann_set.add a s) st.anns msg.m_anns;
      facts = List.fold_left (fun s f -> Fact_set.add f s) st.facts msg.m_facts;
    }
  in
  (* Announce ourselves on labeling. *)
  let st =
    match st.my_label with
    | Some label when out_degree > 0 ->
        {
          st with
          anns =
            Ann_set.add
              { ann_who = Labeled label; ann_out = out_degree; ann_in = in_degree }
              st.anns;
        }
    | _ -> st
  in
  let st = mint_facts st out_degree in
  let d_anns = Ann_set.elements (Ann_set.diff st.anns anns_before) in
  let d_facts = Fact_set.elements (Fact_set.diff st.facts facts_before) in
  let sender = Option.map (fun iv -> Labeled iv) st.my_label in
  (* Combine the core's per-port alpha/beta deltas with the flooded
     announcement/fact deltas (which go out on every port). *)
  let port_core = Array.make out_degree (Is.empty, Is.empty) in
  List.iter
    (fun (o : Interval_core.outgoing) -> port_core.(o.port) <- (o.d_alpha, o.d_beta))
    core_outs;
  let flood_knowledge = d_anns <> [] || d_facts <> [] in
  let sends = ref [] in
  for port = out_degree - 1 downto 0 do
    let d_alpha, d_beta = port_core.(port) in
    if flood_knowledge || not (Is.is_empty d_alpha && Is.is_empty d_beta) then
      sends :=
        ( port,
          {
            m_alpha = d_alpha;
            m_beta = d_beta;
            m_anns = d_anns;
            m_facts = d_facts;
            m_sender = sender;
            m_sender_port = port;
          } )
        :: !sends
  done;
  (st, !sends)

(* Facts (flooded and locally recorded) whose source is [sid]. *)
let known_out_edges st sid =
  Fact_set.fold (fun f acc -> if compare_sender_id f.src sid = 0 then acc + 1 else acc)
    st.facts 0
  + List.length
      (List.filter (fun (s, _, _) -> compare_sender_id s sid = 0) st.local_ends)

let accepting st =
  Interval_core.accepting st.core
  && Ann_set.exists (fun a -> a.ann_who = Root) st.anns
  && Ann_set.for_all (fun a -> known_out_edges st a.ann_who = a.ann_out) st.anns

let encode_sender_id w sid =
  match sid with
  | Root -> Bitio.Bit_writer.bit w false
  | Labeled iv ->
      Bitio.Bit_writer.bit w true;
      I.write w iv

let encode w msg =
  Is.write w msg.m_alpha;
  Is.write w msg.m_beta;
  Bitio.Codes.write_gamma0 w (List.length msg.m_anns);
  List.iter
    (fun a ->
      encode_sender_id w a.ann_who;
      Bitio.Codes.write_gamma0 w a.ann_out;
      Bitio.Codes.write_gamma0 w a.ann_in)
    msg.m_anns;
  Bitio.Codes.write_gamma0 w (List.length msg.m_facts);
  List.iter
    (fun f ->
      encode_sender_id w f.src;
      Bitio.Codes.write_gamma0 w f.src_port;
      I.write w f.dst;
      Bitio.Codes.write_gamma0 w f.dst_port)
    msg.m_facts;
  (match msg.m_sender with
  | None -> Bitio.Bit_writer.bit w false
  | Some sid ->
      Bitio.Bit_writer.bit w true;
      encode_sender_id w sid);
  Bitio.Codes.write_gamma0 w msg.m_sender_port

let decode_sender_id r =
  if Bitio.Bit_reader.bit r then Labeled (I.read r) else Root

let decode r =
  let m_alpha = Is.read r in
  let m_beta = Is.read r in
  let read_list read_one =
    let n = Bitio.Codes.read_gamma0 r in
    let rec go acc k = if k = 0 then List.rev acc else go (read_one () :: acc) (k - 1) in
    go [] n
  in
  let m_anns =
    read_list (fun () ->
        let ann_who = decode_sender_id r in
        let ann_out = Bitio.Codes.read_gamma0 r in
        let ann_in = Bitio.Codes.read_gamma0 r in
        { ann_who; ann_out; ann_in })
  in
  let m_facts =
    read_list (fun () ->
        let src = decode_sender_id r in
        let src_port = Bitio.Codes.read_gamma0 r in
        let dst = I.read r in
        let dst_port = Bitio.Codes.read_gamma0 r in
        { src; src_port; dst; dst_port })
  in
  let m_sender =
    if Bitio.Bit_reader.bit r then Some (decode_sender_id r) else None
  in
  let m_sender_port = Bitio.Codes.read_gamma0 r in
  { m_alpha; m_beta; m_anns; m_facts; m_sender; m_sender_port }

let equal_message a b =
  Is.equal a.m_alpha b.m_alpha
  && Is.equal a.m_beta b.m_beta
  && List.equal (fun x y -> compare_announcement x y = 0) a.m_anns b.m_anns
  && List.equal (fun x y -> compare_fact x y = 0) a.m_facts b.m_facts
  && Option.equal (fun x y -> compare_sender_id x y = 0) a.m_sender b.m_sender
  && a.m_sender_port = b.m_sender_port

let interval_bits = I.size_bits

let state_bits st =
  let core_bits = st.core.Interval_core.bits in
  let ann_bits =
    Ann_set.fold
      (fun a acc ->
        acc + 32
        + (match a.ann_who with Root -> 1 | Labeled iv -> 1 + interval_bits iv))
      st.anns 0
  in
  let fact_bits =
    Fact_set.fold
      (fun f acc ->
        acc + interval_bits f.dst + 32
        + (match f.src with Root -> 1 | Labeled iv -> 1 + interval_bits iv))
      st.facts 0
  in
  let table_bits =
    Array.fold_left
      (fun acc info ->
        match info with
        | None -> acc + 1
        | Some (Root, _) -> acc + 17
        | Some (Labeled iv, _) -> acc + 17 + interval_bits iv)
      0 st.in_info
  in
  core_bits + ann_bits + fact_bits + table_bits + (48 * List.length st.local_ends)

let pp_message fmt msg =
  Format.fprintf fmt "alpha=%s beta=%s anns=%d facts=%d" (Is.to_string msg.m_alpha)
    (Is.to_string msg.m_beta) (List.length msg.m_anns) (List.length msg.m_facts)

let pp_state fmt st =
  Format.fprintf fmt "label=%s anns=%d facts=%d covered=%s"
    (match st.my_label with Some iv -> I.to_string iv | None -> "-")
    (Ann_set.cardinal st.anns) (Fact_set.cardinal st.facts)
    (Is.to_string (Interval_core.covered st.core))

let sender_id_key = function
  | Root -> "R"
  | Labeled iv -> "L" ^ I.to_string iv

let digest st =
  let c = Runtime.Canonical.create () in
  Runtime.Canonical.add_string c (Interval_core.digest st.core);
  Runtime.Canonical.add_string c
    (match st.my_label with None -> "-" | Some iv -> I.to_string iv);
  Runtime.Canonical.add_int c (Array.length st.in_info);
  Array.iter
    (fun info ->
      Runtime.Canonical.add_string c
        (match info with
        | None -> "-"
        | Some (sid, port) -> sender_id_key sid ^ "@" ^ string_of_int port))
    st.in_info;
  (* Set iteration is already canonical (element order); [local_ends] is a
     cons-order list, so sort its rendering. *)
  Runtime.Canonical.add_int c (Ann_set.cardinal st.anns);
  Ann_set.iter
    (fun a ->
      Runtime.Canonical.add_string c
        (Printf.sprintf "%s/%d/%d" (sender_id_key a.ann_who) a.ann_out a.ann_in))
    st.anns;
  Runtime.Canonical.add_int c (Fact_set.cardinal st.facts);
  Fact_set.iter
    (fun f ->
      Runtime.Canonical.add_string c
        (Printf.sprintf "%s/%d>%s/%d" (sender_id_key f.src) f.src_port
           (I.to_string f.dst) f.dst_port))
    st.facts;
  Runtime.Canonical.add_sorted_strings c
    (List.map
       (fun (sid, sp, ip) ->
         Printf.sprintf "%s/%d/%d" (sender_id_key sid) sp ip)
       st.local_ends);
  Runtime.Canonical.contents c

(* Same linearity law as {!Interval_protocol}: the alpha commodity rides the
   labeling core unchanged; announcements and facts flood like beta and are
   exempt. *)
let conservation =
  Some
    (Runtime.Protocol_intf.Conservation
       {
         zero = (Is.empty, true);
         add =
           (fun (a, ok) (b, ok') -> (Is.union a b, ok && ok' && Is.disjoint a b));
         of_message = (fun m -> (m.m_alpha, true));
         retained =
           (fun ~out_degree ~in_degree:_ st ->
             if out_degree = 0 then (st.core.Interval_core.seen_alpha, true)
             else (st.core.Interval_core.label, true));
         check =
           (fun (_total, ok) ->
             if ok then Ok ()
             else Error "alpha commodity duplicated across the cut");
       })

let vertex_invariant =
  Some (fun ~out_degree:_ ~in_degree:_ st -> Interval_core.invariant st.core)

let vertex_label st = st.my_label
let announcements st = Ann_set.elements st.anns
let facts st = Fact_set.elements st.facts

type network_map = { graph : Digraph.t; labels : I.t option array }

let extract_map st =
  if not (accepting st) then Error "terminal state is not accepting"
  else begin
    let root_ann, anns =
      List.partition (fun a -> a.ann_who = Root) (Ann_set.elements st.anns)
    in
    let k = List.length anns in
    (* s = 0, internal vertices 1..k in label order, t = k+1. *)
    let t_id = k + 1 in
    let id_of_label =
      let tbl = Hashtbl.create 16 in
      List.iteri
        (fun i a ->
          match a.ann_who with
          | Labeled iv -> Hashtbl.add tbl (I.to_string iv) (i + 1)
          | Root -> ())
        anns;
      tbl
    in
    let id_of_sender = function
      | Root -> Some 0
      | Labeled iv -> Hashtbl.find_opt id_of_label (I.to_string iv)
    in
    let exception Bad of string in
    try
      (* Out-edge target per (source id, out port). *)
      let out_deg = Array.make (k + 2) 0 in
      out_deg.(0) <-
        (match root_ann with
        | [ a ] -> a.ann_out
        | _ -> raise (Bad "expected exactly one root announcement"));
      List.iteri (fun i a -> out_deg.(i + 1) <- a.ann_out) anns;
      let targets = Array.init (k + 2) (fun v -> Array.make out_deg.(v) (-1)) in
      let record src port dst =
        match id_of_sender src with
        | None -> raise (Bad "fact references an unannounced label")
        | Some sid ->
            if port < 0 || port >= out_deg.(sid) then
              raise (Bad "fact port out of range");
            if targets.(sid).(port) <> -1 then raise (Bad "duplicate fact for port");
            targets.(sid).(port) <- dst
      in
      Fact_set.iter
        (fun f ->
          match Hashtbl.find_opt id_of_label (I.to_string f.dst) with
          | None -> raise (Bad "fact destination not announced")
          | Some dst -> record f.src f.src_port dst)
        st.facts;
      List.iter (fun (src, port, _in_port) -> record src port t_id) st.local_ends;
      let edges = ref [] in
      for v = k + 1 downto 0 do
        for j = out_deg.(v) - 1 downto 0 do
          if targets.(v).(j) = -1 then raise (Bad "missing fact for an out-port");
          edges := (v, targets.(v).(j)) :: !edges
        done
      done;
      let graph = Digraph.make ~n:(k + 2) ~s:0 ~t:t_id !edges in
      let labels = Array.make (k + 2) None in
      List.iteri
        (fun i a ->
          match a.ann_who with
          | Labeled iv -> labels.(i + 1) <- Some iv
          | Root -> ())
        anns;
      Ok { graph; labels }
    with Bad reason -> Error reason
  end

let map_isomorphic m ground_truth = Digraph.isomorphic m.graph ground_truth
