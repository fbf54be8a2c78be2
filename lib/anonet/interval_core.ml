module Is = Intervals.Iset

type t = {
  initialized : bool;
  alpha : Is.t array;
  beta : Is.t;
  label : Is.t;
  seen_alpha : Is.t;
  sent : Is.t;
  bits : int;
}

type outgoing = { port : int; d_alpha : Is.t; d_beta : Is.t }

(* The state-size measure: every behavioral component's encoded size plus
   one byte for the flag and the out-degree. *)
let size_bits ~alpha ~beta ~label ~seen_alpha =
  Array.fold_left
    (fun acc a -> acc + Is.size_bits a)
    (Is.size_bits beta + Is.size_bits label + Is.size_bits seen_alpha + 8)
    alpha

let create ~out_degree =
  let alpha = Array.make out_degree Is.empty in
  {
    initialized = false;
    alpha;
    beta = Is.empty;
    label = Is.empty;
    seen_alpha = Is.empty;
    sent = Is.empty;
    bits = size_bits ~alpha ~beta:Is.empty ~label:Is.empty ~seen_alpha:Is.empty;
  }

(* [bits] adjusted for one component that went from [old] to [now]; a
   component a step did not touch is physically the same value. *)
let resize bits old now =
  if old == now then bits else bits - Is.size_bits old + Is.size_bits now

(* Flood a beta delta on every port (no alpha news anywhere). *)
let beta_flood_sends d d_beta =
  if Is.is_empty d_beta then []
  else List.init d (fun port -> { port; d_alpha = Is.empty; d_beta })

(* Merge [extra] into [beta]: the grown beta and the part of [extra] that
   is new to it.  When nothing is new, [beta] is returned as it is. *)
let grow beta extra =
  let d_beta = Is.diff extra beta in
  ((if Is.is_empty d_beta then beta else Is.union beta d_beta), d_beta)

let step ~assign_label state ~alpha:alpha' ~beta:beta' =
  let d = Array.length state.alpha in
  let seen_alpha = Is.union state.seen_alpha alpha' in
  let bits = resize state.bits state.seen_alpha seen_alpha in
  if d = 0 then begin
    (* Terminal-like vertex: absorb.  In labeling mode the first non-empty
       arrival doubles as its (whole) label. *)
    let label =
      if assign_label && (not state.initialized) && not (Is.is_empty alpha')
      then alpha'
      else state.label
    in
    let initialized = state.initialized || not (Is.is_empty alpha') in
    let beta, _ = grow state.beta beta' in
    let bits = resize (resize bits state.label label) state.beta beta in
    ({ state with initialized; beta; label; seen_alpha; bits }, [])
  end
  else if (not state.initialized) && not (Is.is_empty alpha') then begin
    (* First real commodity: canonical partition (Definition 4.1). *)
    let parts = Is.canonical_partition alpha' (if assign_label then d + 1 else d) in
    let label, port_parts =
      if assign_label then
        match parts with
        | lbl :: rest -> (lbl, Array.of_list rest)
        | [] -> assert false
      else (Is.empty, Array.of_list parts)
    in
    (* In labeling mode the label is immediately beta-flooded (Section 5:
       beta'' = beta' union alpha_0), so the terminal can account for it. *)
    let beta, d_beta = grow state.beta (Is.union beta' label) in
    let sends =
      List.init d (fun port ->
          { port; d_alpha = port_parts.(port); d_beta })
    in
    (* The label and the port parts partition [alpha'] exactly. *)
    ( {
        initialized = true;
        alpha = port_parts;
        beta;
        label;
        seen_alpha;
        sent = alpha';
        bits = size_bits ~alpha:port_parts ~beta ~label ~seen_alpha;
      },
      sends )
  end
  else if not state.initialized then begin
    (* Beta-only traffic before initialization: merge and relay. *)
    let beta, d_beta = grow state.beta beta' in
    let bits = resize bits state.beta beta in
    ({ state with beta; seen_alpha; bits }, beta_flood_sends d d_beta)
  end
  else begin
    (* Initialized: unseen alpha continues on the last port; already-sent
       alpha is a detected cycle and joins beta (Section 4's f). *)
    let new_alpha = Is.diff alpha' state.sent in
    let cycles = Is.inter alpha' state.sent in
    let beta, d_beta = grow state.beta (Is.union beta' cycles) in
    let bits = resize bits state.beta beta in
    let last = d - 1 in
    (* States never mutate [alpha] once built, so it can be shared. *)
    let alpha, bits =
      if Is.is_empty new_alpha then (state.alpha, bits)
      else begin
        let alpha = Array.copy state.alpha in
        alpha.(last) <- Is.union alpha.(last) new_alpha;
        (alpha, resize bits state.alpha.(last) alpha.(last))
      end
    in
    let sends =
      if Is.is_empty d_beta then
        if Is.is_empty new_alpha then []
        else [ { port = last; d_alpha = new_alpha; d_beta = Is.empty } ]
      else
        List.init d (fun port ->
            { port; d_alpha = (if port = last then new_alpha else Is.empty); d_beta })
    in
    ( { state with alpha; beta; seen_alpha; sent = Is.union state.sent new_alpha; bits },
      sends )
  end

(* Canonical fingerprint for the model checker: every behavioral field
   ([alpha] gates cycle detection, [seen_alpha] only feeds [covered] at
   absorbing vertices but is cheap and keeps the digest obviously
   injective); the derived [sent] and [bits] are left out.  [Is.to_string]
   prints the normal form, so equal sets print equally. *)
let digest state =
  let c = Runtime.Canonical.create () in
  Runtime.Canonical.add_bool c state.initialized;
  Runtime.Canonical.add_int c (Array.length state.alpha);
  Array.iter (fun a -> Runtime.Canonical.add_string c (Is.to_string a)) state.alpha;
  Runtime.Canonical.add_string c (Is.to_string state.beta);
  Runtime.Canonical.add_string c (Is.to_string state.label);
  Runtime.Canonical.add_string c (Is.to_string state.seen_alpha);
  Runtime.Canonical.contents c

let covered state = Is.union state.seen_alpha state.beta

let accepting state = Is.union_is_unit state.seen_alpha state.beta

let invariant ?prev state =
  let d = Array.length state.alpha in
  let pairwise_disjoint =
    let ok = ref true in
    for i = 0 to d - 1 do
      if not (Is.disjoint state.alpha.(i) state.label) then ok := false;
      for j = i + 1 to d - 1 do
        if not (Is.disjoint state.alpha.(i) state.alpha.(j)) then ok := false
      done
    done;
    !ok
  in
  let monotone =
    match prev with
    | None -> true
    | Some p ->
        Array.length p.alpha = d
        && Array.for_all2 (fun a b -> Is.subset a b) p.alpha state.alpha
        && Is.subset p.beta state.beta
        && Is.subset p.label state.label
        && Is.subset p.seen_alpha state.seen_alpha
        && (p.initialized <= state.initialized)
  in
  let sent_derived =
    d = 0 || Is.equal state.sent (Array.fold_left Is.union state.label state.alpha)
  in
  let bits_derived =
    state.bits
    = size_bits ~alpha:state.alpha ~beta:state.beta ~label:state.label
        ~seen_alpha:state.seen_alpha
  in
  pairwise_disjoint && sent_derived && bits_derived && monotone
