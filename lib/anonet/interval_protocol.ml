module Is = Intervals.Iset

module Make (M : sig
  val name : string
  val assign_label : bool
end) =
struct
  type state = Interval_core.t

  (* (alpha, beta) — both components of Sigma's symbols. *)
  type message = Is.t * Is.t

  let name = M.name

  let initial_state ~out_degree ~in_degree:_ = Interval_core.create ~out_degree

  (* A multi-out-edge root canonically partitions [0,1) across its ports
     (the root itself takes no label even in labeling mode — it has no
     incoming edge to trigger one, matching Section 5). *)
  let root_emit ~out_degree =
    if out_degree = 0 then []
    else
      List.mapi
        (fun j part -> (j, (part, Is.empty)))
        (Is.canonical_partition Is.unit out_degree)

  (* Consecutive sends whose components are physically equal (a beta
     flood: every port gets [(empty, d_beta)]) share one message value, so
     the engine's pointer memo encodes it once. *)
  let rec share ((a, b) as prev) = function
    | [] -> []
    | (o : Interval_core.outgoing) :: rest ->
        let m =
          if a == o.d_alpha && b == o.d_beta then prev else (o.d_alpha, o.d_beta)
        in
        (o.port, m) :: share m rest

  let receive ~out_degree:_ ~in_degree:_ st (alpha, beta) ~in_port:_ =
    let st', outs = Interval_core.step ~assign_label:M.assign_label st ~alpha ~beta in
    ( st',
      match outs with
      | [] -> []
      | o :: rest ->
          let m = (o.d_alpha, o.d_beta) in
          (o.port, m) :: share m rest )

  let accepting = Interval_core.accepting

  let encode w (alpha, beta) =
    Is.write w alpha;
    Is.write w beta

  let decode r =
    let alpha = Is.read r in
    let beta = Is.read r in
    (alpha, beta)

  let equal_message (a1, b1) (a2, b2) = Is.equal a1 a2 && Is.equal b1 b2

  let state_bits (st : state) = st.bits

  let pp_message fmt (alpha, beta) =
    Format.fprintf fmt "alpha=%s beta=%s" (Is.to_string alpha) (Is.to_string beta)

  let pp_state fmt (st : state) =
    Format.fprintf fmt "init=%b beta=%s label=%s covered=%s" st.initialized
      (Is.to_string st.beta) (Is.to_string st.label)
      (Is.to_string (Interval_core.covered st))

  let digest = Interval_core.digest

  (* The Section 4 analogue of the linear cut is a {e linearity} law, not a
     sum: each point of [0,1) lives in at most one place — an in-flight
     alpha, an internal vertex's kept label, or an absorbing (out-degree-0)
     vertex's [seen_alpha].  Cycle detection moves alpha into beta (which
     floods and duplicates freely), so completeness cannot be asserted
     mid-run, but an overlap is exactly the duplication bug the checker
     hunts: the accumulator carries the running union plus a disjointness
     flag. *)
  let conservation =
    Some
      (Runtime.Protocol_intf.Conservation
         {
           zero = (Is.empty, true);
           add =
             (fun (a, ok) (b, ok') ->
               (Is.union a b, ok && ok' && Is.disjoint a b));
           of_message = (fun (alpha, _beta) -> (alpha, true));
           retained =
             (fun ~out_degree ~in_degree:_ (st : state) ->
               if out_degree = 0 then (st.Interval_core.seen_alpha, true)
               else (st.Interval_core.label, true));
           check =
             (fun (_total, ok) ->
               if ok then Ok ()
               else Error "alpha commodity duplicated across the cut");
         })

  let vertex_invariant =
    Some (fun ~out_degree:_ ~in_degree:_ st -> Interval_core.invariant st)

  let label (st : state) = st.label
  let covered = Interval_core.covered
end
