type violation_kind =
  | False_termination of int list
  | Premature_quiescence
  | Conservation_violation of string
  | Local_invariant_violation of int

type violation = { kind : violation_kind; schedule : int list }

type stats = {
  states : int;
  transitions : int;
  pruned_sleep : int;
  pruned_memo : int;
  pruned_dup : int;
  peak_depth : int;
  max_in_flight : int;
  truncated : bool;
  walks : int;
  walk_deliveries : int;
}

type result = { stats : stats; violations : violation list }

let pruned_fraction st =
  let pruned = st.pruned_sleep + st.pruned_memo + st.pruned_dup in
  let considered = st.transitions + pruned in
  if considered = 0 then 0.0
  else float_of_int pruned /. float_of_int considered

let describe_kind = function
  | False_termination unreached ->
      Printf.sprintf "false termination (unvisited: %s)"
        (String.concat "," (List.map string_of_int unreached))
  | Premature_quiescence -> "premature quiescence (no message left, not accepting)"
  | Conservation_violation msg -> "conservation law broken: " ^ msg
  | Local_invariant_violation v ->
      Printf.sprintf "vertex invariant broken at vertex %d" v

type replay = {
  r_outcome : Engine.outcome;
  r_deliveries : int;
  r_unreached : int list;
  r_trace : string;
}

exception Abort
exception Budget

module Make (P : Protocol_intf.CHECKABLE) = struct
  module E = Engine.Make (P)

  type flight = {
    seq : int;
    edge : int;
    tv : Digraph.vertex;
    tp : int;
    msg : P.message;
    enc : string;  (** Length-prefixed wire encoding: the message's identity. *)
  }

  (* A global configuration.  [next_seq] replicates the engine's send
     numbering exactly (sigma0 first, then each delivery's sends in emission
     order), so a recorded path of [seq]s replays through
     [Scheduler.Replay].  [digests] caches [P.digest] of each state. *)
  type sim = {
    vstates : P.state array;
    digests : string array;
    visited : bool array;
    in_flight : flight list;
    next_seq : int;
  }

  let explore ?(max_states = 200_000) ?(max_depth = 2_000) ?(max_violations = 1)
      ?(walks = 64) ?(walk_len = 5_000) ?(walk_seed = 0x5EED)
      ?(expect_termination = true) ?obs g =
    let n = Digraph.n_vertices g in
    let ne = Digraph.n_edges g in
    let s = Digraph.source g in
    let t = Digraph.terminal g in
    let reach = Digraph.reachable_from_s g in
    let out_deg = Array.init n (Digraph.out_degree g) in
    let in_deg = Array.init n (Digraph.in_degree g) in
    let target = Array.make (Stdlib.max ne 1) (0, 0) in
    List.iter
      (fun u ->
        for j = 0 to out_deg.(u) - 1 do
          target.(Digraph.edge_index g u j) <- Digraph.out_port_target_port g u j
        done)
      (Digraph.vertices g);
    let encode msg =
      let w = Bitio.Bit_writer.create () in
      P.encode w msg;
      string_of_int (Bitio.Bit_writer.length w)
      ^ ":"
      ^ Bitio.Bit_writer.to_string w
    in
    let mk_flight ~seq ~fv ~fp msg =
      let edge = Digraph.edge_index g fv fp in
      let tv, tp = target.(edge) in
      { seq; edge; tv; tp; msg; enc = encode msg }
    in
    (* Turn a send batch into flights, numbering in emission order. *)
    let flights_of_sends ~fv ~first_seq sends =
      let next = ref first_seq in
      let rev =
        List.fold_left
          (fun acc (j, msg) ->
            let f = mk_flight ~seq:!next ~fv ~fp:j msg in
            incr next;
            f :: acc)
          [] sends
      in
      (List.rev rev, !next)
    in
    let initial_sim () =
      let vstates =
        Array.init n (fun v ->
            P.initial_state ~out_degree:out_deg.(v) ~in_degree:in_deg.(v))
      in
      let visited = Array.make n false in
      visited.(s) <- true;
      let in_flight, next_seq =
        flights_of_sends ~fv:s ~first_seq:0 (P.root_emit ~out_degree:out_deg.(s))
      in
      let digests = Array.map P.digest vstates in
      { vstates; digests; visited; in_flight; next_seq }
    in
    (* Delivering [f]: returns the successor configuration and whether the
       engine would halt there (delivery to [t] leaving it accepting). *)
    let deliver sim (f : flight) =
      let vstates = Array.copy sim.vstates in
      let visited = Array.copy sim.visited in
      visited.(f.tv) <- true;
      let st', sends =
        P.receive ~out_degree:out_deg.(f.tv) ~in_degree:in_deg.(f.tv)
          vstates.(f.tv) f.msg ~in_port:f.tp
      in
      vstates.(f.tv) <- st';
      let digests = Array.copy sim.digests in
      digests.(f.tv) <- P.digest st';
      let fresh, next_seq = flights_of_sends ~fv:f.tv ~first_seq:sim.next_seq sends in
      let rec remove = function
        | [] -> []
        | g :: rest -> if g.seq = f.seq then rest else g :: remove rest
      in
      let in_flight = remove sim.in_flight @ fresh in
      let halted = f.tv = t && P.accepting st' in
      ({ vstates; digests; visited; in_flight; next_seq }, halted)
    in
    (* {2 Transition identity} *)
    let tkey (f : flight) = string_of_int f.edge ^ "|" ^ f.enc in
    let tkey_target tk =
      let i = String.index tk '|' in
      fst target.(int_of_string (String.sub tk 0 i))
    in
    (* Two deliveries commute iff they update distinct vertices.  Deliveries
       to [t] are conservatively declared dependent on everything: they are
       the only transitions that can halt the run, and never sleeping them
       sidesteps the halt/commute interaction entirely. *)
    let independent tk tk' =
      let v = tkey_target tk and v' = tkey_target tk' in
      v <> v' && v <> t && v' <> t
    in
    let rec insert_sorted x = function
      | [] -> [ x ]
      | y :: rest as l ->
          let c = String.compare x y in
          if c < 0 then x :: l
          else if c = 0 then l
          else y :: insert_sorted x rest
    in
    (* Collapse identical in-flight copies (same edge, same bits) into one
       branch; the representative is the lowest [seq] so replays are
       deterministic.  Sorted by key for a canonical expansion order. *)
    let distinct_transitions flights =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun f ->
          let tk = tkey f in
          match Hashtbl.find_opt tbl tk with
          | Some (g : flight) when g.seq <= f.seq -> ()
          | _ -> Hashtbl.replace tbl tk f)
        flights;
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    in
    let canon sim =
      let c = Canonical.create () in
      Array.iter (Canonical.add_string c) sim.digests;
      Canonical.add_bool_array c sim.visited;
      Canonical.add_sorted_strings c (List.map tkey sim.in_flight);
      Canonical.contents c
    in
    (* {2 Counters and the invariant suite} *)
    let memo = Canonical.Memo.create () in
    let transitions = ref 0 in
    let pruned_sleep = ref 0 in
    let pruned_memo = ref 0 in
    let pruned_dup = ref 0 in
    let peak_depth = ref 0 in
    let max_in_flight = ref 0 in
    let truncated = ref false in
    let walks_done = ref 0 in
    let walk_deliveries = ref 0 in
    let memo_hits = ref 0 in
    let conservation_checks = ref 0 in
    (* Telemetry: track id is the running domain so Par sweeps sharing one
       sink interleave cleanly in the trace viewer. *)
    let oh =
      Option.map
        (fun (o : Obs.t) ->
          (o, (Domain.self () :> int), Obs.Timeline.now o.Obs.timeline))
        obs
    in
    let obs_sample depth =
      match oh with
      | None -> ()
      | Some (o, track, t0) ->
          let tl = o.Obs.timeline in
          let states = Canonical.Memo.size memo in
          let dt = Obs.Timeline.now tl -. t0 in
          let rate = if dt > 0. then float_of_int states /. dt else 0. in
          let considered = !transitions + !memo_hits in
          let hit_rate =
            if considered = 0 then 0.
            else float_of_int !memo_hits /. float_of_int considered
          in
          Obs.Timeline.sample tl ~track "explore.states" (float_of_int states);
          Obs.Timeline.sample tl ~track "explore.states_per_s" rate;
          Obs.Timeline.sample tl ~track "explore.frontier_depth"
            (float_of_int depth);
          Obs.Timeline.sample tl ~track "explore.sleep_prunes"
            (float_of_int !pruned_sleep);
          Obs.Timeline.sample tl ~track "explore.memo_hit_rate" hit_rate
    in
    let obs_span emit =
      match oh with
      | None -> ()
      | Some (o, track, _) -> emit o.Obs.timeline track
    in
    let violations = ref [] in
    let n_violations = ref 0 in
    (* Deliveries from the initial configuration to the current one, newest
       first: reversing it yields the replayable schedule. *)
    let path = ref [] in
    let record kind =
      violations := { kind; schedule = List.rev !path } :: !violations;
      incr n_violations;
      if !n_violations >= max_violations then raise Abort
    in
    let check_invariants sim =
      (match P.conservation with
      | None -> ()
      | Some (Protocol_intf.Conservation c) ->
          incr conservation_checks;
          let total = ref c.zero in
          List.iter
            (fun f -> total := c.add !total (c.of_message f.msg))
            sim.in_flight;
          Array.iteri
            (fun v st ->
              total :=
                c.add !total
                  (c.retained ~out_degree:out_deg.(v) ~in_degree:in_deg.(v) st))
            sim.vstates;
          (match c.check !total with
          | Ok () -> ()
          | Error msg -> record (Conservation_violation msg)));
      match P.vertex_invariant with
      | None -> ()
      | Some inv ->
          Array.iteri
            (fun v st ->
              if not (inv ~out_degree:out_deg.(v) ~in_degree:in_deg.(v) st) then
                record (Local_invariant_violation v))
            sim.vstates
    in
    let check_termination sim =
      match
        List.filter (fun v -> reach.(v) && not sim.visited.(v)) (Digraph.vertices g)
      with
      | [] -> ()
      | unreached -> record (False_termination unreached)
    in
    (* Fingerprint the configuration; on first sight run the invariant suite
       and charge the state budget ([budget = false] during random walks —
       they are bounded by their own length). *)
    let note ~budget sim =
      let m = List.length sim.in_flight in
      if m > !max_in_flight then max_in_flight := m;
      let stored, fresh = Canonical.Memo.visit memo (canon sim) in
      if fresh then begin
        check_invariants sim;
        if budget && Canonical.Memo.size memo >= max_states then raise Budget
      end
      else incr memo_hits;
      stored
    in
    (* {2 The DFS with sleep sets} *)
    let rec visit sim sleep depth =
      if depth > !peak_depth then peak_depth := depth;
      let stored = note ~budget:true sim in
      match sim.in_flight with
      | [] ->
          if P.accepting sim.vstates.(t) then check_termination sim
          else if expect_termination then record Premature_quiescence
      | flights ->
          let enabled = distinct_transitions flights in
          if Canonical.Memo.covered stored sleep then
            pruned_memo :=
              !pruned_memo
              + List.length
                  (List.filter (fun (tk, _) -> not (List.mem tk sleep)) enabled)
          else begin
            Canonical.Memo.record stored sleep;
            pruned_dup := !pruned_dup + (List.length flights - List.length enabled);
            let sleep_now = ref sleep in
            List.iter
              (fun (tk, f) ->
                if List.mem tk !sleep_now then incr pruned_sleep
                else begin
                  (if depth >= max_depth then truncated := true
                   else begin
                     let sim', halted = deliver sim f in
                     incr transitions;
                     (match oh with
                     | Some (o, _, _) when !transitions mod o.Obs.sample_every = 0
                       ->
                         obs_sample depth
                     | _ -> ());
                     path := f.seq :: !path;
                     (if halted then begin
                        ignore (note ~budget:true sim');
                        check_termination sim'
                      end
                      else
                        visit sim'
                          (List.filter (fun tk' -> independent tk' tk) !sleep_now)
                          (depth + 1));
                     path := List.tl !path
                   end);
                  sleep_now := insert_sorted tk !sleep_now
                end)
              enabled
          end
    in
    (* {2 Seeded bounded random walks (degraded mode)} *)
    let random_walk prng =
      incr walks_done;
      path := [];
      let sim = ref (initial_sim ()) in
      ignore (note ~budget:false !sim);
      let steps = ref 0 in
      let stop = ref false in
      while (not !stop) && !steps < walk_len do
        match !sim.in_flight with
        | [] ->
            if P.accepting !sim.vstates.(t) then check_termination !sim
            else if expect_termination then record Premature_quiescence;
            stop := true
        | flights ->
            let f = List.nth flights (Prng.int prng (List.length flights)) in
            let sim', halted = deliver !sim f in
            incr steps;
            incr walk_deliveries;
            path := f.seq :: !path;
            ignore (note ~budget:false sim');
            if halted then begin
              check_termination sim';
              stop := true
            end
            else sim := sim'
      done
    in
    obs_span (fun tl track -> Obs.Timeline.begin_span tl ~track "explore.dfs");
    (try
       path := [];
       visit (initial_sim ()) [] 0
     with
    | Abort -> ()
    | Budget -> truncated := true);
    obs_span (fun tl track -> Obs.Timeline.end_span tl ~track "explore.dfs");
    if !truncated && !n_violations < max_violations && walks > 0 then begin
      obs_span (fun tl track ->
          Obs.Timeline.begin_span tl ~track "explore.walks");
      let prng = Prng.create walk_seed in
      (try
         for _ = 1 to walks do
           random_walk prng
         done
       with Abort -> ());
      obs_span (fun tl track -> Obs.Timeline.end_span tl ~track "explore.walks")
    end;
    (match obs with
    | None -> ()
    | Some o ->
        (* Atomic adds: parallel sweeps funnel many explorations into one
           registry, so totals accumulate across domains. *)
        let addc name v =
          Obs.Registry.aadd (Obs.Registry.acounter o.Obs.registry name) v
        in
        addc "explore.states" (Canonical.Memo.size memo);
        addc "explore.transitions" !transitions;
        addc "explore.pruned_sleep" !pruned_sleep;
        addc "explore.pruned_memo" !pruned_memo;
        addc "explore.pruned_dup" !pruned_dup;
        addc "explore.memo_hits" !memo_hits;
        addc "explore.walks" !walks_done;
        addc "explore.walk_deliveries" !walk_deliveries;
        addc "explore.conservation_checks" !conservation_checks;
        obs_sample 0);
    {
      stats =
        {
          states = Canonical.Memo.size memo;
          transitions = !transitions;
          pruned_sleep = !pruned_sleep;
          pruned_memo = !pruned_memo;
          pruned_dup = !pruned_dup;
          peak_depth = !peak_depth;
          max_in_flight = !max_in_flight;
          truncated = !truncated;
          walks = !walks_done;
          walk_deliveries = !walk_deliveries;
        };
      violations = List.rev !violations;
    }

  let replay ?payload_bits ?(trace_limit = 100) g schedule =
    let tr = Trace.create () in
    let r =
      E.run ~scheduler:(Scheduler.Replay schedule) ?payload_bits
        ~on_deliver:(Trace.hook tr) g
    in
    let reach = Digraph.reachable_from_s g in
    {
      r_outcome = r.outcome;
      r_deliveries = r.deliveries;
      r_unreached =
        List.filter (fun v -> reach.(v) && not r.visited.(v)) (Digraph.vertices g);
      r_trace = Trace.render ~limit:trace_limit tr;
    }
end
