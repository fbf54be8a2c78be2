type sharding = [ `Round_robin | `Bfs_layers ]

(* Run status, CAS-published by the first shard that decides. *)
let st_running = 0
let st_terminated = 1
let st_step_limit = 2
let st_quiescent = 3
let st_cancelled = 4

module Make (P : Runtime.Protocol_intf.PROTOCOL) = struct
  module E = Runtime.Engine

  type flight = {
    fv : Digraph.vertex;
    fp : int;
    tv : Digraph.vertex;
    tp : int;
    edge : int;
    corrupt : bool;
    delay : int;  (** Delivery steps still to hold this copy, 0 = ready. *)
    (* Causal provenance (same convention as the sequential flights):
       [lp] = lineage node id of the receive that sent this copy, 0 for
       the root emission; [ld] = this copy's causal depth. *)
    lp : int;
    ld : int;
    msg : P.message;
  }

  type full = { report : P.state E.report; leftover : P.message list }

  (* Per-shard scalars; slot [d] is written only by domain [d] (the main
     domain touches the root owner's slot strictly before spawning), and
     read by the main domain strictly after [Domain.join]. *)
  type shard_stats = {
    mutable total_bits : int;
    mutable max_message_bits : int;
    mutable max_state_bits : int;
    mutable max_in_flight : int;
    mutable corrupted_deliveries : int;
    mutable garbled_drops : int;
    mutable checksum_rejects : int;
    mutable lost_state_bits : int;
    mutable checkpoints : int;
    mutable leftover : flight list;
  }

  let fresh_stats () =
    {
      total_bits = 0;
      max_message_bits = 0;
      max_state_bits = 0;
      max_in_flight = 0;
      corrupted_deliveries = 0;
      garbled_drops = 0;
      checksum_rejects = 0;
      lost_state_bits = 0;
      checkpoints = 0;
      leftover = [];
    }

  let flip_bit s b =
    let bytes = Bytes.of_string s in
    let i = b / 8 in
    Bytes.set bytes i
      (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (7 - (b mod 8)))));
    Bytes.to_string bytes

  let run_full ?domains ?(sharding = `Round_robin) ?(payload_bits = 0)
      ?(step_limit = 10_000_000) ?(faults = Runtime.Faults.none)
      ?(vfaults = Runtime.Vfaults.none) ?(churn = Runtime.Churn.none) ?stop
      ?obs ?lineage g =
    (* Cooperative cancellation: every shard polls the (caller-supplied,
       domain-safe) hook once per scheduling round; the first to see [true]
       publishes [Cancelled] and the others stop at their next check, with
       undelivered copies folded into [leftover]/[final_in_flight]. *)
    let stop_now = match stop with None -> (fun () -> false) | Some f -> f in
    let domains =
      match domains with
      | Some d when d < 1 -> invalid_arg "Shard_engine.run: domains < 1"
      | Some d -> d
      | None -> Stdlib.max 1 (Domain.recommended_domain_count ())
    in
    let n = Digraph.n_vertices g in
    let ne = Digraph.n_edges g in
    let s = Digraph.source g in
    let t = Digraph.terminal g in
    let owner =
      match sharding with
      | `Round_robin -> Array.init n (fun v -> v mod domains)
      | `Bfs_layers ->
          let dist = Digraph.distances_from g s in
          Array.init n (fun v ->
              if dist.(v) >= 0 then dist.(v) mod domains else v mod domains)
    in
    let target = Array.make (Stdlib.max ne 1) (0, 0) in
    List.iter
      (fun u ->
        for j = 0 to Digraph.out_degree g u - 1 do
          target.(Digraph.edge_index g u j) <- Digraph.out_port_target_port g u j
        done)
      (Digraph.vertices g);
    (* Shared per-index single-writer arrays: entry [v] (resp. the entries of
       edges landing on [v]) is written only by [owner.(v)]'s domain. *)
    let states =
      Array.init n (fun v ->
          P.initial_state ~out_degree:(Digraph.out_degree g v)
            ~in_degree:(Digraph.in_degree g v))
    in
    let visited = Array.make n false in
    (* Per-vertex checkpoints (cadence 1: snapshot after every completed
       receive), single-writer like [states] — entry [v] is touched only by
       [owner.(v)]'s domain. *)
    let ckpt = Array.copy states in
    let ckpt_visited = Array.make n false in
    let edge_messages = Array.make (Stdlib.max ne 1) 0 in
    let edge_bits = Array.make (Stdlib.max ne 1) 0 in
    let mailboxes = Array.init domains (fun _ -> Mailbox.create ()) in
    let stats = Array.init domains (fun _ -> fresh_stats ()) in
    let faulty = not (Runtime.Faults.is_none faults) in
    let instances =
      Array.init domains (fun _ -> Runtime.Faults.Instance.start faults)
    in
    (* One vertex-fault instance per shard: all deliveries addressed to a
       vertex happen in its owner's domain, so each vertex's PRNG stream
       and up/down clock live in exactly one instance — the sharded fates
       match the sequential engine's delivery-for-delivery. *)
    let vfaulty = not (Runtime.Vfaults.is_none vfaults) in
    let vinstances =
      Array.init domains (fun _ -> Runtime.Vfaults.Instance.start vfaults)
    in
    (* One churn instance per shard, on the same single-writer argument: an
       edge's offers all happen in the shard owning its target vertex, so
       each edge's churn clock and PRNG stream live in exactly one instance
       and the sharded fates match the sequential engine's offer-for-offer. *)
    let churny = not (Runtime.Churn.is_none churn) in
    let cinstances =
      Array.init domains (fun _ -> Runtime.Churn.Instance.start churn)
    in
    let initial_of v =
      P.initial_state ~out_degree:(Digraph.out_degree g v)
        ~in_degree:(Digraph.in_degree g v)
    in
    let seen_tbls : (string, unit) Hashtbl.t array =
      Array.init domains (fun _ -> Hashtbl.create 64)
    in
    let in_flight = Atomic.make 0 in
    let deliveries = Atomic.make 0 in
    let status = Atomic.make st_running in
    let gc0 =
      match obs with
      | Some _ -> Some (Gc.quick_stat (), Gc.minor_words ())
      | None -> None
    in
    (* One lineage recorder per shard, same sampling/capacity/clock as
       the caller's; merged into it after join.  Node ids come from the
       global delivery-slot claim, so they are unique across shards. *)
    let lins =
      match lineage with
      | None -> [||]
      | Some (l : Obs.Lineage.t) ->
          Array.init domains (fun _ ->
              let s =
                Obs.Lineage.create ~sample_every:l.Obs.Lineage.sample_every
                  ~capacity:l.Obs.Lineage.capacity ~clock:l.Obs.Lineage.clock ()
              in
              Obs.Lineage.bind s ~n_vertices:n ~n_edges:ne;
              s)
    in
    let lin_on = lineage <> None in
    (* Sends: all of an edge's [on_send] draws happen in the shard owning its
       source vertex (the root's pre-spawn emission included), so each edge's
       fault stream lives in exactly one instance.  [lp]/[ld] are the
       sending receive's lineage node id and depth (0/0 for the root). *)
    let send fi st ~lp ~ld fv fp msg =
      let edge = Digraph.edge_index g fv fp in
      let tv, tp = target.(edge) in
      let ld = ld + 1 in
      let enqueue ~delay ~corrupt =
        let now = 1 + Atomic.fetch_and_add in_flight 1 in
        if now > st.max_in_flight then st.max_in_flight <- now;
        Mailbox.push mailboxes.(owner.(tv))
          { fv; fp; tv; tp; edge; corrupt; delay; lp; ld; msg }
      in
      if not faulty then enqueue ~delay:0 ~corrupt:false
      else
        List.iter
          (fun ({ delay; flip_bit = corrupt } : Runtime.Faults.copy_fate) ->
            enqueue ~delay ~corrupt)
          (Runtime.Faults.Instance.on_send fi ~edge)
    in
    let worker d =
      let st = stats.(d) in
      let mb = mailboxes.(d) in
      let fi = instances.(d) in
      let vfi = vinstances.(d) in
      let seen = seen_tbls.(d) in
      (* Copies held back by a delay fault, released against this shard's
         own delivery clock — a legal schedule, like everything else here. *)
      let delayed : (int * int, flight) Runtime.Binheap.t =
        Runtime.Binheap.create ()
      in
      let local_deliveries = ref 0 in
      let tie = ref 0 in
      (* Telemetry (track = shard index, one Perfetto row per shard).  The
         timeline ring is multi-writer-safe; counters flush once, at worker
         exit, through atomic cells. *)
      let obs_tl =
        match obs with
        | Some (o : Obs.t) -> Some (o.Obs.timeline, o.Obs.sample_every)
        | None -> None
      in
      let last_batch = ref 0 in
      let idle = ref false in
      let idle_spins = ref 0 in
      let obs_sample () =
        match obs_tl with
        | None -> ()
        | Some (tl, _) ->
            Obs.Timeline.sample tl ~track:d "par.shard_deliveries"
              (float_of_int !local_deliveries);
            Obs.Timeline.sample tl ~track:d "par.mailbox_batch"
              (float_of_int !last_batch);
            Obs.Timeline.sample tl ~track:d "par.in_flight"
              (float_of_int (Atomic.get in_flight))
      in
      let not_idle () =
        if !idle then begin
          idle := false;
          match obs_tl with
          | Some (tl, _) -> Obs.Timeline.end_span tl ~track:d "par.idle"
          | None -> ()
        end
      in
      let go_idle () =
        if not !idle then begin
          idle := true;
          match obs_tl with
          | Some (tl, _) -> Obs.Timeline.begin_span tl ~track:d "par.idle"
          | None -> ()
        end;
        incr idle_spins
      in
      let note_state state =
        let b = P.state_bits state in
        if b > st.max_state_bits then st.max_state_bits <- b
      in
      let deliver f =
        (* Claim a global delivery slot; past the limit, undo and stop. *)
        let claim = Atomic.fetch_and_add deliveries 1 in
        if claim >= step_limit then begin
          ignore (Atomic.fetch_and_add deliveries (-1));
          ignore (Atomic.compare_and_set status st_running st_step_limit);
          st.leftover <- f :: st.leftover
        end
        else begin
          (* The claimed slot (1-based) is this delivery's lineage node
             id — rolled-back claims above never become nodes, so node
             counts still reconcile with the report. *)
          let node_id = claim + 1 in
          if lin_on then
            Obs.Lineage.note lins.(d) ~id:node_id ~parent:f.lp ~depth:f.ld
              ~edge:f.edge ~vertex:f.tv ~track:d;
          incr local_deliveries;
          (match obs_tl with
          | Some (_, k) when !local_deliveries mod k = 0 -> obs_sample ()
          | _ -> ());
          (* Churn fate first, on the edge's own offer clock, exactly as in
             the sequential engine: a copy offered on an absent edge burns
             its delivery slot but is charged no bits and never reaches the
             edge- or vertex-fault coins. *)
          let cfate =
            if churny then
              Runtime.Churn.Instance.on_offer cinstances.(d) ~edge:f.edge
            else Runtime.Churn.Cross
          in
          if cfate <> Runtime.Churn.Cross then begin
            match obs_tl with
            | None -> ()
            | Some (tl, _) ->
                let mark kind =
                  Obs.Timeline.instant tl ~track:d
                    (Printf.sprintf "churn.%s:%d" kind f.edge)
                in
                (match cfate with
                | Runtime.Churn.Removed left ->
                    mark "remove";
                    if left = 0 then mark "heal"
                | Runtime.Churn.Back `Heal -> mark "heal"
                | Runtime.Churn.Back `Add -> mark "add"
                | Runtime.Churn.Down | Runtime.Churn.Cross -> ())
          end
          else begin
          let w = Bitio.Bit_writer.create () in
          P.encode w f.msg;
          let bits = Bitio.Bit_writer.length w + payload_bits in
          let key =
            string_of_int (Bitio.Bit_writer.length w)
            ^ ":"
            ^ Bitio.Bit_writer.to_string w
          in
          if not (Hashtbl.mem seen key) then Hashtbl.add seen key ();
          st.total_bits <- st.total_bits + bits;
          edge_messages.(f.edge) <- edge_messages.(f.edge) + 1;
          edge_bits.(f.edge) <- edge_bits.(f.edge) + bits;
          if bits > st.max_message_bits then st.max_message_bits <- bits;
          (* Vertex fate first, as in the sequential engine: a delivery a
             down/stuttering/crashing vertex swallows is charged to the
             edge but never decoded. *)
          let vfate =
            if vfaulty then Runtime.Vfaults.Instance.on_deliver vfi ~vertex:f.tv
            else Runtime.Vfaults.Deliver
          in
          (match vfate with
          | Runtime.Vfaults.Stutter | Runtime.Vfaults.Down_drop -> ()
          | Runtime.Vfaults.Crash (recovery, _) -> (
              let old_bits = P.state_bits states.(f.tv) in
              match recovery with
              | Runtime.Vfaults.Stop -> ()
              | Runtime.Vfaults.Amnesia ->
                  st.lost_state_bits <- st.lost_state_bits + old_bits;
                  states.(f.tv) <- initial_of f.tv;
                  visited.(f.tv) <- false
              | Runtime.Vfaults.Restore ->
                  let restored = ckpt.(f.tv) in
                  st.lost_state_bits <-
                    st.lost_state_bits
                    + Stdlib.max 0 (old_bits - P.state_bits restored);
                  states.(f.tv) <- restored;
                  visited.(f.tv) <- ckpt_visited.(f.tv))
          | Runtime.Vfaults.Deliver -> (
          let delivered =
            if not f.corrupt then Some f.msg
            else
              let len = Bitio.Bit_writer.length w in
              if len = 0 then Some f.msg
              else begin
                let b =
                  Runtime.Faults.Instance.corrupt_bit fi ~edge:f.edge
                    ~length_bits:len
                in
                let s = flip_bit (Bitio.Bit_writer.to_string w) b in
                let r = Bitio.Bit_reader.of_string ~length_bits:len s in
                match P.decode r with
                | decoded ->
                    if not (P.equal_message decoded f.msg) then
                      st.corrupted_deliveries <- st.corrupted_deliveries + 1;
                    Some decoded
                | exception Runtime.Protocol_intf.Checksum_reject ->
                    st.checksum_rejects <- st.checksum_rejects + 1;
                    None
                | exception _ ->
                    st.garbled_drops <- st.garbled_drops + 1;
                    None
              end
          in
          match delivered with
          | None -> ()
          | Some msg ->
              visited.(f.tv) <- true;
              let state', sends =
                P.receive
                  ~out_degree:(Digraph.out_degree g f.tv)
                  ~in_degree:(Digraph.in_degree g f.tv)
                  states.(f.tv) msg ~in_port:f.tp
              in
              states.(f.tv) <- state';
              note_state state';
              if vfaulty then begin
                ckpt.(f.tv) <- state';
                ckpt_visited.(f.tv) <- true;
                st.checkpoints <- st.checkpoints + 1
              end;
              List.iter (fun (j, m) -> send fi st ~lp:node_id ~ld:f.ld f.tv j m) sends;
              if f.tv = t && P.accepting state' then
                ignore (Atomic.compare_and_set status st_running st_terminated)))
          end;
          (* Only now give up the in-flight count: children are already
             counted, so the counter can never dip to 0 with work pending. *)
          ignore (Atomic.fetch_and_add in_flight (-1))
        end
      in
      let handle f =
        if Atomic.get status <> st_running then st.leftover <- f :: st.leftover
        else if f.delay > 0 then begin
          incr tie;
          Runtime.Binheap.push delayed
            (!local_deliveries + f.delay, !tie)
            { f with delay = 0 }
        end
        else deliver f
      in
      let release_due () =
        let continue = ref true in
        while !continue do
          match Runtime.Binheap.peek delayed with
          | Some ((release, _), _) when release <= !local_deliveries -> (
              match Runtime.Binheap.pop delayed with
              | Some (_, f) -> handle f
              | None -> continue := false)
          | _ -> continue := false
        done
      in
      (match obs_tl with
      | Some (tl, _) -> Obs.Timeline.begin_span tl ~track:d "par.shard"
      | None -> ());
      while Atomic.get status = st_running do
        if stop_now () then
          ignore (Atomic.compare_and_set status st_running st_cancelled);
        release_due ();
        match Mailbox.take_all mb with
        | _ :: _ as batch ->
            not_idle ();
            last_batch := List.length batch;
            List.iter handle batch
        | [] -> (
            (* Nothing deliverable here; fast-forward idle time to our next
               delayed copy, else check for global quiescence. *)
            match Runtime.Binheap.pop delayed with
            | Some (_, f) ->
                not_idle ();
                handle f
            | None ->
                if Atomic.get in_flight = 0 then
                  ignore
                    (Atomic.compare_and_set status st_running st_quiescent)
                else begin
                  go_idle ();
                  Domain.cpu_relax ()
                end)
      done;
      not_idle ();
      (* Still-counted copies this shard holds: the delay queue, plus
         whatever the final mailbox drain after join doesn't catch. *)
      let continue = ref true in
      while !continue do
        match Runtime.Binheap.pop delayed with
        | Some (_, f) -> st.leftover <- f :: st.leftover
        | None -> continue := false
      done;
      (match obs with
      | None -> ()
      | Some o ->
          obs_sample ();
          (match obs_tl with
          | Some (tl, _) -> Obs.Timeline.end_span tl ~track:d "par.shard"
          | None -> ());
          let reg = o.Obs.registry in
          let addc name v = Obs.Registry.aadd (Obs.Registry.acounter reg name) v in
          addc (Printf.sprintf "par.shard%d.deliveries" d) !local_deliveries;
          addc "par.deliveries" !local_deliveries;
          addc "par.idle_spins" !idle_spins)
    in
    (* The root's spontaneous emission, before any domain starts.  Valid
       networks give [s] in-degree 0, so its out-edges send only here, in
       its owner's fault instance. *)
    let root_owner = owner.(s) in
    List.iter
      (fun (j, msg) ->
        send instances.(root_owner) stats.(root_owner) ~lp:0 ~ld:0 s j msg)
      (P.root_emit ~out_degree:(Digraph.out_degree g s));
    visited.(s) <- true;
    let spawned =
      List.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    List.iter Domain.join spawned;
    (* Copies pushed after their target shard stopped looking. *)
    let stranded =
      Array.fold_left
        (fun acc mb -> List.rev_append (Mailbox.take_all mb) acc)
        [] mailboxes
    in
    let leftover_flights =
      Array.fold_left
        (fun acc st -> List.rev_append st.leftover acc)
        stranded stats
    in
    let outcome =
      match Atomic.get status with
      | st when st = st_terminated -> E.Terminated
      | st when st = st_step_limit -> E.Step_limit
      | st when st = st_cancelled -> E.Cancelled
      | _ -> if P.accepting states.(t) then E.Terminated else E.Quiescent
    in
    let seen_all = Hashtbl.create 64 in
    Array.iter
      (fun tbl ->
        Hashtbl.iter
          (fun k () -> if not (Hashtbl.mem seen_all k) then Hashtbl.add seen_all k ())
          tbl)
      seen_tbls;
    let sum f = Array.fold_left (fun acc st -> acc + f st) 0 stats in
    let maxi f = Array.fold_left (fun acc st -> Stdlib.max acc (f st)) 0 stats in
    let fault_stats =
      if not faulty then
        {
          E.no_faults_stats with
          corrupted_deliveries = sum (fun st -> st.corrupted_deliveries);
          garbled_drops = sum (fun st -> st.garbled_drops);
          checksum_rejects = sum (fun st -> st.checksum_rejects);
        }
      else
        {
          E.dropped_copies =
            Array.fold_left
              (fun acc fi -> acc + Runtime.Faults.Instance.dropped_copies fi)
              0 instances;
          extra_copies =
            Array.fold_left
              (fun acc fi -> acc + Runtime.Faults.Instance.extra_copies fi)
              0 instances;
          delayed_copies =
            Array.fold_left
              (fun acc fi -> acc + Runtime.Faults.Instance.delayed_copies fi)
              0 instances;
          corrupted_deliveries = sum (fun st -> st.corrupted_deliveries);
          garbled_drops = sum (fun st -> st.garbled_drops);
          checksum_rejects = sum (fun st -> st.checksum_rejects);
          dead_edges =
            List.sort_uniq compare
              (Array.fold_left
                 (fun acc fi ->
                   List.rev_append (Runtime.Faults.Instance.dead_edges fi) acc)
                 [] instances);
        }
    in
    let vsum f =
      Array.fold_left (fun acc vi -> acc + f vi) 0 vinstances
    in
    let vfault_stats =
      {
        E.crashes = vsum Runtime.Vfaults.Instance.crashes;
        restarts = vsum Runtime.Vfaults.Instance.restarts;
        lost_state_bits = sum (fun st -> st.lost_state_bits);
        down_drops = vsum Runtime.Vfaults.Instance.down_drops;
        stuttered = vsum Runtime.Vfaults.Instance.stuttered;
        stopped_vertices =
          List.sort_uniq compare
            (Array.fold_left
               (fun acc vi ->
                 List.rev_append (Runtime.Vfaults.Instance.stopped vi) acc)
               [] vinstances);
        checkpoints = sum (fun st -> st.checkpoints);
        replayed = 0;
      }
    in
    let csum f = Array.fold_left (fun acc ci -> acc + f ci) 0 cinstances in
    let churn_stats =
      if not churny then E.no_churn_stats
      else
        {
          E.adds = csum Runtime.Churn.Instance.adds;
          removes = csum Runtime.Churn.Instance.removes;
          heals = csum Runtime.Churn.Instance.heals;
          messages_lost_in_flight = csum Runtime.Churn.Instance.lost;
          window_violations = csum Runtime.Churn.Instance.window_violations;
        }
    in
    (match lineage with
    | Some l -> Array.iter (fun s -> Obs.Lineage.merge ~into:l s) lins
    | None -> ());
    (* Same telemetry epilogue as the sequential engine: GC deltas as
       gauges (the whole run, all domains' allocations folded by the
       runtime into one [quick_stat]) and the timeline-overwrite mirror. *)
    (match (obs, gc0) with
    | Some (o : Obs.t), Some (g0, mw0) ->
        let g1 = Gc.quick_stat () in
        let set name v =
          Obs.Registry.set (Obs.Registry.gauge o.Obs.registry name) v
        in
        set "engine.gc.minor_words" (int_of_float (Gc.minor_words () -. mw0));
        set "engine.gc.major_words"
          (int_of_float (g1.Gc.major_words -. g0.Gc.major_words));
        set "engine.gc.heap_words" g1.Gc.heap_words;
        set "engine.gc.compactions" (g1.Gc.compactions - g0.Gc.compactions);
        let c = Obs.Registry.counter o.Obs.registry "timeline.dropped" in
        let d = Obs.Timeline.dropped o.Obs.timeline in
        let seen = Obs.Registry.value c in
        if d > seen then Obs.Registry.add c (d - seen)
    | _ -> ());
    (match obs with
    | Some (o : Obs.t) when churny ->
        (* Fold the per-shard churn totals into the same [engine.churn.*]
           counters the sequential engine uses, so the report reconciles
           exactly with the registry in both engines. *)
        let reg = o.Obs.registry in
        let addc name v = Obs.Registry.aadd (Obs.Registry.acounter reg name) v in
        addc "engine.churn.adds" churn_stats.E.adds;
        addc "engine.churn.removes" churn_stats.E.removes;
        addc "engine.churn.heals" churn_stats.E.heals;
        addc "engine.churn.lost_in_flight" churn_stats.E.messages_lost_in_flight;
        addc "engine.churn.window_violations" churn_stats.E.window_violations
    | _ -> ());
    let report =
      {
        E.outcome;
        deliveries = Atomic.get deliveries;
        total_bits = sum (fun st -> st.total_bits);
        max_edge_bits = Array.fold_left Stdlib.max 0 edge_bits;
        max_message_bits = maxi (fun st -> st.max_message_bits);
        max_state_bits = maxi (fun st -> st.max_state_bits);
        max_in_flight = maxi (fun st -> st.max_in_flight);
        final_in_flight = Atomic.get in_flight;
        distinct_messages = Hashtbl.length seen_all;
        edge_messages;
        edge_bits;
        visited;
        states;
        fault_stats;
        vfault_stats;
        churn_stats;
      }
    in
    { report; leftover = List.map (fun f -> f.msg) leftover_flights }

  let run ?domains ?sharding ?payload_bits ?step_limit ?faults ?vfaults ?churn
      ?stop ?obs ?lineage g =
    (run_full ?domains ?sharding ?payload_bits ?step_limit ?faults ?vfaults
       ?churn ?stop ?obs ?lineage g)
      .report
end
