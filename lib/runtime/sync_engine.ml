type 'state report = { base : 'state Engine.report; rounds : int }

module Make (P : Protocol_intf.PROTOCOL) = struct
  type flight = {
    fv : Digraph.vertex;
    fp : int;
    tv : Digraph.vertex;
    tp : int;
    edge : int;
    msg : P.message;
  }

  let run ?(payload_bits = 0) ?(round_limit = 100_000) ?on_deliver g =
    if payload_bits < 0 then
      invalid_arg "Sync_engine.run: payload_bits must be >= 0";
    let n = Digraph.n_vertices g in
    let ne = Digraph.n_edges g in
    let t = Digraph.terminal g in
    let target = Array.make (Stdlib.max ne 1) (0, 0) in
    List.iter
      (fun u ->
        for j = 0 to Digraph.out_degree g u - 1 do
          target.(Digraph.edge_index g u j) <- Digraph.out_port_target_port g u j
        done)
      (Digraph.vertices g);
    let states =
      Array.init n (fun v ->
          P.initial_state ~out_degree:(Digraph.out_degree g v)
            ~in_degree:(Digraph.in_degree g v))
    in
    let visited = Array.make n false in
    let edge_messages = Array.make (Stdlib.max ne 1) 0 in
    let edge_bits = Array.make (Stdlib.max ne 1) 0 in
    let total_bits = ref 0 in
    let max_message_bits = ref 0 in
    let max_state_bits = ref 0 in
    let deliveries = ref 0 in
    let arena = Arena.create () in
    let make fv fp msg =
      let edge = Digraph.edge_index g fv fp in
      let tv, tp = target.(edge) in
      { fv; fp; tv; tp; edge; msg }
    in
    let max_in_flight = ref 0 in
    let current =
      ref
        (List.map
           (fun (j, msg) -> make (Digraph.source g) j msg)
           (P.root_emit ~out_degree:(Digraph.out_degree g (Digraph.source g))))
    in
    visited.(Digraph.source g) <- true;
    let rounds = ref 0 in
    let outcome = ref Engine.Quiescent in
    let running = ref (!current <> []) in
    while !running do
      if !rounds >= round_limit then begin
        outcome := Engine.Step_limit;
        running := false
      end
      else begin
        incr rounds;
        if List.length !current > !max_in_flight then
          max_in_flight := List.length !current;
        let next = ref [] in
        List.iter
          (fun f ->
            incr deliveries;
            let slot = Arena.intern arena P.encode f.msg in
            Arena.mark_seen arena slot;
            let bits = Arena.len_bits arena slot + payload_bits in
            total_bits := !total_bits + bits;
            edge_messages.(f.edge) <- edge_messages.(f.edge) + 1;
            edge_bits.(f.edge) <- edge_bits.(f.edge) + bits;
            if bits > !max_message_bits then max_message_bits := bits;
            (match on_deliver with
            | Some hook ->
                hook
                  {
                    Engine.step = !deliveries;
                    (* The synchronous engine has no send sequencing; expose
                       a 0-based delivery index so traces stay well-typed. *)
                    seq = !deliveries - 1;
                    from_vertex = f.fv;
                    from_port = f.fp;
                    to_vertex = f.tv;
                    to_port = f.tp;
                    bits;
                  }
                  f.msg
            | None -> ());
            visited.(f.tv) <- true;
            let state', sends =
              P.receive
                ~out_degree:(Digraph.out_degree g f.tv)
                ~in_degree:(Digraph.in_degree g f.tv)
                states.(f.tv) f.msg ~in_port:f.tp
            in
            states.(f.tv) <- state';
            let b = P.state_bits state' in
            if b > !max_state_bits then max_state_bits := b;
            List.iter (fun (j, msg) -> next := make f.tv j msg :: !next) sends)
          !current;
        current := List.rev !next;
        if P.accepting states.(t) then begin
          outcome := Engine.Terminated;
          running := false
        end
        else if !current = [] then begin
          outcome := Engine.Quiescent;
          running := false
        end
      end
    done;
    {
      base =
        {
          Engine.outcome = !outcome;
          deliveries = !deliveries;
          total_bits = !total_bits;
          max_edge_bits = Array.fold_left Int.max 0 edge_bits;
          max_message_bits = !max_message_bits;
          max_state_bits = !max_state_bits;
          max_in_flight = !max_in_flight;
          final_in_flight = List.length !current;
          distinct_messages = Arena.distinct arena;
          edge_messages;
          edge_bits;
          visited;
          states;
          fault_stats = Engine.no_faults_stats;
          vfault_stats = Engine.no_vfaults_stats;
        };
      rounds = !rounds;
    }
end
