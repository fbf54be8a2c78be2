(* Execute one submitted session on a worker.

   The runner is deliberately dumb: everything reaching it was validated
   at the protocol edge, the graph was resolved from the server table, and
   cancellation arrives as an opaque [stop] hook.  Its one hard contract
   is {e determinism}: the result JSON is a pure function of
   (graph, submit fields) — keys emitted in a fixed order, counters from
   the engine report only, no wall clock, no session id — so equal
   submissions yield byte-identical payloads no matter what else the
   server is running. *)

module E = Runtime.Engine

let scheduler_of (sub : Proto.submit) =
  match sub.Proto.sub_scheduler with
  | "lifo" -> Runtime.Scheduler.Lifo
  | "random" -> Runtime.Scheduler.Random (Prng.create sub.Proto.sub_seed)
  | _ -> Runtime.Scheduler.Fifo

(* The submit's fault and churn members drive one edge adversary: the
   fault seed derives the send streams, the churn seed the churn streams. *)
let faults_of (sub : Proto.submit) g =
  let send, seed =
    match sub.Proto.sub_faults with
    | None -> (Runtime.Faults.reliable, 0)
    | Some f ->
        ( Runtime.Faults.plan ~drop:f.Proto.f_drop
            ~duplicate:f.Proto.f_duplicate ~max_delay:f.Proto.f_max_delay
            ~corrupt:f.Proto.f_corrupt ~kill:f.Proto.f_kill (),
          f.Proto.f_seed )
  in
  match sub.Proto.sub_churn with
  | None -> Runtime.Faults.uniform send ~seed
  | Some c -> (
      let spec =
        Runtime.Faults.uniform ~churn_seed:c.Proto.c_seed
          { send with remove = c.Proto.c_rate; max_downtime = 3 }
          ~seed
      in
      match c.Proto.c_t with
      | None -> spec
      | Some t -> Runtime.Faults.with_contract ~t_interval:t g spec)

let outcome_name = function
  | E.Terminated -> "terminated"
  | E.Quiescent -> "quiescent"
  | E.Step_limit -> "step_limit"
  | E.Cancelled -> "cancelled"

(* Fixed key order, engine-report fields only: the byte-determinism
   contract lives here. *)
let render_result (r : _ E.report) =
  let b = Buffer.create 256 in
  let field ?(first = false) name v =
    if not first then Buffer.add_char b ',';
    Printf.bprintf b "\"%s\":%d" name v
  in
  Buffer.add_char b '{';
  Printf.bprintf b "\"outcome\":\"%s\"" (outcome_name r.E.outcome);
  field "deliveries" r.E.deliveries;
  field "total_bits" r.E.total_bits;
  field "max_edge_bits" r.E.max_edge_bits;
  field "max_message_bits" r.E.max_message_bits;
  field "max_state_bits" r.E.max_state_bits;
  field "max_in_flight" r.E.max_in_flight;
  field "final_in_flight" r.E.final_in_flight;
  field "distinct_messages" r.E.distinct_messages;
  let visited =
    Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 r.E.visited
  in
  field "visited" visited;
  Printf.bprintf b ",\"all_visited\":%b"
    (Array.for_all (fun v -> v) r.E.visited);
  let f = r.E.fault_stats in
  Buffer.add_string b ",\"faults\":{";
  field ~first:true "dropped" f.E.dropped_copies;
  field "extra" f.E.extra_copies;
  field "delayed" f.E.delayed_copies;
  field "corrupted" f.E.corrupted_deliveries;
  field "garbled" f.E.garbled_drops;
  field "checksum_rejects" f.E.checksum_rejects;
  field "dead_edges" (List.length f.E.dead_edges);
  Buffer.add_char b '}';
  Buffer.add_string b ",\"churn\":{";
  field ~first:true "adds" f.E.adds;
  field "removes" f.E.removes;
  field "heals" f.E.heals;
  field "lost_in_flight" f.E.messages_lost_in_flight;
  field "window_violations" f.E.window_violations;
  Buffer.add_string b "}}";
  Buffer.contents b

type done_run = {
  json : string;  (* the deterministic result payload *)
  r_outcome : E.outcome;
  r_deliveries : int;
  r_total_bits : int;
}

let run ~stop ?obs ~step_limit (sub : Proto.submit) g =
  match Anonet.protocol_of_name sub.Proto.sub_protocol with
  | None -> invalid_arg "Runner.run: unknown protocol (validated upstream)"
  | Some (module P : Runtime.Protocol_intf.PROTOCOL) ->
      let step_limit =
        match sub.Proto.sub_step_limit with Some l -> l | None -> step_limit
      in
      let module En = E.Make (P) in
      let r =
        En.run ~scheduler:(scheduler_of sub)
          ~payload_bits:sub.Proto.sub_payload ~step_limit
          ~faults:(faults_of sub g) ~stop ?obs g
      in
      {
        json = render_result r;
        r_outcome = r.E.outcome;
        r_deliveries = r.E.deliveries;
        r_total_bits = r.E.total_bits;
      }
