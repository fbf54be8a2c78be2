type fault_point = { label : string; fault_plan : Faults.plan }

let default_label (p : Faults.plan) =
  let parts =
    List.filter_map
      (fun x -> x)
      [
        (if p.drop > 0.0 then Some (Printf.sprintf "drop=%g" p.drop) else None);
        (if p.duplicate > 0.0 then Some (Printf.sprintf "dup=%g" p.duplicate)
         else None);
        (if p.max_delay > 0 then Some (Printf.sprintf "delay=%d" p.max_delay)
         else None);
        (if p.corrupt > 0.0 then Some (Printf.sprintf "corrupt=%g" p.corrupt)
         else None);
        (if p.kill > 0.0 then Some (Printf.sprintf "kill=%g" p.kill) else None);
      ]
  in
  if parts = [] then "reliable" else String.concat "," parts

let of_plan p = { label = default_label p; fault_plan = p }

let point ?drop ?duplicate ?max_delay ?corrupt ?kill ?label () =
  let p = Faults.plan ?drop ?duplicate ?max_delay ?corrupt ?kill () in
  { label = (match label with Some l -> l | None -> default_label p); fault_plan = p }

let grid ?(drops = [ 0.0 ]) ?(duplicates = [ 0.0 ]) ?(max_delays = [ 0 ])
    ?(corrupts = [ 0.0 ]) ?(kills = [ 0.0 ]) () =
  List.concat_map
    (fun drop ->
      List.concat_map
        (fun duplicate ->
          List.concat_map
            (fun max_delay ->
              List.concat_map
                (fun corrupt ->
                  List.map
                    (fun kill ->
                      point ~drop ~duplicate ~max_delay ~corrupt ~kill ())
                    kills)
                corrupts)
            max_delays)
        duplicates)
    drops

type run_summary = {
  outcome : Engine.outcome;
  visited : bool array;
  deliveries : int;
  total_bits : int;
  final_in_flight : int;
  fault_stats : Engine.fault_stats;
}

type runner = {
  r_name : string;
  run : faults:Faults.t -> step_limit:int -> Digraph.t -> run_summary;
}

module Of_protocol (P : Protocol_intf.PROTOCOL) = struct
  module E = Engine.Make (P)

  let runner ?(scheduler = Scheduler.Fifo) ?name () =
    {
      r_name = (match name with Some n -> n | None -> P.name);
      run =
        (fun ~faults ~step_limit g ->
          let r = E.run ~scheduler ~faults ~step_limit g in
          {
            outcome = r.outcome;
            visited = r.visited;
            deliveries = r.deliveries;
            total_bits = r.total_bits;
            final_in_flight = r.final_in_flight;
            fault_stats = r.fault_stats;
          });
    }
end

type graph_case = { g_name : string; build : seed:int -> Digraph.t }

type violation = {
  v_runner : string;
  v_graph : string;
  v_point : fault_point;
  v_seed : int;
  unreached : int list;
  shrunk_point : fault_point;
  shrunk_seed : int;
}

type starvation = {
  s_runner : string;
  s_graph : string;
  s_point : fault_point;
  s_seed : int;
  starved : int list;
  dark_edges : int list;
}

type cell = {
  c_runner : string;
  c_graph : string;
  c_point : fault_point;
  runs : int;
  terminated : int;
  false_terminated : int;
  quiescent : int;
  step_limited : int;
  total_deliveries : int;
  total_bits : int;
}

type result = {
  cells : cell list;
  violations : violation list;
  starvations : starvation list;
}

(* Reachable-but-unvisited vertices: non-empty at [Terminated] is exactly a
   soundness violation of the broadcast specification. *)
let unreached_of g (s : run_summary) =
  let reach = Digraph.reachable_from_s g in
  List.filter
    (fun v -> reach.(v) && not s.visited.(v))
    (Digraph.vertices g)

let execute ~step_limit (r : runner) (gc : graph_case) (pt : fault_point) seed =
  let g = gc.build ~seed in
  let faults = Faults.uniform pt.fault_plan ~seed in
  (g, r.run ~faults ~step_limit g)

let violates ~step_limit r gc pt seed =
  let g, s = execute ~step_limit r gc pt seed in
  s.outcome = Engine.Terminated && unreached_of g s <> []

(* Shrink a failing point: independently walk every rate down through a
   small candidate ladder while the same (runner, graph, seed) still fails,
   iterating to a fixpoint; then scan the sweep's seeds in order for the
   smallest one failing at the shrunk rates. *)
let shrink ~step_limit r gc pt seed seeds =
  let fails plan = violates ~step_limit r gc (of_plan plan) seed in
  let lower_float v = if v = 0.0 then [] else [ 0.0; v /. 4.0; v /. 2.0 ] in
  let lower_int v = if v = 0 then [] else [ 0; v / 2 ] in
  let try_field plan candidates set =
    let rec first = function
      | [] -> plan
      | c :: rest -> if fails (set plan c) then set plan c else first rest
    in
    first candidates
  in
  let pass (plan : Faults.plan) =
    let plan =
      try_field plan (lower_float plan.drop) (fun p v -> { p with Faults.drop = v })
    in
    let plan =
      try_field plan (lower_float plan.duplicate) (fun p v ->
          { p with Faults.duplicate = v })
    in
    let plan =
      try_field plan (lower_int plan.max_delay) (fun p v ->
          { p with Faults.max_delay = v })
    in
    let plan =
      try_field plan (lower_float plan.corrupt) (fun p v ->
          { p with Faults.corrupt = v })
    in
    try_field plan (lower_float plan.kill) (fun p v -> { p with Faults.kill = v })
  in
  let rec fix plan budget =
    if budget = 0 then plan
    else
      let plan' = pass plan in
      if plan' = plan then plan else fix plan' (budget - 1)
  in
  let shrunk_plan = fix pt.fault_plan 3 in
  let shrunk_point = of_plan shrunk_plan in
  let shrunk_seed =
    match
      List.find_opt
        (fun s -> violates ~step_limit r gc shrunk_point s)
        (List.sort compare seeds)
    with
    | Some s -> s
    | None -> seed
  in
  (shrunk_point, shrunk_seed)

let run ?(step_limit = 200_000) ?(max_shrinks = 8) ~runners ~graphs ~grid ~seeds
    () =
  let cells = ref [] in
  let violations = ref [] in
  let starvations = ref [] in
  let shrinks_left = ref max_shrinks in
  (* Shrink results memoized by the canonical fault-plan key: different
     seeds of one (runner, graph, point) cell usually collapse onto the
     same shrunk plan, and re-deriving it would burn the shrink budget on
     repeats instead of fresh failures. *)
  let shrink_memo : (string, fault_point * int) Hashtbl.t = Hashtbl.create 8 in
  let shrink_key r gc (pt : fault_point) =
    let p = pt.fault_plan in
    Printf.sprintf "%s|%s|%g,%g,%d,%g,%g" r.r_name gc.g_name p.Faults.drop
      p.Faults.duplicate p.Faults.max_delay p.Faults.corrupt p.Faults.kill
  in
  List.iter
    (fun r ->
      List.iter
        (fun gc ->
          List.iter
            (fun pt ->
              let terminated = ref 0 in
              let false_terminated = ref 0 in
              let quiescent = ref 0 in
              let step_limited = ref 0 in
              let total_deliveries = ref 0 in
              let total_bits = ref 0 in
              List.iter
                (fun seed ->
                  let g, s = execute ~step_limit r gc pt seed in
                  total_deliveries := !total_deliveries + s.deliveries;
                  total_bits := !total_bits + s.total_bits;
                  match s.outcome with
                  | Engine.Terminated -> (
                      match unreached_of g s with
                      | [] -> incr terminated
                      | unreached ->
                          incr false_terminated;
                          let shrunk_point, shrunk_seed =
                            let key = shrink_key r gc pt in
                            match Hashtbl.find_opt shrink_memo key with
                            | Some cached -> cached
                            | None ->
                                if !shrinks_left > 0 then begin
                                  decr shrinks_left;
                                  let res =
                                    shrink ~step_limit r gc pt seed seeds
                                  in
                                  Hashtbl.add shrink_memo key res;
                                  res
                                end
                                else (pt, seed)
                          in
                          violations :=
                            {
                              v_runner = r.r_name;
                              v_graph = gc.g_name;
                              v_point = pt;
                              v_seed = seed;
                              unreached;
                              shrunk_point;
                              shrunk_seed;
                            }
                            :: !violations)
                  | Engine.Quiescent ->
                      incr quiescent;
                      let starved = unreached_of g s in
                      if starved <> [] || s.fault_stats.dead_edges <> [] then
                        starvations :=
                          {
                            s_runner = r.r_name;
                            s_graph = gc.g_name;
                            s_point = pt;
                            s_seed = seed;
                            starved;
                            dark_edges = s.fault_stats.dead_edges;
                          }
                          :: !starvations
                  | Engine.Step_limit | Engine.Cancelled -> incr step_limited)
                seeds;
              cells :=
                {
                  c_runner = r.r_name;
                  c_graph = gc.g_name;
                  c_point = pt;
                  runs = List.length seeds;
                  terminated = !terminated;
                  false_terminated = !false_terminated;
                  quiescent = !quiescent;
                  step_limited = !step_limited;
                  total_deliveries = !total_deliveries;
                  total_bits = !total_bits;
                }
                :: !cells)
            grid)
        graphs)
    runners;
  {
    cells = List.rev !cells;
    violations = List.rev !violations;
    starvations = List.rev !starvations;
  }

let sound res = res.violations = []

(* {1 JSON} *)

let buf_plan b (p : Faults.plan) =
  Buffer.add_string b
    (Printf.sprintf
       "{\"drop\":%g,\"duplicate\":%g,\"max_delay\":%d,\"corrupt\":%g,\"kill\":%g}"
       p.drop p.duplicate p.max_delay p.corrupt p.kill)

let buf_point b pt =
  Buffer.add_string b "{\"label\":";
  Obs.Json.buf_string b pt.label;
  Buffer.add_string b ",\"plan\":";
  buf_plan b pt.fault_plan;
  Buffer.add_char b '}'

let buf_cell b c =
  Buffer.add_string b "{\"runner\":";
  Obs.Json.buf_string b c.c_runner;
  Buffer.add_string b ",\"graph\":";
  Obs.Json.buf_string b c.c_graph;
  Buffer.add_string b ",\"point\":";
  buf_point b c.c_point;
  Buffer.add_string b
    (Printf.sprintf
       ",\"runs\":%d,\"terminated\":%d,\"false_terminated\":%d,\"quiescent\":%d,\"step_limited\":%d,\"total_deliveries\":%d,\"total_bits\":%d}"
       c.runs c.terminated c.false_terminated c.quiescent c.step_limited
       c.total_deliveries c.total_bits)

let buf_violation b v =
  Buffer.add_string b "{\"runner\":";
  Obs.Json.buf_string b v.v_runner;
  Buffer.add_string b ",\"graph\":";
  Obs.Json.buf_string b v.v_graph;
  Buffer.add_string b ",\"point\":";
  buf_point b v.v_point;
  Buffer.add_string b (Printf.sprintf ",\"seed\":%d,\"unreached\":" v.v_seed);
  Obs.Json.buf_int_list b v.unreached;
  Buffer.add_string b ",\"shrunk_point\":";
  buf_point b v.shrunk_point;
  Buffer.add_string b (Printf.sprintf ",\"shrunk_seed\":%d}" v.shrunk_seed)

let buf_starvation b s =
  Buffer.add_string b "{\"runner\":";
  Obs.Json.buf_string b s.s_runner;
  Buffer.add_string b ",\"graph\":";
  Obs.Json.buf_string b s.s_graph;
  Buffer.add_string b ",\"point\":";
  buf_point b s.s_point;
  Buffer.add_string b (Printf.sprintf ",\"seed\":%d,\"starved\":" s.s_seed);
  Obs.Json.buf_int_list b s.starved;
  Buffer.add_string b ",\"dark_edges\":";
  Obs.Json.buf_int_list b s.dark_edges;
  Buffer.add_char b '}'

let to_json res =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"cells\":";
  Obs.Json.buf_list b buf_cell res.cells;
  Buffer.add_string b ",\"violations\":";
  Obs.Json.buf_list b buf_violation res.violations;
  Buffer.add_string b ",\"starvations\":";
  Obs.Json.buf_list b buf_starvation res.starvations;
  Buffer.add_string b ",\"sound\":";
  Buffer.add_string b (if sound res then "true" else "false");
  Buffer.add_char b '}';
  Buffer.contents b
