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

type runner = {
  r_name : string;
  run : faults:Faults.t -> step_limit:int -> Digraph.t -> Chaos.summary;
}

module Of_protocol (P : Protocol_intf.PROTOCOL) = struct
  module R = Chaos.Of_protocol (P)

  let runner ?(scheduler = Scheduler.Fifo) ?name () =
    let r = R.runner ?name () in
    {
      r_name = r.r_name;
      run =
        (fun ~faults ~step_limit g ->
          r.run ~scheduler ~record:false ~faults ~vfaults:Vfaults.none
            ~supervisor:None ~step_limit g);
    }
end

type graph_case = Chaos.graph_case = {
  g_name : string;
  build : seed:int -> Digraph.t;
}

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

let execute ~step_limit r gc pt seed =
  let g = gc.build ~seed in
  let s = r.run ~faults:(Faults.uniform pt.fault_plan ~seed) ~step_limit g in
  (s, Chaos.missing g [] s)

let violates ~step_limit r gc pt seed =
  let s, unreached = execute ~step_limit r gc pt seed in
  s.outcome = Engine.Terminated && unreached <> []

(* Shrink a failing point: walk every rate down through a small ladder
   while the same (runner, graph, seed) still fails, at most three passes;
   then scan the sweep's seeds in order for the smallest one failing at
   the shrunk rates. *)
let shrink ~step_limit r gc pt seed seeds =
  let fails plan = violates ~step_limit r gc (of_plan plan) seed in
  let lower_float v = if v = 0.0 then [] else [ 0.0; v /. 4.0; v /. 2.0 ] in
  let lower_int v = if v = 0 then [] else [ 0; v / 2 ] in
  let rates : (Faults.plan -> Faults.plan list) list =
    [
      (fun p -> List.map (fun v -> { p with drop = v }) (lower_float p.drop));
      (fun p ->
        List.map (fun v -> { p with duplicate = v }) (lower_float p.duplicate));
      (fun p ->
        List.map (fun v -> { p with max_delay = v }) (lower_int p.max_delay));
      (fun p ->
        List.map (fun v -> { p with corrupt = v }) (lower_float p.corrupt));
      (fun p -> List.map (fun v -> { p with kill = v }) (lower_float p.kill));
    ]
  in
  let shrunk_plan =
    Chaos.fixpoint ~limit:3 (Chaos.first_failing fails rates) pt.fault_plan
  in
  let shrunk_point = of_plan shrunk_plan in
  let failing = violates ~step_limit r gc shrunk_point in
  ( shrunk_point,
    Option.value ~default:seed (List.find_opt failing (List.sort compare seeds))
  )

(* One (runner, graph, point) cell over every seed.  The cell's first
   violation is shrunk once and its witness shared by the cell's other
   violations: they differ only in the seed, which the shrink rescans. *)
let sweep_cell ~step_limit ~seeds (r, gc, pt) =
  let runs =
    List.map (fun seed -> (seed, execute ~step_limit r gc pt seed)) seeds
  in
  let ended o =
    List.filter (fun (_, ((s : Chaos.summary), _)) -> s.outcome = o) runs
  in
  let terminated = ended Engine.Terminated in
  let quiescent = ended Engine.Quiescent in
  let false_terminated = List.filter (fun (_, (_, u)) -> u <> []) terminated in
  let violations =
    match false_terminated with
    | [] -> []
    | (seed, _) :: _ ->
        let shrunk_point, shrunk_seed = shrink ~step_limit r gc pt seed seeds in
        List.map
          (fun (seed, (_, unreached)) ->
            {
              v_runner = r.r_name;
              v_graph = gc.g_name;
              v_point = pt;
              v_seed = seed;
              unreached;
              shrunk_point;
              shrunk_seed;
            })
          false_terminated
  in
  let starvations =
    List.filter_map
      (fun (seed, ((s : Chaos.summary), starved)) ->
        if starved = [] && s.fault_stats.dead_edges = [] then None
        else
          Some
            {
              s_runner = r.r_name;
              s_graph = gc.g_name;
              s_point = pt;
              s_seed = seed;
              starved;
              dark_edges = s.fault_stats.dead_edges;
            })
      quiescent
  in
  let sum f = List.fold_left (fun acc (_, (s, _)) -> acc + f s) 0 runs in
  let n_terminated = List.length terminated in
  let n_violations = List.length violations in
  ( {
      c_runner = r.r_name;
      c_graph = gc.g_name;
      c_point = pt;
      runs = List.length runs;
      terminated = n_terminated - n_violations;
      false_terminated = n_violations;
      quiescent = List.length quiescent;
      step_limited = List.length runs - n_terminated - List.length quiescent;
      total_deliveries = sum (fun s -> s.deliveries);
      total_bits = sum (fun s -> s.total_bits);
    },
    violations,
    starvations )

let run ?(map = Chaos.sequential) ?(step_limit = 200_000) ~runners ~graphs
    ~grid ~seeds () =
  let jobs =
    List.concat_map
      (fun r ->
        List.concat_map (fun gc -> List.map (fun pt -> (r, gc, pt)) grid) graphs)
      runners
  in
  let parts =
    Array.to_list (map.map (sweep_cell ~step_limit ~seeds) (Array.of_list jobs))
  in
  {
    cells = List.map (fun (c, _, _) -> c) parts;
    violations = List.concat_map (fun (_, v, _) -> v) parts;
    starvations = List.concat_map (fun (_, _, s) -> s) parts;
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
