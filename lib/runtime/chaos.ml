type fault =
  | Kill_edge of int
  | Crash_vertex of Vfaults.crash_event
  | Churn_edge of Faults.event

let describe_fault = function
  | Kill_edge e -> Printf.sprintf "kill-edge:%d" e
  | Crash_vertex c ->
      Printf.sprintf "crash:%d@%d/%d/%s" c.Vfaults.cv c.at c.downtime
        (Vfaults.describe_recovery c.c_recovery)
  | Churn_edge e -> Faults.describe_event e

let canonical_key fs =
  String.concat ";" (List.sort compare (List.map describe_fault fs))

let compile fs =
  let killed =
    List.filter_map (function Kill_edge e -> Some e | _ -> None) fs
  in
  let crashes =
    List.filter_map (function Crash_vertex c -> Some c | _ -> None) fs
  in
  (* A churn script admits at most one [Add] per edge; random trials may
     draw several, so keep the first and let shrinking do the rest. *)
  let script =
    let seen_add = Hashtbl.create 4 in
    List.filter_map
      (function
        | Churn_edge (Faults.Add { edge; _ } as e) ->
            if Hashtbl.mem seen_add edge then None
            else begin
              Hashtbl.add seen_add edge ();
              Some e
            end
        | Churn_edge e -> Some e
        | _ -> None)
      fs
  in
  let faults =
    if killed = [] then Faults.script script
    else
      Faults.per_edge ~script
        (fun e ->
          if List.mem e killed then Faults.plan ~kill:1.0 ()
          else Faults.reliable)
        ~seed:0
  in
  (faults, Vfaults.script crashes)

(* The degraded coverage obligation: reachable from [s] through live edges
   and vertices that never crash-stop.  A crash-stopped vertex is excused
   (it may die before completing a single receive, and nothing can heal a
   permanently deaf process) and conservatively assumed never to forward —
   an under-approximation of what a run might still cover, so [required]
   vertices are ones {e every} correct execution must reach. *)
let required g fs =
  let n = Digraph.n_vertices g in
  (* A churned-in edge ([Add]) is absent until traffic heals it, and no
     correct execution may depend on that happening — treat it like a
     killed edge for the obligation.  A churned-out edge ([Remove]) heals
     after a bounded number of offers and excuses nothing. *)
  let killed =
    List.filter_map
      (function
        | Kill_edge e -> Some e
        | Churn_edge (Faults.Add { edge; _ }) -> Some edge
        | _ -> None)
      fs
  in
  let stops = Array.make n false in
  List.iter
    (function
      | Crash_vertex c when c.Vfaults.c_recovery = Vfaults.Stop ->
          if c.cv >= 0 && c.cv < n then stops.(c.cv) <- true
      | _ -> ())
    fs;
  let req = Array.make n false in
  let s = Digraph.source g in
  let queue = Queue.create () in
  req.(s) <- true;
  Queue.add s queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    if not stops.(u) || u = s then
      for j = 0 to Digraph.out_degree g u - 1 do
        let e = Digraph.edge_index g u j in
        if not (List.mem e killed) then begin
          let v, _ = Digraph.out_port_target_port g u j in
          if not req.(v) then begin
            req.(v) <- true;
            Queue.add v queue
          end
        end
      done
  done;
  (* Excuse crash-stopped vertices from the obligation itself. *)
  for v = 0 to n - 1 do
    if stops.(v) then req.(v) <- false
  done;
  req

(* {1 Runners} *)

type summary = {
  outcome : Engine.outcome;
  visited : bool array;
  deliveries : int;
  total_bits : int;
  fault_stats : Engine.fault_stats;
  vfault_stats : Engine.vertex_fault_stats;
  schedule : int list;
}

type runner = {
  r_name : string;
  run :
    scheduler:Scheduler.t ->
    record:bool ->
    faults:Faults.t ->
    vfaults:Vfaults.t ->
    supervisor:Supervisor.config option ->
    step_limit:int ->
    ?obs:Obs.t ->
    ?lineage:Obs.Lineage.t ->
    Digraph.t ->
    summary;
}

module Of_protocol (P : Protocol_intf.PROTOCOL) = struct
  module E = Engine.Make (P)

  let runner ?name () =
    {
      r_name = (match name with Some n -> n | None -> P.name);
      run =
        (fun ~scheduler ~record ~faults ~vfaults ~supervisor ~step_limit ?obs
             ?lineage g ->
          let popped = ref [] in
          let on_pop = if record then Some (fun s -> popped := s :: !popped) else None in
          let r =
            E.run ~scheduler ~faults ~vfaults ?supervisor ~step_limit ?obs
              ?lineage ?on_pop g
          in
          {
            outcome = r.outcome;
            visited = r.visited;
            deliveries = r.deliveries;
            total_bits = r.total_bits;
            fault_stats = r.fault_stats;
            vfault_stats = r.vfault_stats;
            schedule = List.rev !popped;
          });
    }
end

(* The one coverage rule: required-but-unvisited vertices.  Non-empty at
   [Terminated] is a soundness violation; plain rate faults excuse nothing,
   so a campaign checks against [required g []]. *)
let missing g fs s =
  let req = required g fs in
  List.filter (fun v -> req.(v) && not s.visited.(v)) (Digraph.vertices g)

(* {1 Shrinking} *)

let first_failing fails moves x =
  List.fold_left
    (fun x move ->
      match List.find_opt fails (move x) with Some y -> y | None -> x)
    x moves

let rec fixpoint ?(limit = max_int) pass x =
  if limit = 0 then x
  else
    let x' = pass x in
    if x' = x then x else fixpoint ~limit:(limit - 1) pass x'

(* {1 Search} *)

type graph_case = { g_name : string; build : seed:int -> Digraph.t }
type map = { map : 'a 'b. ('a -> 'b) -> 'a array -> 'b array }

let sequential = { map = Array.map }

type config = {
  budget : int;
  max_faults : int;
  seed : int;
  p_edge : float;
  recoveries : Vfaults.recovery list;
  max_at : int;
  max_downtime : int;
  step_limit : int;
  supervisor : Supervisor.config option;
  p_churn : float;
  churn_t : int option;
}

let config ?(budget = 500) ?(max_faults = 4) ?(seed = 0) ?(p_edge = 0.5)
    ?(recoveries = [ Vfaults.Stop; Vfaults.Amnesia; Vfaults.Restore ])
    ?(max_at = 6) ?(max_downtime = 4) ?(step_limit = 200_000) ?supervisor
    ?(p_churn = 0.0) ?churn_t () =
  if budget < 1 then invalid_arg "Chaos.config: budget must be >= 1";
  if max_faults < 1 then invalid_arg "Chaos.config: max_faults must be >= 1";
  if recoveries = [] then invalid_arg "Chaos.config: recoveries must be non-empty";
  if max_at < 1 then invalid_arg "Chaos.config: max_at must be >= 1";
  if max_downtime < 1 then invalid_arg "Chaos.config: max_downtime must be >= 1";
  let unit_range name p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Chaos.config: %s must be in [0,1]" name)
  in
  unit_range "p_edge" p_edge;
  unit_range "p_churn" p_churn;
  (match churn_t with
  | Some t when t < 1 -> invalid_arg "Chaos.config: churn_t must be >= 1"
  | _ -> ());
  {
    budget;
    max_faults;
    seed;
    p_edge;
    recoveries;
    max_at;
    max_downtime;
    step_limit;
    supervisor;
    p_churn;
    churn_t;
  }

type kind = Unsound | Starved | Livelock

let describe_kind = function
  | Unsound -> "unsound"
  | Starved -> "starved"
  | Livelock -> "livelock"

type witness = {
  w_runner : string;
  w_graph : string;
  w_kind : kind;
  w_trial : int;
  w_original_size : int;
  w_faults : fault list;
  w_missing : int list;
  w_outcome : Engine.outcome;
  w_deliveries : int;
  w_total_bits : int;
  w_schedule : int list;
}

type result = {
  trials_run : int;
  hits : int;
  duplicates : int;
  witnesses : witness list;
  unsound : int;
  starved : int;
  livelocked : int;
}

(* One atom, drawn from the trial's PRNG stream.  The source is immortal by
   construction (it never receives), so it is never a crash target.  The
   churn coin is drawn only when [p_churn > 0], so configs without churn
   consume exactly the PRNG stream they always did and existing seeds keep
   their witnesses byte-for-byte. *)
let gen_fault cfg prng g =
  let ne = Digraph.n_edges g in
  let n = Digraph.n_vertices g in
  let s = Digraph.source g in
  if cfg.p_churn > 0.0 && ne > 0 && Prng.chance prng cfg.p_churn then begin
    let edge = Prng.int prng ne in
    let at = 1 + Prng.int prng cfg.max_at in
    if Prng.chance prng 0.25 then Churn_edge (Faults.add_event ~edge ~at)
    else
      Churn_edge
        (Faults.remove_event ~edge ~at
           ~down_for:(Prng.int prng (cfg.max_downtime + 1))
           ())
  end
  else if (ne > 0 && Prng.chance prng cfg.p_edge) || n <= 1 then
    Kill_edge (Prng.int prng ne)
  else begin
    let v = ref (Prng.int prng n) in
    while !v = s do
      v := Prng.int prng n
    done;
    Crash_vertex
      (Vfaults.event ~vertex:!v ~at:(1 + Prng.int prng cfg.max_at)
         ~downtime:(1 + Prng.int prng cfg.max_downtime)
         ~recovery:(Prng.pick_list prng cfg.recoveries)
         ())
  end

let trials cfg ~graph =
  Array.init cfg.budget (fun i ->
      (* A stream per trial, split off (seed, trial), so evaluating trials
         in parallel or in any order draws identical fault sets. *)
      let prng = Prng.create (cfg.seed lxor ((i + 1) * 0x9E3779B9)) in
      let size = 1 + Prng.int prng cfg.max_faults in
      List.init size (fun _ -> gen_fault cfg prng graph))

(* The T-interval contract, when configured, is installed for accounting
   only ([with_contract], not [constrain]): fates are untouched, so replays
   stay byte-identical, while [fault_stats.window_violations] reports how
   badly the witness breaches the contract. *)
let compiled cfg ~graph fs =
  let faults, vfaults = compile fs in
  match cfg.churn_t with
  | None -> (faults, vfaults)
  | Some t -> (Faults.with_contract ~t_interval:t graph faults, vfaults)

let eval_trial cfg r ~graph fs =
  let faults, vfaults = compiled cfg ~graph fs in
  let s =
    r.run ~scheduler:Scheduler.Fifo ~record:false ~faults ~vfaults
      ~supervisor:cfg.supervisor ~step_limit:cfg.step_limit graph
  in
  match missing graph fs s with
  | [] ->
      (* Full coverage but the run never stopped spinning: the
         amnesiac-flooding breakage class (a churned-in back edge closes a
         cycle and tokens circulate forever). *)
      if s.outcome = Engine.Step_limit then Some (Livelock, []) else None
  | m -> Some ((if s.outcome = Engine.Terminated then Unsound else Starved), m)

(* Parameter-lowering steps, tried in this order on every atom: a crash's
   downtime to 1, a churn outage to 0 offers, then the atom's position to
   its first offer or delivery.  Kills have no parameter to lower. *)
let lowerings =
  [
    (function
    | Crash_vertex c when c.Vfaults.downtime > 1 ->
        Some (Crash_vertex { c with Vfaults.downtime = 1 })
    | Churn_edge (Faults.Remove r) when r.down_for > 0 ->
        Some (Churn_edge (Faults.Remove { r with down_for = 0 }))
    | _ -> None);
    (function
    | Crash_vertex c when c.Vfaults.at > 1 ->
        Some (Crash_vertex { c with Vfaults.at = 1 })
    | Churn_edge (Faults.Remove r) when r.at > 1 ->
        Some (Churn_edge (Faults.Remove { r with at = 1 }))
    | Churn_edge (Faults.Add a) when a.at > 1 ->
        Some (Churn_edge (Faults.Add { a with at = 1 }))
    | _ -> None);
  ]

(* Delta-debugging shrink preserving the violation kind: bisection (keep
   either half while it still fails) to a fixpoint, then single-atom
   removal to a fixpoint, then one left-to-right pass of parameter
   lowering over the {e current} set — every move is accepted only if the
   whole reduced set still produces the same kind. *)
let shrink cfg r ~graph kind fs =
  let fails fs =
    match eval_trial cfg r ~graph fs with
    | Some (k, _) -> k = kind
    | None -> false
  in
  let halves fs =
    let half = List.length fs / 2 in
    if half = 0 then []
    else
      [
        List.filteri (fun i _ -> i < half) fs;
        List.filteri (fun i _ -> i >= half) fs;
      ]
  in
  let removals fs =
    if List.length fs <= 1 then []
    else List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) fs) fs
  in
  let lower i step fs =
    match step (List.nth fs i) with
    | Some f -> [ List.mapi (fun j f' -> if j = i then f else f') fs ]
    | None -> []
  in
  let fs = fixpoint (first_failing fails [ halves ]) fs in
  let fs = fixpoint (first_failing fails [ removals ]) fs in
  let lowers =
    List.init (List.length fs) (fun i -> List.map (lower i) lowerings)
  in
  first_failing fails (List.concat lowers) fs

let run ?(map = sequential) cfg ~runners ~graphs =
  let trials_run = ref 0 in
  let hits = ref 0 in
  let duplicates = ref 0 in
  let witnesses = ref [] in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun gc ->
          let graph = gc.build ~seed:cfg.seed in
          let sets = trials cfg ~graph in
          let verdicts = map.map (eval_trial cfg r ~graph) sets in
          trials_run := !trials_run + Array.length sets;
          (* Each shrink depends on its own hit alone, so the shrinks go
             through [map]; the dedup and the witness runs then walk the
             hits in trial order, so the result does not depend on
             [map]. *)
          let found =
            Array.to_seqi verdicts
            |> Seq.filter_map (fun (i, v) -> Option.map (fun (kind, _) -> (i, kind)) v)
            |> Array.of_seq
          in
          let shrunk =
            map.map (fun (i, kind) -> (i, kind, shrink cfg r ~graph kind sets.(i))) found
          in
          hits := !hits + Array.length found;
          (* Dedup by the canonical key of the {e shrunk} set: many random
             supersets collapse onto one minimal core, and re-witnessing it
             would just repeat the replay run. *)
          let fresh =
            List.filter
              (fun (_, kind, fs) ->
                let key =
                  r.r_name ^ "|" ^ gc.g_name ^ "|" ^ describe_kind kind ^ "|"
                  ^ canonical_key fs
                in
                let dup = Hashtbl.mem seen key in
                if dup then incr duplicates else Hashtbl.add seen key ();
                not dup)
              (Array.to_list shrunk)
          in
          let witness (i, kind, fs) =
            let faults, vfaults = compiled cfg ~graph fs in
            let s =
              r.run ~scheduler:Scheduler.Fifo ~record:true ~faults ~vfaults
                ~supervisor:cfg.supervisor ~step_limit:cfg.step_limit graph
            in
            {
              w_runner = r.r_name;
              w_graph = gc.g_name;
              w_kind = kind;
              w_trial = i;
              w_original_size = List.length sets.(i);
              w_faults = fs;
              w_missing = missing graph fs s;
              w_outcome = s.outcome;
              w_deliveries = s.deliveries;
              w_total_bits = s.total_bits;
              w_schedule = s.schedule;
            }
          in
          witnesses := List.rev_append (List.map witness fresh) !witnesses)
        graphs)
    runners;
  let witnesses = List.rev !witnesses in
  {
    trials_run = !trials_run;
    hits = !hits;
    duplicates = !duplicates;
    witnesses;
    unsound = List.length (List.filter (fun w -> w.w_kind = Unsound) witnesses);
    starved = List.length (List.filter (fun w -> w.w_kind = Starved) witnesses);
    livelocked =
      List.length (List.filter (fun w -> w.w_kind = Livelock) witnesses);
  }

let replay ?obs ?lineage cfg r gc w =
  let graph = gc.build ~seed:cfg.seed in
  let faults, vfaults = compiled cfg ~graph w.w_faults in
  r.run
    ~scheduler:(Scheduler.Replay w.w_schedule)
    ~record:false ~faults ~vfaults ~supervisor:cfg.supervisor
    ~step_limit:cfg.step_limit ?obs ?lineage graph

let confirms w (s : summary) =
  let missing_of visited =
    (* The witness's graph is not at hand here; compare against the
       recorded missing set by re-deriving it from the replay's visited
       flags and the witness's own obligation. *)
    List.filter (fun v -> not visited.(v)) w.w_missing
  in
  s.outcome = w.w_outcome
  && s.deliveries = w.w_deliveries
  && s.total_bits = w.w_total_bits
  && missing_of s.visited = w.w_missing

(* {1 JSON} *)

let buf_fault b f =
  match f with
  | Kill_edge e ->
      Buffer.add_string b (Printf.sprintf "{\"kind\":\"kill_edge\",\"edge\":%d}" e)
  | Crash_vertex c ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"kind\":\"crash\",\"vertex\":%d,\"at\":%d,\"downtime\":%d,\"recovery\":\"%s\"}"
           c.Vfaults.cv c.at c.downtime
           (Vfaults.describe_recovery c.c_recovery))
  | Churn_edge (Faults.Remove { edge; at; down_for }) ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"kind\":\"churn_remove\",\"edge\":%d,\"at\":%d,\"down_for\":%d}"
           edge at down_for)
  | Churn_edge (Faults.Add { edge; at }) ->
      Buffer.add_string b
        (Printf.sprintf "{\"kind\":\"churn_add\",\"edge\":%d,\"at\":%d}" edge at)

let buf_witness b w =
  Buffer.add_string b "{\"runner\":";
  Obs.Json.buf_string b w.w_runner;
  Buffer.add_string b ",\"graph\":";
  Obs.Json.buf_string b w.w_graph;
  Buffer.add_string b
    (Printf.sprintf ",\"kind\":\"%s\",\"trial\":%d,\"original_size\":%d,\"faults\":"
       (describe_kind w.w_kind) w.w_trial w.w_original_size);
  Obs.Json.buf_list b buf_fault w.w_faults;
  Buffer.add_string b ",\"missing\":";
  Obs.Json.buf_int_list b w.w_missing;
  Buffer.add_string b
    (Printf.sprintf ",\"outcome\":\"%s\",\"deliveries\":%d,\"total_bits\":%d,\"schedule\":"
       (match w.w_outcome with
       | Engine.Terminated -> "terminated"
       | Engine.Quiescent -> "quiescent"
       | Engine.Step_limit -> "step_limit"
       | Engine.Cancelled -> "cancelled")
       w.w_deliveries w.w_total_bits);
  Obs.Json.buf_int_list b w.w_schedule;
  Buffer.add_char b '}'

let to_json res =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"trials\":%d,\"hits\":%d,\"duplicates\":%d,\"unsound\":%d,\"starved\":%d,\"livelocked\":%d,\"witnesses\":"
       res.trials_run res.hits res.duplicates res.unsound res.starved
       res.livelocked);
  Obs.Json.buf_list b buf_witness res.witnesses;
  Buffer.add_char b '}';
  Buffer.contents b
