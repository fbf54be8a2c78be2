type plan = {
  drop : float;
  duplicate : float;
  max_delay : int;
  corrupt : float;
  kill : float;
  remove : float;
  max_downtime : int;
}

let reliable =
  {
    drop = 0.0;
    duplicate = 0.0;
    max_delay = 0;
    corrupt = 0.0;
    kill = 0.0;
    remove = 0.0;
    max_downtime = 0;
  }

let check_prob name p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Faults: %s must be in [0,1]" name)

let validate p =
  check_prob "drop" p.drop;
  check_prob "corrupt" p.corrupt;
  check_prob "kill" p.kill;
  check_prob "remove" p.remove;
  if p.duplicate < 0.0 || p.duplicate >= 1.0 then
    invalid_arg "Faults: duplicate must be in [0,1)";
  if p.max_delay < 0 then invalid_arg "Faults: max_delay must be >= 0";
  if p.max_downtime < 0 then invalid_arg "Faults: max_downtime must be >= 0";
  p

let plan ?(drop = 0.0) ?(duplicate = 0.0) ?(max_delay = 0) ?(corrupt = 0.0)
    ?(kill = 0.0) ?(remove = 0.0) ?(max_downtime = 0) () =
  validate { drop; duplicate; max_delay; corrupt; kill; remove; max_downtime }

let sends_of p =
  p.drop > 0.0 || p.duplicate > 0.0 || p.max_delay > 0 || p.corrupt > 0.0
  || p.kill > 0.0

type event =
  | Remove of { edge : int; at : int; down_for : int }
  | Add of { edge : int; at : int }

let remove_event ~edge ~at ?(down_for = 1) () =
  if at < 1 then invalid_arg "Faults.remove_event: at must be >= 1";
  if down_for < 0 then invalid_arg "Faults.remove_event: down_for must be >= 0";
  Remove { edge; at; down_for }

let add_event ~edge ~at =
  if at < 1 then invalid_arg "Faults.add_event: at must be >= 1";
  Add { edge; at }

let describe_event = function
  | Remove { edge; at; down_for } ->
      Printf.sprintf "churn-rm:%d@%d/%d" edge at down_for
  | Add { edge; at } -> Printf.sprintf "churn-add:%d@%d" edge at

let event_edge = function Remove { edge; _ } | Add { edge; _ } -> edge

type contract = { protected_edges : bool array; window : int }

(* [sends] and [offers] say which engine hooks a run must call; a spec
   with neither is the reliable static network. *)
type t = {
  plan_of : int -> plan;
  script : event list;
  seed : int;
  churn_seed : int;
  contract : contract option;
  sends : bool;
  offers : bool;
}

let none =
  {
    plan_of = (fun _ -> reliable);
    script = [];
    seed = 0;
    churn_seed = 0;
    contract = None;
    sends = false;
    offers = false;
  }

let is_none s = not (s.sends || s.offers)
let sends s = s.sends
let offers s = s.offers

let uniform ?churn_seed p ~seed =
  let p = validate p in
  let sends = sends_of p and offers = p.remove > 0.0 in
  if not (sends || offers) then none
  else
    {
      none with
      plan_of = (fun _ -> p);
      seed;
      churn_seed = Option.value churn_seed ~default:seed;
      sends;
      offers;
    }

let create ?drop ?duplicate ?max_delay ?corrupt ?kill ?remove ?max_downtime
    ~seed () =
  uniform
    (plan ?drop ?duplicate ?max_delay ?corrupt ?kill ?remove ?max_downtime ())
    ~seed

let validate_script events =
  let adds = Hashtbl.create 4 in
  List.iter
    (function
      | Add { edge; at } ->
          if at < 1 then invalid_arg "Faults.script: add at must be >= 1";
          if Hashtbl.mem adds edge then
            invalid_arg "Faults.script: at most one add per edge";
          Hashtbl.add adds edge ()
      | Remove { at; down_for; _ } ->
          if at < 1 then invalid_arg "Faults.script: remove at must be >= 1";
          if down_for < 0 then
            invalid_arg "Faults.script: down_for must be >= 0")
    events;
  events

let per_edge ?(script = []) f ~seed =
  {
    none with
    plan_of = (fun e -> validate (f e));
    script = validate_script script;
    seed;
    churn_seed = seed;
    sends = true;
    offers = true;
  }

let script = function
  | [] -> none
  | events -> { none with script = validate_script events; offers = true }

(* {1 T-interval connectivity} *)

(* The stable spanning subgraph the T-interval contract protects: a BFS
   out-arborescence from [s] (every reachable vertex keeps one live path
   from the root) plus, for every vertex with a path to [t], one out-edge
   on a shortest such path (the terminal stays fed).  Vertices [s] cannot
   reach, or that cannot reach [t], contribute nothing — the contract
   protects exactly what the coverage and termination obligations need. *)
let skeleton g =
  let n = Digraph.n_vertices g in
  let ne = Digraph.n_edges g in
  let prot = Array.make (Stdlib.max ne 1) false in
  (* BFS tree from s over out-edges. *)
  let seen = Array.make n false in
  let q = Queue.create () in
  let s = Digraph.source g in
  seen.(s) <- true;
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    for j = 0 to Digraph.out_degree g u - 1 do
      let v, _ = Digraph.out_port_target_port g u j in
      if not seen.(v) then begin
        seen.(v) <- true;
        prot.(Digraph.edge_index g u j) <- true;
        Queue.add v q
      end
    done
  done;
  (* Distance to t over reversed edges, then one shortest out-step each. *)
  let t = Digraph.terminal g in
  let dist = Array.make n max_int in
  let preds = Array.make n [] in
  List.iter
    (fun u ->
      for j = 0 to Digraph.out_degree g u - 1 do
        let v, _ = Digraph.out_port_target_port g u j in
        preds.(v) <- u :: preds.(v)
      done)
    (Digraph.vertices g);
  dist.(t) <- 0;
  Queue.add t q;
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    List.iter
      (fun u ->
        if dist.(u) = max_int then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u q
        end)
      preds.(v)
  done;
  List.iter
    (fun u ->
      if u <> t && dist.(u) < max_int then begin
        let found = ref false in
        for j = 0 to Digraph.out_degree g u - 1 do
          if not !found then begin
            let v, _ = Digraph.out_port_target_port g u j in
            if dist.(v) = dist.(u) - 1 then begin
              prot.(Digraph.edge_index g u j) <- true;
              found := true
            end
          end
        done
      end)
    (Digraph.vertices g);
  prot

let with_contract ~t_interval g spec =
  if t_interval < 1 then invalid_arg "Faults: t_interval must be >= 1";
  if is_none spec then spec
  else
    {
      spec with
      contract = Some { protected_edges = skeleton g; window = t_interval };
    }

(* Clamp the adversary to honor the contract: skeleton edges are never
   churned, and every outage on a non-skeleton edge is shorter than
   [t_interval] consecutive offers (a removal swallows [1 + down_for]
   offers, so [down_for <= t_interval - 2]; an add leaves [at - 1] offers
   dead, so [at <= t_interval]).  With [t_interval = 1] no offer may ever
   find an edge dead, i.e. no churn at all. *)
let constrain ~t_interval g spec =
  if t_interval < 1 then invalid_arg "Faults: t_interval must be >= 1";
  let prot = skeleton g in
  let protected_ e = e >= 0 && e < Array.length prot && prot.(e) in
  let cap_down = t_interval - 2 in
  let script =
    List.filter_map
      (fun ev ->
        if protected_ (event_edge ev) then None
        else
          match ev with
          | Remove { edge; at; down_for } ->
              if cap_down < 0 then None
              else
                Some
                  (Remove { edge; at; down_for = Stdlib.min down_for cap_down })
          | Add { edge; at } ->
              if t_interval = 1 then None
              else Some (Add { edge; at = Stdlib.min at t_interval }))
      spec.script
  in
  let plan_of e =
    let p = spec.plan_of e in
    if protected_ e || cap_down < 0 then { p with remove = 0.0 }
    else { p with max_downtime = Stdlib.min p.max_downtime cap_down }
  in
  let offers =
    spec.offers
    && (script <> []
       ||
       let ne = Digraph.n_edges g in
       let rec go e = e < ne && ((plan_of e).remove > 0.0 || go (e + 1)) in
       go 0)
  in
  if offers then
    {
      spec with
      plan_of;
      script;
      contract = Some { protected_edges = prot; window = t_interval };
    }
  else if spec.sends then { spec with plan_of; script = []; offers = false }
  else none

(* {1 Per-run instances} *)

type copy_fate = { delay : int; flip_bit : bool }
type offer_fate = Cross | Removed of int | Down | Back of [ `Add | `Heal ]

module Instance = struct
  type faults = t

  type churn_status =
    | Unborn  (** Not offered yet: the script has not been applied. *)
    | Up
    | Absent of { mutable left : int; back : [ `Add | `Heal ] }
        (** Offers still to swallow before the edge comes back. *)

  type edge_state = {
    prng : Prng.t;  (** Send coins and corrupt bits. *)
    churn_prng : Prng.t;
    plan : plan;
    mutable dead : bool;
    mutable up_count : int;  (** Offers consumed while up, 1-based. *)
    mutable status : churn_status;
    mutable pending : (int * int) list;
        (** Scripted removals as [(at, down_for)], by [at]. *)
  }

  type t = {
    spec : faults;
    edges : (int, edge_state) Hashtbl.t;
    mutable dead_edges : int list;
    mutable dropped : int;
    mutable extra : int;
    mutable delayed : int;
    mutable adds : int;
    mutable removes : int;
    mutable heals : int;
    mutable lost : int;
    mutable violations : int;
  }

  let start spec =
    {
      spec;
      edges = Hashtbl.create 16;
      dead_edges = [];
      dropped = 0;
      extra = 0;
      delayed = 0;
      adds = 0;
      removes = 0;
      heals = 0;
      lost = 0;
      violations = 0;
    }

  (* Each edge draws from two PRNG streams of its own, derived from
     (seed, edge) and (churn seed, edge), so the faults an edge sees do not
     depend on traffic elsewhere, and its churn clock counts only offers on
     that edge, so a replayed schedule reproduces it. *)
  let edge_state inst ~edge =
    match Hashtbl.find_opt inst.edges edge with
    | Some st -> st
    | None ->
        let s = inst.spec in
        let st =
          {
            prng = Prng.create (s.seed lxor ((edge + 1) * 0x9E3779B9));
            churn_prng =
              Prng.create (s.churn_seed lxor ((edge + 1) * 0x6C8E9CF5));
            plan = s.plan_of edge;
            dead = false;
            up_count = 0;
            status = Unborn;
            pending = [];
          }
        in
        Hashtbl.add inst.edges edge st;
        st

  let on_send inst ~edge =
    let st = edge_state inst ~edge in
    if st.dead then begin
      inst.dropped <- inst.dropped + 1;
      []
    end
    else begin
      let p = st.plan in
      if p.kill > 0.0 && Prng.chance st.prng p.kill then begin
        st.dead <- true;
        inst.dead_edges <- edge :: inst.dead_edges;
        inst.dropped <- inst.dropped + 1;
        []
      end
      else begin
        let copies = ref 1 in
        while p.duplicate > 0.0 && Prng.chance st.prng p.duplicate do
          incr copies
        done;
        inst.extra <- inst.extra + (!copies - 1);
        let fates = ref [] in
        for _ = 1 to !copies do
          if p.drop > 0.0 && Prng.chance st.prng p.drop then
            inst.dropped <- inst.dropped + 1
          else begin
            let delay =
              if p.max_delay = 0 then 0 else Prng.int st.prng (p.max_delay + 1)
            in
            if delay > 0 then inst.delayed <- inst.delayed + 1;
            let flip_bit = p.corrupt > 0.0 && Prng.chance st.prng p.corrupt in
            fates := { delay; flip_bit } :: !fates
          end
        done;
        List.rev !fates
      end
    end

  let corrupt_bit inst ~edge ~length_bits =
    if length_bits <= 0 then invalid_arg "Faults.Instance.corrupt_bit";
    Prng.int (edge_state inst ~edge).prng length_bits

  (* One violation per outage, charged when the outage begins: either the
     outage touches a protected (skeleton) edge at all, or it spans at
     least [window] consecutive offers — both break "some stable spanning
     subgraph is live throughout every window of [window] deliveries". *)
  let note_outage inst ~edge ~dead_offers =
    match inst.spec.contract with
    | None -> ()
    | Some c ->
        let protected_ =
          edge >= 0 && edge < Array.length c.protected_edges
          && c.protected_edges.(edge)
        in
        if protected_ || dead_offers >= c.window then
          inst.violations <- inst.violations + 1

  (* The script applies on an edge's first offer, so an edge that is never
     offered a copy never counts an add or an outage. *)
  let birth inst st ~edge =
    let script = inst.spec.script in
    st.pending <-
      List.stable_sort
        (fun (a, _) (b, _) -> compare a b)
        (List.filter_map
           (function
             | Remove { edge = e; at; down_for } when e = edge ->
                 Some (at, down_for)
             | _ -> None)
           script);
    match
      List.find_map
        (function Add { edge = e; at } when e = edge -> Some at | _ -> None)
        script
    with
    | None -> Up
    | Some at when at <= 1 ->
        (* Degenerate add: present from the first offer on. *)
        inst.adds <- inst.adds + 1;
        Up
    | Some at ->
        note_outage inst ~edge ~dead_offers:(at - 1);
        Absent { left = at - 1; back = `Add }

  let fire_remove inst st ~edge down_for =
    inst.removes <- inst.removes + 1;
    inst.lost <- inst.lost + 1;
    note_outage inst ~edge ~dead_offers:(down_for + 1);
    if down_for = 0 then begin
      (* The edge was gone only for this one offer; it is back before the
         next one, which counts as an immediate heal. *)
      inst.heals <- inst.heals + 1;
      st.status <- Up
    end
    else st.status <- Absent { left = down_for; back = `Heal };
    Removed down_for

  let rec on_offer inst ~edge =
    let st = edge_state inst ~edge in
    match st.status with
    | Unborn ->
        st.status <- birth inst st ~edge;
        on_offer inst ~edge
    | Absent d ->
        inst.lost <- inst.lost + 1;
        d.left <- d.left - 1;
        if d.left <= 0 then begin
          st.status <- Up;
          (match d.back with
          | `Add -> inst.adds <- inst.adds + 1
          | `Heal -> inst.heals <- inst.heals + 1);
          Back d.back
        end
        else Down
    | Up -> (
        st.up_count <- st.up_count + 1;
        (* [<=], not [=]: a removal whose [at] slipped past (duplicate
           [at]s on one edge, or an [at] consumed while the edge was down)
           fires on the next up offer instead of jamming the queue. *)
        match st.pending with
        | (at, down_for) :: rest when at <= st.up_count ->
            st.pending <- rest;
            fire_remove inst st ~edge down_for
        | _ ->
            let p = st.plan in
            if p.remove > 0.0 && Prng.chance st.churn_prng p.remove then
              let down_for =
                if p.max_downtime = 0 then 0
                else Prng.int st.churn_prng (p.max_downtime + 1)
              in
              fire_remove inst st ~edge down_for
            else Cross)

  let is_up inst ~edge =
    match Hashtbl.find_opt inst.edges edge with
    | Some { status = Absent _; _ } -> false
    | _ -> true

  let dead_edges inst = List.sort compare inst.dead_edges
  let dropped_copies inst = inst.dropped
  let extra_copies inst = inst.extra
  let delayed_copies inst = inst.delayed
  let adds inst = inst.adds
  let removes inst = inst.removes
  let heals inst = inst.heals
  let lost inst = inst.lost
  let window_violations inst = inst.violations
end
