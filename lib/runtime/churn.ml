type plan = { remove : float; max_downtime : int }

let stable = { remove = 0.0; max_downtime = 0 }

let check_prob name p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Churn: %s must be in [0,1]" name)

let validate p =
  check_prob "remove" p.remove;
  if p.max_downtime < 0 then invalid_arg "Churn: max_downtime must be >= 0";
  p

let plan ?(remove = 0.0) ?(max_downtime = 0) () =
  validate { remove; max_downtime }

let is_stable p = p.remove = 0.0

type event =
  | Remove of { edge : int; at : int; down_for : int }
  | Add of { edge : int; at : int }

let remove_event ~edge ~at ?(down_for = 1) () =
  if at < 1 then invalid_arg "Churn.remove_event: at must be >= 1";
  if down_for < 0 then invalid_arg "Churn.remove_event: down_for must be >= 0";
  Remove { edge; at; down_for }

let add_event ~edge ~at =
  if at < 1 then invalid_arg "Churn.add_event: at must be >= 1";
  Add { edge; at }

let describe_event = function
  | Remove { edge; at; down_for } ->
      Printf.sprintf "churn-rm:%d@%d/%d" edge at down_for
  | Add { edge; at } -> Printf.sprintf "churn-add:%d@%d" edge at

let event_edge = function Remove { edge; _ } | Add { edge; _ } -> edge

type contract = { protected_edges : bool array; window : int }

type t =
  | No_churn
  | Spec of {
      plan_of : int -> plan;
      script : event list;
      seed : int;
      contract : contract option;
    }

let none = No_churn

let uniform p ~seed =
  let p = validate p in
  if is_stable p then No_churn
  else Spec { plan_of = (fun _ -> p); script = []; seed; contract = None }

let per_edge f ~seed =
  Spec
    { plan_of = (fun e -> validate (f e)); script = []; seed; contract = None }

let validate_script events =
  let adds = Hashtbl.create 4 in
  List.iter
    (function
      | Add { edge; at } ->
          if at < 1 then invalid_arg "Churn.script: add at must be >= 1";
          if Hashtbl.mem adds edge then
            invalid_arg "Churn.script: at most one add per edge";
          Hashtbl.add adds edge ()
      | Remove { at; down_for; _ } ->
          if at < 1 then invalid_arg "Churn.script: remove at must be >= 1";
          if down_for < 0 then
            invalid_arg "Churn.script: down_for must be >= 0")
    events;
  events

let script events =
  match events with
  | [] -> No_churn
  | _ ->
      Spec
        {
          plan_of = (fun _ -> stable);
          script = validate_script events;
          seed = 0;
          contract = None;
        }

let is_none = function No_churn -> true | Spec _ -> false

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
  if t_interval < 1 then invalid_arg "Churn: t_interval must be >= 1";
  match spec with
  | No_churn -> No_churn
  | Spec s ->
      Spec
        {
          s with
          contract = Some { protected_edges = skeleton g; window = t_interval };
        }

(* Clamp the adversary to honor the contract: skeleton edges are never
   churned, and every outage on a non-skeleton edge is shorter than
   [t_interval] consecutive offers (a removal swallows [1 + down_for]
   offers, so [down_for <= t_interval - 2]; an add leaves [at - 1] offers
   dead, so [at <= t_interval]).  With [t_interval = 1] no offer may ever
   find an edge dead, i.e. no churn at all. *)
let constrain ~t_interval g spec =
  if t_interval < 1 then invalid_arg "Churn: t_interval must be >= 1";
  match spec with
  | No_churn -> No_churn
  | Spec s ->
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
                    Some (Remove { edge; at; down_for = Stdlib.min down_for cap_down })
              | Add { edge; at } ->
                  if t_interval = 1 then None
                  else Some (Add { edge; at = Stdlib.min at t_interval }))
          s.script
      in
      let plan_of e =
        let p = s.plan_of e in
        if protected_ e || cap_down < 0 then stable
        else { p with max_downtime = Stdlib.min p.max_downtime cap_down }
      in
      let all_stable =
        script = []
        &&
        let ne = Digraph.n_edges g in
        let rec go e = e >= ne || (is_stable (plan_of e) && go (e + 1)) in
        go 0
      in
      if all_stable then No_churn
      else
        Spec
          {
            plan_of;
            script;
            seed = s.seed;
            contract = Some { protected_edges = prot; window = t_interval };
          }

let of_dynamic events =
  script
    (List.map
       (fun (d : Digraph.Families.dyn_event) ->
         match d.Digraph.Families.de_down_for with
         | Some down_for ->
             remove_event ~edge:d.de_edge ~at:d.de_at ~down_for ()
         | None -> add_event ~edge:d.de_edge ~at:d.de_at)
       events)

(* {1 Per-run instances} *)

type fate =
  | Cross
  | Removed of int
  | Down
  | Back of [ `Add | `Heal ]

module Instance = struct
  type churn = t

  type estate =
    | Up
    | Dead of { mutable left : int; back : [ `Add | `Heal ] }
        (** Offers still to swallow before the edge comes back. *)

  type edge_state = {
    prng : Prng.t;
    plan : plan;
    mutable up_count : int;  (** Offers consumed while up, 1-based. *)
    mutable status : estate;
    mutable pending : event list;  (** Scripted removals, by [at]. *)
  }

  type t = {
    spec : churn;
    edges : (int, edge_state) Hashtbl.t;
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
      adds = 0;
      removes = 0;
      heals = 0;
      lost = 0;
      violations = 0;
    }

  let contract_of inst =
    match inst.spec with No_churn -> None | Spec { contract; _ } -> contract

  (* One violation per outage, charged when the outage begins: either the
     outage touches a protected (skeleton) edge at all, or it spans at
     least [window] consecutive offers — both break "some stable spanning
     subgraph is live throughout every window of [window] deliveries". *)
  let note_outage inst ~edge ~dead_offers =
    match contract_of inst with
    | None -> ()
    | Some c ->
        let protected_ =
          edge >= 0 && edge < Array.length c.protected_edges
          && c.protected_edges.(edge)
        in
        if protected_ || dead_offers >= c.window then
          inst.violations <- inst.violations + 1

  (* Each edge draws from its own PRNG stream derived from (seed, edge), and
     its add/remove clock counts only offers on that edge, so its fate does
     not depend on traffic elsewhere and a replayed schedule reproduces it. *)
  let edge_state inst ~edge =
    match Hashtbl.find_opt inst.edges edge with
    | Some st -> st
    | None ->
        let seed, plan_of, script =
          match inst.spec with
          | No_churn -> invalid_arg "Churn.Instance: no churn"
          | Spec { seed; plan_of; script; _ } -> (seed, plan_of, script)
        in
        let removals =
          List.sort
            (fun a b ->
              match (a, b) with
              | Remove ra, Remove rb -> compare ra.at rb.at
              | _ -> 0)
            (List.filter
               (function
                 | Remove { edge = e; _ } -> e = edge
                 | Add _ -> false)
               script)
        in
        let added_at =
          List.find_map
            (function
              | Add { edge = e; at } when e = edge -> Some at
              | _ -> None)
            script
        in
        let status =
          match added_at with
          | None -> Up
          | Some at when at <= 1 ->
              (* Degenerate add: present from the first offer on. *)
              inst.adds <- inst.adds + 1;
              Up
          | Some at ->
              note_outage inst ~edge ~dead_offers:(at - 1);
              Dead { left = at - 1; back = `Add }
        in
        let st =
          {
            prng = Prng.create (seed lxor ((edge + 1) * 0x6C8E9CF5));
            plan = plan_of edge;
            up_count = 0;
            status;
            pending = removals;
          }
        in
        Hashtbl.add inst.edges edge st;
        st

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
    else st.status <- Dead { left = down_for; back = `Heal };
    Removed down_for

  let on_offer inst ~edge =
    match inst.spec with
    | No_churn -> Cross
    | Spec _ -> (
        let st = edge_state inst ~edge in
        match st.status with
        | Dead d ->
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
               [at]s on one edge, or an [at] consumed while the edge was
               down) fires on the next up offer instead of jamming the
               queue. *)
            match st.pending with
            | Remove { at; down_for; _ } :: rest when at <= st.up_count ->
                st.pending <- rest;
                fire_remove inst st ~edge down_for
            | _ ->
                let p = st.plan in
                if p.remove > 0.0 && Prng.chance st.prng p.remove then
                  let down_for =
                    if p.max_downtime = 0 then 0
                    else Prng.int st.prng (p.max_downtime + 1)
                  in
                  fire_remove inst st ~edge down_for
                else Cross))

  let is_up inst ~edge =
    match inst.spec with
    | No_churn -> true
    | Spec _ -> (
        match Hashtbl.find_opt inst.edges edge with
        | Some st -> st.status = Up
        | None -> true)

  let adds inst = inst.adds
  let removes inst = inst.removes
  let heals inst = inst.heals
  let lost inst = inst.lost
  let window_violations inst = inst.violations
end
