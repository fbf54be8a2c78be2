type recovery = Stop | Amnesia | Restore

let describe_recovery = function
  | Stop -> "stop"
  | Amnesia -> "amnesia"
  | Restore -> "restore"

type plan = {
  crash : float;
  max_downtime : int;
  recovery : recovery;
  stutter : float;
}

let immortal = { crash = 0.0; max_downtime = 1; recovery = Amnesia; stutter = 0.0 }

let check_prob name p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Vfaults: %s must be in [0,1]" name)

let validate p =
  check_prob "crash" p.crash;
  check_prob "stutter" p.stutter;
  if p.max_downtime < 1 then invalid_arg "Vfaults: max_downtime must be >= 1";
  p

let plan ?(crash = 0.0) ?(max_downtime = 1) ?(recovery = Amnesia)
    ?(stutter = 0.0) () =
  validate { crash; max_downtime; recovery; stutter }

let is_immortal p = p.crash = 0.0 && p.stutter = 0.0

type crash_event = {
  cv : int;
  at : int;
  downtime : int;
  c_recovery : recovery;
}

let event ~vertex ~at ?(downtime = 1) ?(recovery = Amnesia) () =
  if at < 1 then invalid_arg "Vfaults.event: at must be >= 1";
  if downtime < 1 then invalid_arg "Vfaults.event: downtime must be >= 1";
  { cv = vertex; at; downtime; c_recovery = recovery }

type t =
  | No_vfaults
  | Spec of { plan_of : int -> plan; script : crash_event list; seed : int }

let none = No_vfaults

let uniform p ~seed =
  let p = validate p in
  if is_immortal p then No_vfaults
  else Spec { plan_of = (fun _ -> p); script = []; seed }

let script events =
  match events with
  | [] -> No_vfaults
  | _ -> Spec { plan_of = (fun _ -> immortal); script = events; seed = 0 }

let is_none = function No_vfaults -> true | Spec _ -> false

type fate = Deliver | Stutter | Down_drop | Crash of recovery * int

module Instance = struct
  type vfaults = t

  type vstate =
    | Up
    | Down of { mutable left : int }  (** Deliveries still to swallow. *)
    | Stopped

  type vertex_state = {
    prng : Prng.t;
    plan : plan;
    mutable up_count : int;  (** Deliveries offered while up, 1-based. *)
    mutable status : vstate;
    mutable pending : crash_event list;  (** Scripted crashes, by [at]. *)
  }

  type t = {
    spec : vfaults;
    vertices : (int, vertex_state) Hashtbl.t;
    mutable stopped : int list;
    mutable crashes : int;
    mutable restarts : int;
    mutable down_drops : int;
    mutable stuttered : int;
  }

  let start spec =
    {
      spec;
      vertices = Hashtbl.create 16;
      stopped = [];
      crashes = 0;
      restarts = 0;
      down_drops = 0;
      stuttered = 0;
    }

  (* Each vertex draws from its own PRNG stream derived from (seed, vertex),
     so its fate does not depend on traffic elsewhere — the same property
     the edge-fault streams have, and what lets a chaos replay under
     another schedule reproduce it. *)
  let vertex_state inst ~vertex =
    match Hashtbl.find_opt inst.vertices vertex with
    | Some st -> st
    | None ->
        let seed, plan_of, script =
          match inst.spec with
          | No_vfaults -> invalid_arg "Vfaults.Instance: no vertex faults"
          | Spec { seed; plan_of; script } -> (seed, plan_of, script)
        in
        let pending =
          List.sort
            (fun a b -> compare a.at b.at)
            (List.filter (fun e -> e.cv = vertex) script)
        in
        let st =
          {
            prng = Prng.create (seed lxor ((vertex + 1) * 0x7F4A7C15));
            plan = plan_of vertex;
            up_count = 0;
            status = Up;
            pending;
          }
        in
        Hashtbl.add inst.vertices vertex st;
        st

  let crash inst st ~vertex recovery downtime =
    inst.crashes <- inst.crashes + 1;
    (match recovery with
    | Stop ->
        st.status <- Stopped;
        inst.stopped <- vertex :: inst.stopped
    | Amnesia | Restore -> st.status <- Down { left = downtime });
    Crash (recovery, downtime)

  let on_deliver inst ~vertex =
    match inst.spec with
    | No_vfaults -> Deliver
    | Spec _ -> (
        let st = vertex_state inst ~vertex in
        match st.status with
        | Stopped ->
            inst.down_drops <- inst.down_drops + 1;
            Down_drop
        | Down d ->
            inst.down_drops <- inst.down_drops + 1;
            d.left <- d.left - 1;
            if d.left <= 0 then begin
              st.status <- Up;
              inst.restarts <- inst.restarts + 1
            end;
            Down_drop
        | Up -> (
            st.up_count <- st.up_count + 1;
            (* [<=], not [=]: a crash whose [at] slipped past (duplicate
               [at]s on one vertex, or an [at] consumed while the vertex
               was down) fires on the next up offer instead of jamming the
               queue. *)
            match st.pending with
            | e :: rest when e.at <= st.up_count ->
                st.pending <- rest;
                crash inst st ~vertex e.c_recovery e.downtime
            | _ ->
                let p = st.plan in
                if p.crash > 0.0 && Prng.chance st.prng p.crash then
                  let downtime =
                    if p.recovery = Stop then 0
                    else 1 + Prng.int st.prng p.max_downtime
                  in
                  crash inst st ~vertex p.recovery downtime
                else if p.stutter > 0.0 && Prng.chance st.prng p.stutter then begin
                  inst.stuttered <- inst.stuttered + 1;
                  Stutter
                end
                else Deliver))

  let is_up inst ~vertex =
    match inst.spec with
    | No_vfaults -> true
    | Spec _ -> (
        match Hashtbl.find_opt inst.vertices vertex with
        | Some st -> st.status = Up
        | None -> true)

  let stopped inst = List.sort compare inst.stopped
  let crashes inst = inst.crashes
  let restarts inst = inst.restarts
  let down_drops inst = inst.down_drops
  let stuttered inst = inst.stuttered
end
