(* Session records and the server-wide session table.

   A session is one submitted protocol run.  Its lifecycle is
   Queued -> Running -> (Done | Failed), or -> Cancelled from either live
   state.  All state transitions happen under the table lock and broadcast
   [cond], so [await] is a plain condition-variable wait; the [cancel]
   flag is additionally an [Atomic.t] because the engine's cooperative
   [stop] hook polls it from a worker domain without taking the lock. *)

type state =
  | Queued
  | Running
  | Done of string  (* pre-rendered result JSON, echoed verbatim *)
  | Cancelled of string  (* reason: "cancel" | "deadline" *)
  | Failed of Proto.error_code * string

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done _ -> "done"
  | Cancelled _ -> "cancelled"
  | Failed _ -> "failed"

let finished = function
  | Queued | Running -> false
  | Done _ | Cancelled _ | Failed _ -> true

type t = {
  id : string;
  conn : int;  (* submitting connection, for credit accounting *)
  submit : Proto.submit;
  cancel : bool Atomic.t;
  mutable state : state;
  mutable credit_released : bool;
  mutable deliveries : int;  (* from the report, for reconciliation *)
  mutable total_bits : int;
  mutable registry : Obs.Registry.t option;
      (* live per-session telemetry, for [watch] *)
  mutable watch_seen : Obs.Registry.snapshot;
      (* registry state the last watch reply already covered *)
  mutable t_submitted : float;  (* wall clock, latency measurement only — *)
  mutable t_finished : float;  (* never part of the result payload *)
}

type table = {
  tbl : (string, t) Hashtbl.t;
  lock : Mutex.t;
  cond : Condition.t;
}

let create_table () =
  { tbl = Hashtbl.create 64; lock = Mutex.create (); cond = Condition.create () }

let locked tab f =
  Mutex.lock tab.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock tab.lock) f

(* Insert a fresh Queued session; [Error ()] if the id is taken (ids are
   never reused — a finished session stays queryable until shutdown). *)
let add tab ~conn ~now (submit : Proto.submit) =
  locked tab (fun () ->
      if Hashtbl.mem tab.tbl submit.Proto.sub_id then Error ()
      else begin
        let s =
          {
            id = submit.Proto.sub_id;
            conn;
            submit;
            cancel = Atomic.make false;
            state = Queued;
            credit_released = false;
            deliveries = 0;
            total_bits = 0;
            registry = None;
            watch_seen = [];
            t_submitted = now;
            t_finished = 0.0;
          }
        in
        Hashtbl.add tab.tbl s.id s;
        Ok s
      end)

let find tab id = locked tab (fun () -> Hashtbl.find_opt tab.tbl id)

(* Only for rolling back a submission the queue refused — a session that
   ever reached Queued stays in the table for the server's lifetime. *)
let remove tab id = locked tab (fun () -> Hashtbl.remove tab.tbl id)
let state tab s = locked tab (fun () -> s.state)

(* Run [f s] under the lock and broadcast — the one door for transitions. *)
let transition tab s f =
  locked tab (fun () ->
      let r = f s in
      Condition.broadcast tab.cond;
      r)

let await tab s =
  locked tab (fun () ->
      while not (finished s.state) do
        Condition.wait tab.cond tab.lock
      done;
      s.state)

let fold tab f acc =
  locked tab (fun () -> Hashtbl.fold (fun _ s acc -> f s acc) tab.tbl acc)
