(* The long-lived broadcast service.

   One [t] owns: the graph table (family specs resolved once at startup,
   shared read-only by every session), the session table, a bounded
   admission queue drained by [workers] domains, per-connection submission
   credits, and a server-wide [Obs.Registry] into which every finished
   session's private registry is rolled up under the "sessions." prefix.

   [handle_line] is the whole protocol: the stdio/socket event loop, the
   in-process tests and the bench all drive the same function, so wire
   coverage is engine coverage.  It is safe to call from any domain — the
   tables take their own locks, server counters are atomic, and the merge
   lock serializes every touch of the shared registry (whose cell updates
   are plain stores).

   Metrics reconciliation contract: a worker merges a session's registry
   {e before} publishing its final state, so any client that has observed
   a session finish observes a server registry that already contains it —
   "sessions.engine.deliveries" equals the sum of [deliveries] over the
   results the client has collected, exactly.

   Durability contract (with [journal] configured): a submit is journaled
   {e before} its acknowledgement leaves [handle_line], and a session's
   terminal record is appended before the state becomes pollable — so
   "acknowledged" implies "replayable", and a cancel or failure a client
   saw is on disk.  The journal's durability rule: [Submitted],
   [Cancelled] and [Failed] records are fsynced before [append] returns;
   [Result] records are only written through, because a lost [Result] is
   recomputed: replay reruns the session deterministically and checks the
   digest of any [Result] that survived.  On restart, [create] replays the
   log by taking again the steps the live server took when it wrote each
   record (see "Journal replay = recovery" below). *)

module R = Obs.Registry

type config = {
  graphs : (string * string) list;  (* name -> family spec *)
  workers : int;  (* 0 = drain via [step] (tests) *)
  max_queue : int;
  credits : int;  (* max unfinished sessions per connection *)
  step_limit : int;  (* default when a submit names none *)
  sample_every : int;  (* per-session Obs sampling cadence *)
  max_line : int;
  journal : string option;  (* WAL path; None = no durability *)
  journal_sync : bool;  (* durability rule's fsyncs; false = write only *)
}

let default_config =
  {
    graphs = [ ("small", "comb:8") ];
    workers = 2;
    max_queue = 64;
    credits = 32;
    step_limit = 10_000_000;
    sample_every = 1 lsl 20;
    max_line = Wire.default_max_line;
    journal = None;
    journal_sync = true;
  }

type recovery = {
  rec_replayed : int;  (* submits re-executed during recovery *)
  rec_verified : int;  (* re-executed results matching their digest *)
  rec_mismatched : int;  (* determinism violations — should be 0 *)
  rec_completed : int;  (* acked-but-unfinished submits finished now *)
  rec_cancelled : int;  (* restored from Cancelled records, not re-run *)
  rec_failed : int;  (* restored from Failed records, not re-run *)
  rec_orphans : int;  (* terminal records with no surviving submit *)
  rec_unreplayable : int;  (* submits this config can no longer run *)
  rec_torn : bool;  (* the log had a damaged tail (truncated away) *)
}

type t = {
  cfg : config;
  graphs : (string * Digraph.t) list;  (* built once at boot, shared *)
  sessions : Session.table;
  queue : Session.t Sched.t;
  registry : R.t;
  merge_lock : Mutex.t;
  c_submitted : R.acounter;
  c_completed : R.acounter;
  c_cancelled : R.acounter;
  c_failed : R.acounter;
  c_rejected_overloaded : R.acounter;
  c_rejected_no_credit : R.acounter;
  c_frames : R.acounter;
  c_frame_errors : R.acounter;
  c_overflows : R.acounter;
  c_key_hits : R.acounter;
  shutdown_flag : bool Atomic.t;
  credits_tbl : (int, int) Hashtbl.t;
  credits_lock : Mutex.t;
  keys_tbl : (string, string) Hashtbl.t;  (* idempotency key -> session id *)
  keys_lock : Mutex.t;
  journal : Journal.t option;
  recovery : recovery option;
  mutable worker_doms : unit Domain.t list;
  mutable stopped : bool;
}

(* A session's telemetry sink.  Serve reads only its registry (watch diffs
   and the rollups); the timeline is there because the engine writes its
   spans and samples into one.  At the serve sampling cadence a run records
   a handful of events, so a small ring holds them all — the 64k-slot
   default would be half a megabyte allocated per session, which is most
   of a worker's allocation and sets its GC pace. *)
let session_obs t = Obs.create ~sample_every:t.cfg.sample_every ~capacity:1024 ()

(* The [Cancelled] reason [handle_submit] journals when admission refuses
   a submit it already journaled. *)
let rollback_reason = "rollback"

(* {1 Journal appends} *)

let journal_append t r = Option.iter (fun j -> Journal.append j r) t.journal

(* The terminal record for a finished session.  [Shutting_down] failures
   are deliberately NOT journaled: those sessions were accepted but
   drained at shutdown, and skipping their record is what makes the next
   boot re-execute them — zero acknowledged-submit loss. *)
let journal_record_of id (state : Session.state) ~deliveries ~total_bits =
  match state with
  | Session.Done json ->
      Some
        (Journal.Result
           {
             id;
             digest = Journal.digest json;
             outcome = "done";
             deliveries;
             total_bits;
           })
  | Session.Cancelled reason -> Some (Journal.Cancelled { id; reason })
  | Session.Failed (Proto.Shutting_down, _) -> None
  | Session.Failed (code, msg) ->
      Some (Journal.Failed { id; code = Proto.code_string code; msg })
  | Session.Queued | Session.Running -> None

(* {1 Credits} *)

let credit_take t conn =
  Mutex.lock t.credits_lock;
  let used = Option.value ~default:0 (Hashtbl.find_opt t.credits_tbl conn) in
  let got = used < t.cfg.credits in
  if got then Hashtbl.replace t.credits_tbl conn (used + 1);
  Mutex.unlock t.credits_lock;
  got

let credit_release t conn =
  Mutex.lock t.credits_lock;
  (match Hashtbl.find_opt t.credits_tbl conn with
  | Some used when used > 0 -> Hashtbl.replace t.credits_tbl conn (used - 1)
  | _ -> ());
  Mutex.unlock t.credits_lock

(* {1 Idempotency keys}

   A key is claimed under [keys_lock] {e before} admission, so two
   racing submits with the same key serialize here: the loser sees the
   winner's session id (the [Some] of [key_claim]) even while that
   session is still in flight.  [key_unclaim] removes a key only while
   the given id holds it, so a failed admission frees exactly its own
   claim for the next attempt. *)

let key_claim t (sub : Proto.submit) =
  match sub.Proto.sub_key with
  | None -> None
  | Some k ->
      Mutex.lock t.keys_lock;
      let orig = Hashtbl.find_opt t.keys_tbl k in
      if orig = None then Hashtbl.replace t.keys_tbl k sub.Proto.sub_id;
      Mutex.unlock t.keys_lock;
      orig

let key_unclaim t k id =
  Mutex.lock t.keys_lock;
  (match Hashtbl.find_opt t.keys_tbl k with
  | Some cur when cur = id -> Hashtbl.remove t.keys_tbl k
  | _ -> ());
  Mutex.unlock t.keys_lock

(* Undo an admission: the session, its credit and its key go, so the id
   and the key are free again.  The overload path and the replay of its
   rollback record both take this step. *)
let drop t (s : Session.t) =
  Session.remove t.sessions s.Session.id;
  credit_release t s.Session.conn;
  Option.iter
    (fun k -> key_unclaim t k s.Session.id)
    s.Session.submit.Proto.sub_key

(* {1 Journal replay = recovery}

   Replay does again what the live server did when it wrote each record,
   as one fold over the log into the session table:
   - [Submitted] adds the session and claims its key, as admission did;
   - a rollback [Cancelled] [drop]s it, as the overload path did;
   - any other [Cancelled], and [Failed], restore it as journaled;
   - [Result] marks it as owing a digest check.
   The server writes at most one terminal record per admitted session, so
   the first one wins; a terminal record with no session is an orphan.
   Then one pass reruns, in submit order, every session the fold left
   [Queued]: a surviving [Result]'s digest is checked against the fresh
   bytes, and a session without one (acknowledged but unfinished, or its
   [Result] lost) journals the [Result] it now produced.  A restored
   cancel or failure is never rerun — that would resurrect work the
   client saw end — so it needs neither its graph nor its protocol. *)

let replay_journal t ~(scan : Journal.scan) =
  let now = Unix.gettimeofday () in
  let digests = Hashtbl.create 16 (* id -> digest of its surviving Result *)
  and replayed = ref 0
  and verified = ref 0
  and mismatched = ref 0
  and completed = ref 0
  and cancelled = ref 0
  and failed = ref 0
  and orphans = ref 0
  and unreplayable = ref 0 in
  let restore ?(deliveries = 0) ?(total_bits = 0) (s : Session.t) state =
    Session.transition t.sessions s (fun s ->
        s.Session.state <- state;
        s.Session.credit_released <- true;
        s.Session.deliveries <- deliveries;
        s.Session.total_bits <- total_bits;
        s.Session.t_finished <- now)
  in
  (* The session a terminal record closes: [None] for an orphan, or once
     the session's first terminal record has closed it. *)
  let unclosed id =
    match Session.find t.sessions id with
    | None ->
        incr orphans;
        None
    | Some s when Session.state t.sessions s = Session.Queued ->
        if Hashtbl.mem digests id then None else Some s
    | Some _ -> None
  in
  let restore_as id count state =
    Option.iter
      (fun s ->
        incr count;
        restore s state)
      (unclosed id)
  in
  List.iter
    (fun (r : Journal.record) ->
      match r with
      | Journal.Submitted { id; line } -> (
          match Proto.parse_request line with
          | Ok (Proto.Submit sub) when sub.Proto.sub_id = id ->
              if Result.is_ok (Session.add t.sessions ~conn:(-1) ~now sub) then
                ignore (key_claim t sub)
          | Ok _ | Error _ -> incr unreplayable)
      | Journal.Cancelled { id; reason } when reason = rollback_reason ->
          Option.iter (drop t) (unclosed id)
      | Journal.Cancelled { id; reason } ->
          restore_as id cancelled (Session.Cancelled reason)
      | Journal.Failed { id; code; msg } ->
          restore_as id failed (Session.Failed (Proto.code_of_string code, msg))
      | Journal.Result { id; digest; _ } ->
          Option.iter (fun _ -> Hashtbl.add digests id digest) (unclosed id))
    scan.Journal.records;
  let unrunnable s code msg =
    incr unreplayable;
    restore s (Session.Failed (code, msg))
  in
  (* Re-execute one journaled submit on this process's graphs.  [stop]
     never fires: the original run finished (or was owed a finish), and
     replay telemetry merges under "recovery." so the "sessions."
     reconciliation contract stays exact. *)
  let rerun (s : Session.t) =
    let sub = s.Session.submit in
    match
      ( Anonet.protocol_of_name sub.Proto.sub_protocol,
        List.assoc_opt sub.Proto.sub_graph t.graphs )
    with
    | None, _ ->
        unrunnable s Proto.Unknown_protocol
          (Printf.sprintf "unreplayable: unknown protocol %S"
             sub.Proto.sub_protocol)
    | _, None ->
        unrunnable s Proto.Unknown_graph
          (Printf.sprintf "unreplayable: unknown graph %S" sub.Proto.sub_graph)
    | Some _, Some g -> (
        let obs = session_obs t in
        match
          Runner.run ~stop:(fun () -> false) ~obs
            ~step_limit:t.cfg.step_limit sub g
        with
        | exception ex ->
            unrunnable s Proto.Bad_request
              ("replay raised: " ^ Printexc.to_string ex)
        | { Runner.json; r_deliveries; r_total_bits; _ } ->
            Mutex.lock t.merge_lock;
            R.merge ~into:t.registry ~prefix:"recovery."
              (R.snapshot obs.Obs.registry);
            Mutex.unlock t.merge_lock;
            incr replayed;
            (match Hashtbl.find_opt digests s.Session.id with
            | Some d ->
                if Journal.digest json = d then incr verified
                else incr mismatched
            | None ->
                incr completed;
                Option.iter (journal_append t)
                  (journal_record_of s.Session.id (Session.Done json)
                     ~deliveries:r_deliveries ~total_bits:r_total_bits));
            restore s (Session.Done json) ~deliveries:r_deliveries
              ~total_bits:r_total_bits)
  in
  List.iter
    (function
      | Journal.Submitted { id; _ } -> (
          match Session.find t.sessions id with
          | Some s when Session.state t.sessions s = Session.Queued -> rerun s
          | _ -> ())
      | _ -> ())
    scan.Journal.records;
  let rec_summary =
    {
      rec_replayed = !replayed;
      rec_verified = !verified;
      rec_mismatched = !mismatched;
      rec_completed = !completed;
      rec_cancelled = !cancelled;
      rec_failed = !failed;
      rec_orphans = !orphans;
      rec_unreplayable = !unreplayable;
      rec_torn = scan.Journal.torn;
    }
  in
  (* Mirror the summary into plain counters so [metrics] exposes exactly
     what [Server.recovery] reports — same reconciliation discipline as
     the sessions rollup. *)
  let mirror name v = R.add (R.counter t.registry name) v in
  mirror "server.recovered.replayed" rec_summary.rec_replayed;
  mirror "server.recovered.verified" rec_summary.rec_verified;
  mirror "server.recovered.mismatched" rec_summary.rec_mismatched;
  mirror "server.recovered.completed" rec_summary.rec_completed;
  mirror "server.recovered.cancelled" rec_summary.rec_cancelled;
  mirror "server.recovered.failed" rec_summary.rec_failed;
  mirror "server.recovered.orphans" rec_summary.rec_orphans;
  mirror "server.recovered.unreplayable" rec_summary.rec_unreplayable;
  mirror "server.recovered.torn" (if rec_summary.rec_torn then 1 else 0);
  rec_summary

let create ?(config = default_config) () =
  if config.workers < 0 then Error "workers must be >= 0"
  else if config.max_queue < 1 then Error "max_queue must be >= 1"
  else if config.credits < 1 then Error "credits must be >= 1"
  else if config.graphs = [] then Error "at least one --graph is required"
  else
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | (name, spec) :: rest -> (
          if List.mem_assoc name acc then
            Error (Printf.sprintf "duplicate graph name %S" name)
          else
            match Digraph.Families.of_spec spec with
            | Ok g -> resolve ((name, g) :: acc) rest
            | Error e -> Error (Printf.sprintf "graph %S: %s" name e))
    in
    match resolve [] config.graphs with
    | Error _ as e -> e
    | Ok graphs -> (
        let journal_open =
          match config.journal with
          | None -> Ok None
          | Some path -> (
              match Journal.open_append ~sync:config.journal_sync path with
              | Ok (j, scan) -> Ok (Some (j, scan))
              | Error e -> Error (Printf.sprintf "journal %s: %s" path e))
        in
        match journal_open with
        | Error _ as e -> e
        | Ok journal_open ->
            let registry = R.create () in
            let t =
              {
                cfg = config;
                graphs;
                sessions = Session.create_table ();
                queue = Sched.create ~cap:config.max_queue;
                registry;
                merge_lock = Mutex.create ();
                c_submitted = R.acounter registry "server.sessions.submitted";
                c_completed = R.acounter registry "server.sessions.completed";
                c_cancelled = R.acounter registry "server.sessions.cancelled";
                c_failed = R.acounter registry "server.sessions.failed";
                c_rejected_overloaded =
                  R.acounter registry "server.rejected.overloaded";
                c_rejected_no_credit =
                  R.acounter registry "server.rejected.no_credit";
                c_frames = R.acounter registry "server.frames";
                c_frame_errors = R.acounter registry "server.frame_errors";
                c_overflows = R.acounter registry "server.wire.overflows";
                c_key_hits = R.acounter registry "server.sessions.key_hits";
                shutdown_flag = Atomic.make false;
                credits_tbl = Hashtbl.create 8;
                credits_lock = Mutex.create ();
                keys_tbl = Hashtbl.create 16;
                keys_lock = Mutex.create ();
                journal = Option.map fst journal_open;
                recovery = None;
                worker_doms = [];
                stopped = false;
              }
            in
            let recovery =
              Option.map (fun (_, scan) -> replay_journal t ~scan) journal_open
            in
            Ok { t with recovery })

(* {1 Session completion}

   The single door through which a live session becomes finished, in two
   steps.  First the win is claimed under the table lock without
   publishing anything: [credit_released] is flipped there, so a cancel
   racing a worker cannot double-release.  Then the winner appends the
   terminal record and only after that publishes the state, so whatever a
   poller sees is already in the journal (durable, for every kind replay
   cannot recompute).  Last, the connection credit is released and the
   outcome counter bumped. *)

let finish t (s : Session.t) (state : Session.state) =
  let won =
    Session.transition t.sessions s (fun s ->
        let won =
          (not s.Session.credit_released)
          && not (Session.finished s.Session.state)
        in
        if won then begin
          s.Session.credit_released <- true;
          s.Session.t_finished <- Unix.gettimeofday ()
        end;
        won)
  in
  if won then begin
    Option.iter (journal_append t)
      (journal_record_of s.Session.id state ~deliveries:s.Session.deliveries
         ~total_bits:s.Session.total_bits);
    Session.transition t.sessions s (fun s -> s.Session.state <- state);
    credit_release t s.Session.conn;
    R.aincr
      (match state with
      | Done _ -> t.c_completed
      | Cancelled _ -> t.c_cancelled
      | _ -> t.c_failed)
  end;
  won

(* {1 Executing one session (worker side)} *)

let execute t (s : Session.t) =
  let claim =
    Session.transition t.sessions s (fun s ->
        match s.Session.state with
        | Queued when not s.Session.credit_released ->
            s.Session.state <- Running;
            true
        | _ -> false  (* cancelled while queued; nothing to do *))
  in
  if claim then begin
    let sub = s.Session.submit in
    let g = List.assoc sub.Proto.sub_graph t.graphs in
    let obs = session_obs t in
    (* Publish the live registry for [watch] before the run starts, so a
       watcher never misses the early deliveries of a session it saw
       transition to Running.  Only the registry is kept: the timeline
       ring is garbage once the run ends. *)
    Session.transition t.sessions s (fun s ->
        s.Session.registry <- Some obs.Obs.registry);
    (* The stop hook runs between deliveries on this worker's domain: the
       cancel flag is checked every time, the deadline only every 1024
       polls so [gettimeofday] stays off the hot path. *)
    let deadline =
      Option.map
        (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0))
        sub.Proto.sub_deadline_ms
    in
    let countdown = ref 0 in
    let stop () =
      Atomic.get s.Session.cancel
      ||
      match deadline with
      | None -> false
      | Some d ->
          decr countdown;
          !countdown <= 0
          && begin
               countdown := 1024;
               Unix.gettimeofday () > d
             end
    in
    match
      Runner.run ~stop ~obs ~step_limit:t.cfg.step_limit sub g
    with
    | exception e ->
        ignore
          (finish t s
             (Session.Failed (Proto.Bad_request, Printexc.to_string e)))
    | res ->
        (* Roll the session's telemetry up BEFORE publishing the final
           state: metrics seen after a result are never behind it. *)
        Mutex.lock t.merge_lock;
        R.merge ~into:t.registry ~prefix:"sessions."
          (R.snapshot obs.Obs.registry);
        Mutex.unlock t.merge_lock;
        Session.transition t.sessions s (fun s ->
            s.Session.deliveries <- res.Runner.r_deliveries;
            s.Session.total_bits <- res.Runner.r_total_bits);
        let state =
          match res.Runner.r_outcome with
          | Runtime.Engine.Cancelled ->
              if Atomic.get s.Session.cancel then Session.Cancelled "cancel"
              else Session.Cancelled "deadline"
          | _ -> Session.Done res.Runner.json
        in
        ignore (finish t s state)
  end

let step t =
  match Sched.try_pop t.queue with
  | None -> false
  | Some s ->
      execute t s;
      true

let worker_loop t () =
  let rec go () =
    match Sched.pop t.queue with
    | None -> ()
    | Some s ->
        execute t s;
        go ()
  in
  go ()

let start_workers t =
  if t.worker_doms = [] && t.cfg.workers > 0 then
    t.worker_doms <-
      List.init t.cfg.workers (fun _ -> Domain.spawn (worker_loop t))

(* Close the queue and join the workers; accepted sessions drain first. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.shutdown_flag true;
    Sched.close t.queue;
    List.iter Domain.join t.worker_doms;
    t.worker_doms <- [];
    (* Anything still queued was never claimed: fail it visibly rather
       than leaving clients polling a session that will never finish.
       [Shutting_down] failures carry no journal record, so the next
       boot re-executes exactly these sessions. *)
    let rec drain () =
      match Sched.try_pop t.queue with
      | None -> ()
      | Some s ->
          ignore
            (finish t s (Session.Failed (Proto.Shutting_down, "server stopped")));
          drain ()
    in
    drain ();
    Option.iter Journal.close t.journal
  end

let shutting_down t = Atomic.get t.shutdown_flag

(* {1 Request dispatch} *)

(* Answer a duplicate-key submit with the {e original} session's state:
   its stored result when done, its error when failed/cancelled, and a
   [key_of] pointer while it is still in flight. *)
let reply_for_original t ~id orig_id =
  match Session.find t.sessions orig_id with
  | None ->
      (* The claim map named a session that was rolled back between our
         lookup and now; tell the client to retry the submit. *)
      Proto.error ~id Proto.Unknown_id
        (Printf.sprintf "idempotency key raced a rolled-back submit %S"
           orig_id)
  | Some s -> (
      match Session.state t.sessions s with
      | Session.Done json -> Proto.ok ~id json
      | Session.Failed (code, msg) -> Proto.error ~id code msg
      | Session.Cancelled reason ->
          Proto.error ~id Proto.Cancelled_error
            (Printf.sprintf "session cancelled (%s)" reason)
      | (Session.Queued | Session.Running) as st ->
          Proto.ok ~id
            (Printf.sprintf "{\"state\":%s,\"key_of\":%s}"
               (Obs.Json.escape (Session.state_name st))
               (Obs.Json.escape orig_id)))

let handle_submit t ~conn ~raw (sub : Proto.submit) =
  let id = sub.Proto.sub_id in
  if Atomic.get t.shutdown_flag then
    Proto.error ~id Proto.Shutting_down "server is shutting down"
  else if Option.is_none (Anonet.protocol_of_name sub.Proto.sub_protocol) then
    Proto.error ~id Proto.Unknown_protocol
      (Printf.sprintf "unknown protocol %S (one of: %s)"
         sub.Proto.sub_protocol
         (String.concat ", " Anonet.protocol_names))
  else if not (List.mem_assoc sub.Proto.sub_graph t.graphs) then
    Proto.error ~id Proto.Unknown_graph
      (Printf.sprintf "unknown graph %S (one of: %s)" sub.Proto.sub_graph
         (String.concat ", " (List.map fst t.graphs)))
  else
    match key_claim t sub with
    | Some orig_id ->
        R.aincr t.c_key_hits;
        reply_for_original t ~id orig_id
    | None -> (
        let unclaim () =
          Option.iter (fun k -> key_unclaim t k id) sub.Proto.sub_key
        in
        if not (credit_take t conn) then begin
          unclaim ();
          R.aincr t.c_rejected_no_credit;
          Proto.error ~id Proto.No_credit
            (Printf.sprintf "connection has %d unfinished sessions"
               t.cfg.credits)
        end
        else
          match Session.add t.sessions ~conn ~now:(Unix.gettimeofday ()) sub with
          | Error () ->
              credit_release t conn;
              unclaim ();
              Proto.error ~id Proto.Duplicate_id
                (Printf.sprintf "session %S already exists" id)
          | Ok s ->
              (* Durability point: the submit record is on disk before any
                 acknowledgement leaves this function. *)
              journal_append t (Journal.Submitted { id; line = raw });
              if Sched.try_push t.queue s then begin
                R.aincr t.c_submitted;
                Proto.ok ~id (Proto.state_result "queued")
              end
              else begin
                (* Close the journaled submit with a rollback record, then
                   [drop] it; replay takes the same step on that record. *)
                journal_append t
                  (Journal.Cancelled { id; reason = rollback_reason });
                drop t s;
                R.aincr t.c_rejected_overloaded;
                Proto.error ~id Proto.Overloaded
                  (Printf.sprintf "admission queue full (%d)" t.cfg.max_queue)
              end)

let with_session t id f =
  match Session.find t.sessions id with
  | None ->
      Proto.error ~id Proto.Unknown_id (Printf.sprintf "no session %S" id)
  | Some s -> f s

let handle_status t id =
  with_session t id (fun s ->
      Proto.ok ~id
        (Proto.state_result (Session.state_name (Session.state t.sessions s))))

let handle_result t id =
  with_session t id (fun s ->
      match Session.state t.sessions s with
      | Session.Done json -> Proto.ok ~id json
      | Session.Failed (code, msg) -> Proto.error ~id code msg
      | Session.Cancelled reason ->
          Proto.error ~id Proto.Cancelled_error
            (Printf.sprintf "session cancelled (%s)" reason)
      | (Session.Queued | Session.Running) as st ->
          Proto.error ~id Proto.Not_done
            (Printf.sprintf "session is %s" (Session.state_name st)))

let handle_cancel t id =
  with_session t id (fun s ->
      Atomic.set s.Session.cancel true;
      (* A queued session dies right here; a running one is asked to stop
         (the worker will observe the flag between deliveries) and a
         finished one is left alone — cancel is idempotent. *)
      if Session.state t.sessions s = Session.Queued then
        ignore (finish t s (Session.Cancelled "cancel"));
      (* Still live here means another caller has claimed the finish and
         is journaling it, or the worker is yet to see the flag. *)
      let answer =
        match Session.state t.sessions s with
        | Session.Queued | Session.Running -> "cancelling"
        | st -> Session.state_name st
      in
      Proto.ok ~id (Proto.state_result answer))

(* [watch] streams a session's telemetry incrementally: each call answers
   the registry diff since the same session's previous watch, plus the
   current lifecycle state, so a polling client sees a long run move.
   Before the worker installs the registry (still queued) the metrics
   object is empty; after completion the final diff drains the tail. *)
let handle_watch t id =
  with_session t id (fun s ->
      let state, metrics =
        Session.transition t.sessions s (fun s ->
            let state = Session.state_name s.Session.state in
            match s.Session.registry with
            | None -> (state, R.to_json [])
            | Some reg ->
                let now = R.snapshot reg in
                let d = R.diff ~older:s.Session.watch_seen ~newer:now in
                s.Session.watch_seen <- now;
                (state, R.to_json d))
      in
      Proto.ok ~id
        (Printf.sprintf "{\"state\":%s,\"metrics\":%s}"
           (Obs.Json.escape state) metrics))

let metrics_json t =
  Mutex.lock t.merge_lock;
  let g = R.gauge t.registry "server.queue_depth" in
  R.set g (Sched.length t.queue);
  (match t.journal with
  | Some j ->
      let st = Journal.stats j in
      R.set (R.gauge t.registry "server.journal.appends") st.Journal.s_appends;
      R.set (R.gauge t.registry "server.journal.fsyncs") st.Journal.s_fsyncs;
      R.set (R.gauge t.registry "server.journal.bytes") st.Journal.s_bytes
  | None -> ());
  let live =
    Session.fold t.sessions
      (fun s acc -> if Session.finished s.Session.state then acc else acc + 1)
      0
  in
  R.set (R.gauge t.registry "server.sessions.live") live;
  let snap = R.snapshot t.registry in
  Mutex.unlock t.merge_lock;
  R.to_json snap

let handle_line t ~conn line =
  R.aincr t.c_frames;
  match Proto.parse_request line with
  | Error (id, code, msg) ->
      R.aincr t.c_frame_errors;
      Proto.error ?id code msg
  | Ok (Proto.Submit sub) -> handle_submit t ~conn ~raw:line sub
  | Ok (Proto.Status id) -> handle_status t id
  | Ok (Proto.Result id) -> handle_result t id
  | Ok (Proto.Cancel id) -> handle_cancel t id
  | Ok (Proto.Watch id) -> handle_watch t id
  | Ok Proto.Metrics -> Proto.ok (metrics_json t)
  | Ok Proto.Shutdown ->
      Atomic.set t.shutdown_flag true;
      Proto.ok (Proto.state_result "shutting_down")

(* An over-long frame: the wire layer already discarded to the next
   newline; count it on both the total-error and the overflow-specific
   counters and answer in-band. *)
let handle_overflow t =
  R.aincr t.c_frame_errors;
  R.aincr t.c_overflows;
  Proto.error Proto.Parse_error
    (Printf.sprintf "line exceeds %d bytes" t.cfg.max_line)

(* {1 Introspection (tests and bench)} *)

let registry t = t.registry
let recovery t = t.recovery
let journal_stats t = Option.map Journal.stats t.journal

let await t id =
  Option.map (fun s -> Session.await t.sessions s) (Session.find t.sessions id)

let session_times t id =
  Option.map
    (fun (s : Session.t) -> (s.Session.t_submitted, s.Session.t_finished))
    (Session.find t.sessions id)

(* {1 The stdio / socket event loop}

   Single-threaded [Unix.select]: protocol work is cheap (submission is
   enqueue-and-ack; the engines run on worker domains), so one loop thread
   multiplexes stdin and every socket connection without further locking.
   Connection 0 is stdin/stdout; accepted sockets get ids from 1. *)

type conn_io = {
  cid : int;
  fd : Unix.file_descr;
  reply_fd : Unix.file_descr;  (* = fd except for the stdin/stdout pair *)
  w : Wire.t;
}

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  try go 0 with Unix.Unix_error _ -> ()

let serve_loop ?socket ?(stdio = false) t =
  if socket = None && not stdio then
    invalid_arg "Server.serve_loop: need a socket path, --stdio, or both";
  (* A client that dies mid-reply must cost us an EPIPE error code, not
     the whole process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  start_workers t;
  let listener =
    Option.map
      (fun path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 16;
        (fd, path))
      socket
  in
  let conns = Hashtbl.create 8 in
  let next_cid = ref 1 in
  if stdio then
    Hashtbl.replace conns Unix.stdin
      {
        cid = 0;
        fd = Unix.stdin;
        reply_fd = Unix.stdout;
        w = Wire.create ~max_line:t.cfg.max_line ();
      };
  let stdio_only = stdio && listener = None in
  let buf = Bytes.create 65536 in
  let drop c =
    Hashtbl.remove conns c.fd;
    if c.cid > 0 then try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let handle_events c events =
    List.iter
      (fun ev ->
        let resp =
          match ev with
          | Wire.Line line -> handle_line t ~conn:c.cid line
          | Wire.Overflow -> handle_overflow t
        in
        write_all c.reply_fd (resp ^ "\n"))
      events
  in
  while not (Atomic.get t.shutdown_flag) do
    let fds =
      (match listener with Some (fd, _) -> [ fd ] | None -> [])
      @ Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    match Unix.select fds [] [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            match listener with
            | Some (lfd, _) when fd = lfd ->
                let cfd, _ = Unix.accept lfd in
                let cid = !next_cid in
                incr next_cid;
                Hashtbl.replace conns cfd
                  {
                    cid;
                    fd = cfd;
                    reply_fd = cfd;
                    w = Wire.create ~max_line:t.cfg.max_line ();
                  }
            | _ -> (
                match Hashtbl.find_opt conns fd with
                | None -> ()
                | Some c -> (
                    match Unix.read c.fd buf 0 (Bytes.length buf) with
                    | exception Unix.Unix_error _ -> drop c
                    | 0 ->
                        drop c;
                        if c.cid = 0 && stdio_only then
                          Atomic.set t.shutdown_flag true
                    | n -> handle_events c (Wire.feed c.w buf 0 n))))
          ready
  done;
  Hashtbl.iter (fun _ c -> if c.cid > 0 then drop c) conns;
  Option.iter
    (fun (fd, path) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    listener;
  stop t
