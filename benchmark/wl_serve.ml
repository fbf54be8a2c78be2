(* serve-mixed: one Serve.Server (1 worker domain, fsync'd journal) driven
   by a single closed-loop client on connection 0 that keeps 4 sessions
   outstanding.  A window replays the same mix under fresh ids: a third
   flood on comb:8, a third counting on grid:4x4 and a third general
   broadcast on random:12:5, both under the random scheduler.  The
   engine work per session is small (serve.service_ms_mean, from the same
   submits run directly, is a fraction of a millisecond), so parse,
   validate, journal fsync, queue hand-off, per-session Obs and render make
   up most of what a session costs end to end.

   Every window gets a fresh server, booted and stopped outside the timed
   region: a finished session keeps its Obs timeline (~0.5 MB) for the
   server's lifetime, so one long-lived server would grow by about 0.5 GB
   per thousand sessions. *)

module H = Harness
module S = Serve.Server
module J = Obs.Json

let name = "serve-mixed"
let window = 300
let outstanding = 4
let parts = 1
let round_s = 0.3
let min_cycles = 4

(* Client-side timings of the measured windows. *)
type samples = {
  mutable submit_us : float list;
  mutable result_us : float list;
  mutable await_ms : float list;
  mutable session_ms : (int * float) list;  (** (submit index, latency) *)
}

type env = {
  seed : int;
  graphs : (string * string) list;
  mutable server : S.t;
  mutable journal : string;
  mutable boot_ms : float list;
  mutable reference : string array option;  (** Warm-up result bytes. *)
  mutable reconciled : bool;
  mutable journal_appends : int;
  mutable journal_fsyncs : int;
  mutable journal_bytes : int;
  mutable journaled_sessions : int;
  mutable windows : int;  (** Windows started, for fresh session ids. *)
  samples : samples;
}

let work_dir = ".bench_work"
let boots = ref 0

(* A fresh server on a fresh journal inside the checkout. *)
let boot graphs =
  Report.mkdir_p work_dir;
  incr boots;
  let journal =
    Filename.concat work_dir
      (Printf.sprintf "serve-%d-%d.journal" (Unix.getpid ()) !boots)
  in
  (try Sys.remove journal with Sys_error _ -> ());
  let config =
    {
      S.default_config with
      graphs;
      workers = 1;
      journal = Some journal;
      journal_sync = true;
    }
  in
  let t0 = Clock.now_ns () in
  match S.create ~config () with
  | Error e -> failwith ("serve-mixed: server boot failed: " ^ e)
  | Ok server ->
      let create_ms = Clock.ms_since t0 in
      S.start_workers server;
      (server, journal, create_ms)

let shut env =
  S.stop env.server;
  try Sys.remove env.journal with Sys_error _ -> ()

(* Fixed graphs; [seed] drives each submit's random scheduler. *)
let setup ~seed =
  let graphs = [ ("comb", "comb:8"); ("grid", "grid:4x4"); ("rnd", "random:12:5") ] in
  let server, journal, create_ms = boot graphs in
  {
    seed;
    graphs;
    server;
    journal;
    boot_ms = [ create_ms ];
    reference = None;
    reconciled = true;
    journal_appends = 0;
    journal_fsyncs = 0;
    journal_bytes = 0;
    journaled_sessions = 0;
    windows = 0;
    samples = { submit_us = []; result_us = []; await_ms = []; session_ms = [] };
  }

let dispose = shut

(* (protocol, graph, scheduler) of submit [i]; [seed] seeds its scheduler. *)
let kind i =
  match i mod 3 with
  | 0 -> ("flood", "comb", "fifo")
  | 1 -> ("counting", "grid", "random")
  | _ -> ("general", "rnd", "random")

let submit_seed env i = (env.seed * 7919) + i

let submit_line env ~id i =
  let protocol, graph, scheduler = kind i in
  Printf.sprintf
    "{\"op\":\"submit\",\"id\":\"%s\",\"protocol\":\"%s\",\"graph\":\"%s\",\"scheduler\":\"%s\",\"seed\":%d}"
    id protocol graph scheduler (submit_seed env i)

let ok_field v =
  match Option.bind (J.member "ok" v) J.to_bool_opt with
  | Some b -> b
  | None -> false

let int_field name v =
  Option.value ~default:(-1) (Option.bind (J.member name v) J.to_int_opt)

(* [Some (payload bytes, deliveries)] for a sound, ok result. *)
let check_result resp =
  match J.parse resp with
  | Error _ -> None
  | Ok v when not (ok_field v) -> None
  | Ok v -> (
      match J.member "result" v with
      | None -> None
      | Some r ->
          let terminated =
            Option.bind (J.member "outcome" r) J.to_string_opt = Some "terminated"
          in
          let all_visited =
            Option.bind (J.member "all_visited" r) J.to_bool_opt = Some true
          in
          if terminated && not all_visited then None
          else Some (J.to_string r, int_field "deliveries" r))

let sessions_engine_deliveries server =
  match J.parse (S.handle_line server ~conn:0 "{\"op\":\"metrics\"}") with
  | Error _ -> -1
  | Ok v ->
      Option.value ~default:(-1)
        (Option.bind (J.member "result" v) (fun r ->
             Option.bind (J.member "counters" r) (fun c ->
                 Option.bind (J.member "sessions.engine.deliveries" c)
                   J.to_int_opt)))

let us_since t0 = Clock.ms_since t0 *. 1000.0

let round env ~part:_ phase =
  let server = env.server in
  let measured = phase = H.Measured in
  env.windows <- env.windows + 1;
  let index = env.windows in
  let results = Array.make window None in
  let span slot kind id f =
    match !Timed.timeline with
    | None -> f ()
    | Some tl ->
        let track = 10 + slot and name = Printf.sprintf "serve.%s %s" kind id in
        Obs.Timeline.begin_span tl ~track name;
        let r = f () in
        Obs.Timeline.end_span tl ~track name;
        r
  in
  let s = env.samples in
  let failed = ref 0 in
  let pending = Queue.create () in
  let free = ref (List.init outstanding Fun.id) in
  let next = ref 0 in
  let t_start = Clock.now_ns () in
  while !next < window || not (Queue.is_empty pending) do
    while !next < window && Queue.length pending < outstanding do
      let i = !next in
      incr next;
      let slot = List.hd !free in
      free := List.tl !free;
      let id = Printf.sprintf "w%d-%d" index i in
      let t0 = Clock.now_ns () in
      let resp =
        span slot "submit" id (fun () ->
            S.handle_line server ~conn:0 (submit_line env ~id i))
      in
      if measured then s.submit_us <- us_since t0 :: s.submit_us;
      match J.parse resp with
      | Ok v when ok_field v -> Queue.push (i, id, t0, slot) pending
      | _ ->
          incr failed;
          free := slot :: !free
    done;
    match Queue.take_opt pending with
    | None -> ()
    | Some (i, id, t0, slot) ->
        let ta = Clock.now_ns () in
        let state = span slot "await" id (fun () -> S.await server id) in
        if measured then s.await_ms <- Clock.ms_since ta :: s.await_ms;
        let tr = Clock.now_ns () in
        let resp =
          span slot "result" id (fun () ->
              S.handle_line server ~conn:0
                (Printf.sprintf "{\"op\":\"result\",\"id\":\"%s\"}" id))
        in
        let latency = Clock.ms_since t0 in
        if measured then begin
          s.result_us <- us_since tr :: s.result_us;
          s.session_ms <- (i, latency) :: s.session_ms
        end;
        (match (state, check_result resp) with
        | Some (Serve.Session.Done _), Some r -> results.(i) <- Some r
        | _ -> incr failed);
        free := slot :: !free
  done;
  let wall_s = float_of_int (Clock.now_ns () - t_start) *. 1e-9 in
  let bytes = Array.map (Option.map fst) results in
  (match env.reference with
  | None -> env.reference <- Some (Array.map (Option.value ~default:"") bytes)
  | Some reference ->
      Array.iteri
        (fun i b ->
          match b with
          | Some b when b <> reference.(i) ->
              (* Byte-determinism: the same submit must render the same
                 result under any load. *)
              incr failed
          | _ -> ())
        bytes);
  let done_ = List.filter_map Fun.id (Array.to_list results) in
  let deliveries = List.fold_left (fun acc (_, d) -> acc + d) 0 done_ in
  if sessions_engine_deliveries server <> deliveries then env.reconciled <- false;
  Option.iter
    (fun (j : Serve.Journal.stats) ->
      env.journal_appends <- env.journal_appends + j.s_appends;
      env.journal_fsyncs <- env.journal_fsyncs + j.s_fsyncs;
      env.journal_bytes <- env.journal_bytes + j.s_bytes;
      env.journaled_sessions <- env.journaled_sessions + window)
    (S.journal_stats server);
  shut env;
  let server, journal, create_ms = boot env.graphs in
  env.server <- server;
  env.journal <- journal;
  env.boot_ms <- create_ms :: env.boot_ms;
  {
    H.wall_s;
    runs = List.length done_;
    deliveries;
    attempted = window;
    failed = !failed;
  }

let check env = env.reconciled

let engine (module P : Runtime.Protocol_intf.PROTOCOL) =
  let module E = Runtime.Engine.Make (P) in
  fun ~scheduler g -> H.outcome (fun _ -> true) (E.run ~scheduler g)

(* (protocol, traced) -> engine run *)
let engines =
  [
    (("flood", false), engine (module Anonet.Flood));
    ( ("flood", true),
      engine (module Timed.Make (Anonet.Flood) (Timed.No_capture)) );
    (("counting", false), engine (module Anonet.Counting));
    ( ("counting", true),
      engine (module Timed.Make (Anonet.Counting) (Timed.No_capture)) );
    (("general", false), engine (module Anonet.General_broadcast));
    ( ("general", true),
      engine
        (module Timed.Make (Anonet.General_broadcast) (Replay.Capture_general))
    );
  ]

(* The window's submits run directly through Runtime.Engine.Make: plain for
   the service time, {!Timed} for the engine and protocol layers. *)
let direct env set =
  let graphs, build_s =
    Clock.time (fun () ->
        List.map
          (fun (name, spec) ->
            match Digraph.Families.of_spec spec with
            | Ok g -> (name, g)
            | Error e -> failwith e)
          env.graphs)
  in
  set "digraph.families.build_ms" (build_s *. 1000.0);
  let engine = H.engine () in
  let run_one ~traced i =
    let protocol, graph, sched = kind i in
    let g = List.assoc graph graphs in
    let scheduler =
      if sched = "random" then
        Runtime.Scheduler.Random (Prng.create (submit_seed env i))
      else Runtime.Scheduler.Fifo
    in
    let run = List.assoc (protocol, traced) engines in
    let o, p = H.probe (fun () -> run ~scheduler g) in
    H.record engine ~traced ~fifo:(sched = "fifo") ~deliveries:o.deliveries
      ~bits:o.bits ~max_in_flight:o.in_flight p;
    float_of_int p.run_ns *. 1e-6
  in
  let service = Array.init window (fun i -> run_one ~traced:false i) in
  Replay.start ();
  Array.iteri (fun i _ -> ignore (run_one ~traced:true i)) service;
  Replay.stop ();
  H.engine_layers engine set;
  service

let layers env set =
  let s = env.samples in
  let p q xs = Stats.percentile_exn q xs in
  set "serve.server.boot_ms" (Stats.median env.boot_ms);
  set "serve.server.submit_us_p50" (p 50.0 s.submit_us);
  set "serve.server.submit_us_p99" (p 99.0 s.submit_us);
  set "serve.server.result_us_p50" (p 50.0 s.result_us);
  set "serve.await_ms_p50" (p 50.0 s.await_ms);
  let session_ms = List.map snd s.session_ms in
  set "serve.session_ms_p50" (p 50.0 session_ms);
  set "serve.session_ms_p99" (p 99.0 session_ms);
  let per_session n =
    Stats.ratio (float_of_int n) (float_of_int env.journaled_sessions)
  in
  set "serve.journal.appends_per_session" (per_session env.journal_appends);
  set "serve.journal.fsyncs_per_session" (per_session env.journal_fsyncs);
  set "serve.journal.bytes_per_session" (per_session env.journal_bytes);
  let service = direct env set in
  set "serve.service_ms_mean" (Stats.mean (Array.to_list service));
  set "serve.wait_ms_p50"
    (p 50.0 (List.map (fun (i, ms) -> ms -. service.(i)) s.session_ms))
