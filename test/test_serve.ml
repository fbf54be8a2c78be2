(* The serve subsystem: NDJSON framing (including overflow resync and a
   chunking fuzz), the full session lifecycle over [Server.handle_line]
   (the exact function the socket loop calls), admission control and
   credits, cancellation in every phase, byte-determinism of results
   under concurrent load, exact metrics reconciliation, journal recovery,
   and a model-based property that checks every answer of a random
   command sequence — crashes included — against a pure model. *)

open Helpers
module W = Serve.Wire
module S = Serve.Server
module J = Obs.Json

(* {1 Wire framing} *)

let lines_of evs =
  List.filter_map (function W.Line l -> Some l | W.Overflow -> None) evs

let test_wire_basic () =
  let w = W.create () in
  Alcotest.(check (list string))
    "two lines in one chunk" [ "a"; "bb" ]
    (lines_of (W.feed_string w "a\nbb\n"));
  Alcotest.(check (list string)) "partial buffered" [] (lines_of (W.feed_string w "cc"));
  Alcotest.(check bool) "pending visible" true (W.pending w);
  Alcotest.(check (list string))
    "completed across feeds" [ "ccd" ]
    (lines_of (W.feed_string w "d\n"));
  Alcotest.(check (list string))
    "CR stripped" [ "x" ]
    (lines_of (W.feed_string w "x\r\n"));
  Alcotest.(check (list string))
    "empty line is a frame" [ "" ]
    (lines_of (W.feed_string w "\n"))

let test_wire_overflow () =
  let w = W.create ~max_line:4 () in
  let evs = W.feed_string w "abcdefgh\nok\n" in
  Alcotest.(check int) "one overflow event" 1
    (List.length (List.filter (( = ) W.Overflow) evs));
  Alcotest.(check (list string)) "resyncs after newline" [ "ok" ] (lines_of evs);
  (* Overflow split across feeds: the discard mode must persist. *)
  let w = W.create ~max_line:4 () in
  ignore (W.feed_string w "12345");
  ignore (W.feed_string w "67890");
  let evs = W.feed_string w "123\nfine\n" in
  Alcotest.(check (list string)) "later frames survive" [ "fine" ] (lines_of evs)

(* Any chunking of the same byte stream yields the same frames. *)
let prop_wire_chunking =
  qcheck_to_alcotest ~count:100 "framing is chunking-invariant"
    QCheck.(
      pair
        (small_list (string_gen_of_size (Gen.int_range 0 12) (Gen.char_range 'a' 'z')))
        (int_range 1 7))
    (fun (lines, chunk) ->
      let stream = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      let w = W.create () in
      let got = ref [] in
      let n = String.length stream in
      let i = ref 0 in
      while !i < n do
        let len = min chunk (n - !i) in
        got := !got @ lines_of (W.feed_string w (String.sub stream !i len));
        i := !i + len
      done;
      !got = lines)

(* {1 Server helpers} *)

let mk ?(workers = 0) ?(max_queue = 64) ?(credits = 32) () =
  let config =
    {
      S.default_config with
      graphs = [ ("small", "comb:4"); ("mid", "random:12:3") ];
      workers;
      max_queue;
      credits;
      (* counting on the cyclic [mid] graph runs to the step limit; keep
         those sessions short — the contracts under test don't care. *)
      step_limit = 20_000;
    }
  in
  match S.create ~config () with
  | Ok t -> t
  | Error e -> Alcotest.failf "server create: %s" e

let req t ?(conn = 0) line = S.handle_line t ~conn line

let parse_resp resp =
  match J.parse resp with
  | Ok v -> v
  | Error i -> Alcotest.failf "unparseable response at %d: %s" i resp

let is_ok resp =
  match Option.bind (J.member "ok" (parse_resp resp)) J.to_bool_opt with
  | Some b -> b
  | None -> Alcotest.failf "no \"ok\" in %s" resp

let err_code resp =
  match
    Option.bind (J.member "error" (parse_resp resp)) (fun e ->
        Option.bind (J.member "code" e) J.to_string_opt)
  with
  | Some c -> c
  | None -> Alcotest.failf "no error code in %s" resp

let err_msg resp =
  match
    Option.bind (J.member "error" (parse_resp resp)) (fun e ->
        Option.bind (J.member "msg" e) J.to_string_opt)
  with
  | Some m -> m
  | None -> Alcotest.failf "no error msg in %s" resp

let state_of resp =
  match
    Option.bind (J.member "result" (parse_resp resp)) (fun r ->
        Option.bind (J.member "state" r) J.to_string_opt)
  with
  | Some s -> s
  | None -> Alcotest.failf "no state in %s" resp

let result_json resp =
  match J.member "result" (parse_resp resp) with
  | Some r -> r
  | None -> Alcotest.failf "no result in %s" resp

let submit_line ?(protocol = "flood") ?(graph = "small") ?(seed = 1) ?engine
    ?scheduler ?deadline_ms ?step_limit id =
  Printf.sprintf
    "{\"op\":\"submit\",\"id\":%s,\"protocol\":%s,\"graph\":%s,\"seed\":%d%s%s%s%s}"
    (J.escape id) (J.escape protocol) (J.escape graph) seed
    (match engine with
    | None -> ""
    | Some e -> Printf.sprintf ",\"engine\":%s" (J.escape e))
    (match scheduler with
    | None -> ""
    | Some s -> Printf.sprintf ",\"scheduler\":%s" (J.escape s))
    (match deadline_ms with
    | None -> ""
    | Some ms -> Printf.sprintf ",\"deadline_ms\":%d" ms)
    (match step_limit with
    | None -> ""
    | Some l -> Printf.sprintf ",\"step_limit\":%d" l)

let status t id = req t (Printf.sprintf "{\"op\":\"status\",\"id\":%s}" (J.escape id))
let result t id = req t (Printf.sprintf "{\"op\":\"result\",\"id\":%s}" (J.escape id))
let cancel t id = req t (Printf.sprintf "{\"op\":\"cancel\",\"id\":%s}" (J.escape id))

(* {1 Lifecycle} *)

let test_lifecycle () =
  let t = mk () in
  let r = req t (submit_line "a") in
  Alcotest.(check bool) "submit accepted" true (is_ok r);
  Alcotest.(check string) "queued" "queued" (state_of (status t "a"));
  Alcotest.(check string) "result early" "not_done" (err_code (result t "a"));
  Alcotest.(check bool) "step runs it" true (S.step t);
  Alcotest.(check bool) "queue drained" false (S.step t);
  Alcotest.(check string) "done" "done" (state_of (status t "a"));
  let v = result_json (result t "a") in
  Alcotest.(check (option string))
    "flood quiesces" (Some "quiescent")
    (Option.bind (J.member "outcome" v) J.to_string_opt);
  Alcotest.(check (option bool))
    "covers the graph" (Some true)
    (Option.bind (J.member "all_visited" v) J.to_bool_opt);
  let d = Option.bind (J.member "deliveries" v) J.to_int_opt in
  Alcotest.(check bool) "deliveries counted" true (Option.value ~default:0 d > 0);
  (* Reconciliation: the merged registry equals the one result we saw. *)
  let m = result_json (req t "{\"op\":\"metrics\"}") in
  Alcotest.(check (option int))
    "metrics reconcile with the report" d
    (Option.bind (J.member "counters" m)
       (fun c -> Option.bind (J.member "sessions.engine.deliveries" c) J.to_int_opt));
  S.stop t

let test_bad_frames () =
  let t = mk () in
  Alcotest.(check string) "garbage" "parse_error" (err_code (req t "not json"));
  Alcotest.(check string) "unknown op" "bad_request"
    (err_code (req t "{\"op\":\"frobnicate\",\"id\":\"x\"}"));
  Alcotest.(check string) "missing id" "bad_request"
    (err_code (req t "{\"op\":\"status\"}"));
  Alcotest.(check string) "unknown protocol" "unknown_protocol"
    (err_code (req t (submit_line ~protocol:"telepathy" "x")));
  Alcotest.(check string) "unknown graph" "unknown_graph"
    (err_code (req t (submit_line ~graph:"nowhere" "x")));
  Alcotest.(check string) "bad scheduler" "bad_request"
    (err_code
       (req t "{\"op\":\"submit\",\"id\":\"x\",\"protocol\":\"flood\",\"graph\":\"small\",\"scheduler\":\"psychic\"}"));
  Alcotest.(check string) "unknown session" "unknown_id" (err_code (status t "ghost"));
  (* The connection survives all of the above. *)
  Alcotest.(check bool) "still serving" true (is_ok (req t (submit_line "ok")));
  S.stop t

let test_duplicate_id () =
  let t = mk () in
  Alcotest.(check bool) "first" true (is_ok (req t (submit_line "dup")));
  Alcotest.(check string) "second rejected" "duplicate_id"
    (err_code (req t (submit_line "dup")));
  Alcotest.(check bool) "original unharmed" true (S.step t);
  Alcotest.(check string) "and finishes" "done" (state_of (status t "dup"));
  (* A finished id is still taken: results must stay addressable. *)
  Alcotest.(check string) "still taken after finish" "duplicate_id"
    (err_code (req t (submit_line "dup")));
  S.stop t

(* {1 Admission control} *)

let test_overloaded () =
  let t = mk ~max_queue:1 () in
  Alcotest.(check bool) "fills the queue" true (is_ok (req t (submit_line "q1")));
  let r = req t (submit_line "q2") in
  Alcotest.(check string) "overflow typed" "overloaded" (err_code r);
  (* Rollback: the refused session left no trace and the id is reusable. *)
  Alcotest.(check string) "no ghost session" "unknown_id" (err_code (status t "q2"));
  ignore (S.step t);
  Alcotest.(check bool) "slot freed after drain" true (is_ok (req t (submit_line "q2")));
  ignore (S.step t);
  Alcotest.(check string) "retry completes" "done" (state_of (status t "q2"));
  S.stop t

let test_no_credit () =
  let t = mk ~credits:1 () in
  Alcotest.(check bool) "conn 0 first" true (is_ok (req t ~conn:0 (submit_line "c1")));
  Alcotest.(check string) "conn 0 second refused" "no_credit"
    (err_code (req t ~conn:0 (submit_line "c2")));
  Alcotest.(check bool) "credits are per-connection" true
    (is_ok (req t ~conn:1 (submit_line "c3")));
  ignore (S.step t);
  ignore (S.step t);
  Alcotest.(check bool) "credit returns on finish" true
    (is_ok (req t ~conn:0 (submit_line "c4")));
  ignore (S.step t);
  S.stop t

(* {1 Cancellation} *)

let test_cancel_queued () =
  let t = mk () in
  ignore (req t (submit_line "z"));
  Alcotest.(check string) "cancel answers final state" "cancelled"
    (state_of (cancel t "z"));
  Alcotest.(check string) "status agrees" "cancelled" (state_of (status t "z"));
  Alcotest.(check string) "result is a typed error" "cancelled"
    (err_code (result t "z"));
  (* The dead session is still in the queue; popping it must be a no-op. *)
  Alcotest.(check bool) "worker pops the corpse" true (S.step t);
  Alcotest.(check string) "not resurrected" "cancelled" (state_of (status t "z"));
  Alcotest.(check string) "cancel is idempotent" "cancelled" (state_of (cancel t "z"));
  S.stop t

let test_deadline () =
  let t = mk () in
  (* The deadline clock starts when the worker picks the session up, so a
     fast run cannot be caught by it — use one that would grind for ages
     (counting on the cyclic graph, huge step limit) and give it 5ms: the
     engine's periodic deadline poll must kill it mid-run. *)
  ignore
    (req t
       (submit_line ~protocol:"counting" ~graph:"mid" ~step_limit:10_000_000
          ~deadline_ms:5 "d"));
  ignore (S.step t);
  Alcotest.(check string) "deadline cancels" "cancelled" (state_of (status t "d"));
  let resp = result t "d" in
  Alcotest.(check string) "typed error" "cancelled" (err_code resp);
  let msg = err_msg resp in
  Alcotest.(check bool) "names the deadline" true
    (let n = String.length msg in
     let rec go i = i + 8 <= n && (String.sub msg i 8 = "deadline" || go (i + 1)) in
     go 0);
  S.stop t

let test_cancel_running_race () =
  (* Real workers, a burst of sessions, cancels racing execution: every
     session must still reach a final state — none stuck, none lost. *)
  let t = mk ~workers:2 () in
  S.start_workers t;
  let n = 24 in
  for i = 0 to n - 1 do
    let id = Printf.sprintf "r%d" i in
    ignore (req t (submit_line ~graph:"mid" ~protocol:"counting" ~seed:i id))
  done;
  for i = 0 to n - 1 do
    if i mod 2 = 0 then ignore (cancel t (Printf.sprintf "r%d" i))
  done;
  for i = 0 to n - 1 do
    let id = Printf.sprintf "r%d" i in
    match S.await t id with
    | Some (Serve.Session.Done _ | Serve.Session.Cancelled _) -> ()
    | Some st ->
        Alcotest.failf "session %s ended %s" id (Serve.Session.state_name st)
    | None -> Alcotest.failf "session %s lost" id
  done;
  S.stop t

(* A terminal state is journaled before anyone can see it.  One domain
   cancels queued sessions while this one polls their status and, the
   moment one reads "cancelled", scans the journal: the [Cancelled]
   record must already be there, or a crash right then would rerun the
   session to "done" after a client saw "cancelled". *)
let test_cancel_journaled_before_visible () =
  let path = Filename.temp_file "anonet-serve" ".journal" in
  Sys.remove path;
  let config =
    {
      S.default_config with
      graphs = [ ("small", "comb:4") ];
      workers = 0;
      journal = Some path;
      journal_sync = true;
    }
  in
  let t =
    match S.create ~config () with
    | Ok t -> t
    | Error e -> Alcotest.failf "server create: %s" e
  in
  Fun.protect
    ~finally:(fun () ->
      S.stop t;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let ids = List.init 32 (Printf.sprintf "v%d") in
      List.iter (fun id -> ignore (req t (submit_line id))) ids;
      let canceller =
        Domain.spawn (fun () -> List.iter (fun id -> ignore (cancel t id)) ids)
      in
      let unjournaled =
        List.filter
          (fun id ->
            while state_of (status t id) <> "cancelled" do
              Domain.cpu_relax ()
            done;
            match Serve.Journal.scan_file path with
            | Error e -> Alcotest.failf "scan: %s" e
            | Ok scan ->
                not
                  (List.mem
                     (Serve.Journal.Cancelled { id; reason = "cancel" })
                     scan.Serve.Journal.records))
          ids
      in
      Domain.join canceller;
      Alcotest.(check (list string)) "seen cancelled before journaled" []
        unjournaled)

(* {1 Determinism and reconciliation under concurrency} *)

let test_concurrent_determinism () =
  let t = mk ~workers:4 () in
  S.start_workers t;
  let n = 8 in
  for i = 0 to n - 1 do
    ignore
      (req t ~conn:i
         (submit_line ~graph:"mid" ~protocol:"counting" ~seed:42
            (Printf.sprintf "det%d" i)))
  done;
  let payloads =
    List.init n (fun i ->
        let id = Printf.sprintf "det%d" i in
        ignore (S.await t id);
        J.to_string (result_json (result t id)))
  in
  List.iter
    (fun p ->
      Alcotest.(check string) "same seed, same bytes" (List.hd payloads) p)
    payloads;
  (* Exact rollup: merged deliveries = n * the per-run count. *)
  let one =
    match
      Option.bind
        (J.member "deliveries" (parse_resp (List.hd payloads)))
        J.to_int_opt
    with
    | Some d -> d
    | None -> Alcotest.fail "no deliveries"
  in
  let m = result_json (req t "{\"op\":\"metrics\"}") in
  Alcotest.(check (option int))
    "rollup is exact" (Some (n * one))
    (Option.bind (J.member "counters" m)
       (fun c -> Option.bind (J.member "sessions.engine.deliveries" c) J.to_int_opt));
  S.stop t

(* Clients of the former two-engine server may still name an engine.
   ["classic"], ["flat"] and no engine member at all are the same request:
   accepted, ignored, byte-identical results — across protocols, the
   seeded random scheduler and churn — and a journal holding such lines
   recovers them with no digest mismatch.  Any other engine value stays a
   typed [bad_request]. *)
let test_engine_wire_compat () =
  let path = Filename.temp_file "anonet-serve" ".journal" in
  Sys.remove path;
  let config =
    {
      S.default_config with
      graphs = [ ("small", "comb:4"); ("mid", "random:12:3") ];
      workers = 0;
      step_limit = 20_000;
      journal = Some path;
      journal_sync = false;
    }
  in
  let boot () =
    match S.create ~config () with
    | Ok t -> t
    | Error e -> Alcotest.failf "server create: %s" e
  in
  let cases =
    [
      ("flood", fun id engine -> submit_line ~protocol:"flood" ?engine id);
      ( "counting",
        fun id engine ->
          submit_line ~protocol:"counting" ~graph:"mid" ~scheduler:"random"
            ~seed:42 ?engine id );
      ( "churned-general",
        fun id engine ->
          Printf.sprintf
            "{\"op\":\"submit\",\"id\":%s,\"protocol\":\"general\",\"graph\":\"mid\",\"scheduler\":\"random\",\"seed\":7%s,\"churn\":{\"rate\":0.1,\"seed\":3}}"
            (J.escape id)
            (match engine with
            | None -> ""
            | Some e -> ",\"engine\":" ^ J.escape e) );
    ]
  in
  let engines = [ ("classic", Some "classic"); ("flat", Some "flat"); ("none", None) ] in
  let ids name = List.map (fun (tag, _) -> name ^ "-" ^ tag) engines in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t1 = boot () in
      Alcotest.(check string) "unknown engine" "bad_request"
        (err_code (req t1 (submit_line ~engine:"turbo" "x")));
      Alcotest.(check string) "non-string engine" "bad_request"
        (err_code
           (req t1
              "{\"op\":\"submit\",\"id\":\"y\",\"protocol\":\"flood\",\"graph\":\"small\",\"engine\":1}"));
      List.iter
        (fun (name, line_of) ->
          List.iter
            (fun (tag, engine) ->
              Alcotest.(check bool)
                (name ^ "/" ^ tag ^ " accepted")
                true
                (is_ok (req t1 (line_of (name ^ "-" ^ tag) engine))))
            engines)
        cases;
      while S.step t1 do
        ()
      done;
      let payloads t name =
        List.map (fun id -> J.to_string (result_json (result t id))) (ids name)
      in
      let before = List.map (fun (name, _) -> (name, payloads t1 name)) cases in
      List.iter
        (fun (name, ps) ->
          List.iter
            (fun p ->
              Alcotest.(check string) (name ^ ": payload bytes match") (List.hd ps) p)
            ps)
        before;
      S.stop t1;
      let t2 = boot () in
      (match S.recovery t2 with
      | None -> Alcotest.fail "no recovery summary"
      | Some r ->
          let n = List.length cases * List.length engines in
          Alcotest.(check int) "replayed" n r.S.rec_replayed;
          Alcotest.(check int) "verified" n r.S.rec_verified;
          Alcotest.(check int) "mismatched" 0 r.S.rec_mismatched;
          Alcotest.(check int) "unreplayable" 0 r.S.rec_unreplayable);
      List.iter
        (fun (name, ps) ->
          Alcotest.(check (list string))
            (name ^ ": recovered bytes") ps (payloads t2 name))
        before;
      S.stop t2)

(* [watch] streams incremental registry diffs: queued -> empty metrics,
   after the run -> a diff carrying exactly the report's deliveries (the
   first watch covered nothing), then a drained second diff. *)
let test_watch () =
  let t = mk () in
  ignore (req t (submit_line "w"));
  let watch id = req t (Printf.sprintf "{\"op\":\"watch\",\"id\":%s}" (J.escape id)) in
  let counter v name =
    Option.bind (J.member "metrics" v) (fun m ->
        Option.bind (J.member "counters" m) (fun c ->
            Option.bind (J.member name c) J.to_int_opt))
  in
  let w1 = result_json (watch "w") in
  Alcotest.(check (option string))
    "queued state" (Some "queued")
    (Option.bind (J.member "state" w1) J.to_string_opt);
  Alcotest.(check (option int))
    "no registry yet" None (counter w1 "engine.deliveries");
  ignore (S.step t);
  let w2 = result_json (watch "w") in
  Alcotest.(check (option string))
    "done state" (Some "done")
    (Option.bind (J.member "state" w2) J.to_string_opt);
  let d =
    Option.bind (J.member "deliveries" (result_json (result t "w"))) J.to_int_opt
  in
  Alcotest.(check (option int))
    "first real diff carries the run's deliveries" d
    (counter w2 "engine.deliveries");
  (* The session kept its registry, not the run's timeline: the final
     diff still reconciles with the stored result. *)
  Alcotest.(check (option int))
    "and its total bits"
    (Option.bind (J.member "total_bits" (result_json (result t "w"))) J.to_int_opt)
    (counter w2 "engine.total_bits");
  (* The engine epilogue registered its GC gauges on the session registry. *)
  Alcotest.(check bool) "gc gauges visible" true
    (Option.is_some
       (Option.bind (J.member "metrics" w2) (fun m ->
            Option.bind (J.member "gauges" m)
              (J.member "engine.gc.heap_words"))));
  let d3 = counter (result_json (watch "w")) "engine.deliveries" in
  Alcotest.(check bool) "second diff drained" true (d3 = None || d3 = Some 0);
  Alcotest.(check string) "unknown id" "unknown_id"
    (err_code (watch "nope"));
  S.stop t

let test_shutdown_refuses_submits () =
  let t = mk () in
  ignore (req t (submit_line "pre"));
  S.stop t;
  Alcotest.(check string) "queued work failed visibly" "shutting_down"
    (err_code (result t "pre"));
  Alcotest.(check string) "new submits refused" "shutting_down"
    (err_code (req t (submit_line "post")))

(* {1 Wire-protocol fuzz}

   Random truncation, bit flips and oversizing of valid request lines,
   pushed through [Wire.feed] and [Server.handle_line]/[handle_overflow]
   — the exact pair the socket loop runs.  The server must never raise,
   must answer every frame with a parseable envelope, must resync to
   clean frames afterwards, and must count every overflow discard. *)

let counter_of t name =
  match
    Option.bind (J.member "result" (parse_resp (req t "{\"op\":\"metrics\"}")))
      (fun m -> Option.bind (J.member "counters" m) (J.member name))
  with
  | Some v -> Option.value ~default:(-1) (J.to_int_opt v)
  | None -> 0

let test_wire_fuzz () =
  let config =
    {
      S.default_config with
      graphs = [ ("small", "comb:4") ];
      workers = 0;
      max_line = 128;
      step_limit = 20_000;
    }
  in
  let t =
    match S.create ~config () with
    | Ok t -> t
    | Error e -> Alcotest.failf "server create: %s" e
  in
  let prng = Prng.create 0xF022 in
  let w = Serve.Wire.create ~max_line:128 () in
  let overflows = ref 0 and frames = ref 0 in
  let feed_random_chunks s =
    let n = String.length s in
    let i = ref 0 in
    let evs = ref [] in
    while !i < n do
      let len = min (1 + Prng.int prng 23) (n - !i) in
      evs := !evs @ Serve.Wire.feed_string w (String.sub s !i len);
      i := !i + len
    done;
    !evs
  in
  let respond evs =
    List.iter
      (fun ev ->
        let resp =
          match ev with
          | Serve.Wire.Line l ->
              incr frames;
              req t l
          | Serve.Wire.Overflow ->
              incr overflows;
              S.handle_overflow t
        in
        (* Every answer, even to garbage, is a parseable envelope. *)
        ignore (is_ok resp))
      evs
  in
  for i = 0 to 499 do
    let base =
      match Prng.int prng 4 with
      | 0 -> submit_line ~seed:i (Printf.sprintf "fz%d" i)
      | 1 -> Printf.sprintf "{\"op\":\"status\",\"id\":\"fz%d\"}" (Prng.int prng 500)
      | 2 -> "{\"op\":\"metrics\"}"
      | _ -> Printf.sprintf "{\"op\":\"result\",\"id\":\"fz%d\"}" (Prng.int prng 500)
    in
    let mutated =
      match Prng.int prng 4 with
      | 0 -> String.sub base 0 (Prng.int prng (String.length base + 1))
      | 1 ->
          let b = Bytes.of_string base in
          for _ = 0 to Prng.int prng 4 do
            let p = Prng.int prng (Bytes.length b) in
            Bytes.set b p
              (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl Prng.int prng 8)))
          done;
          Bytes.to_string b
      | 2 -> base ^ String.make (128 + Prng.int prng 256) 'x'  (* oversize *)
      | _ -> base
    in
    respond (feed_random_chunks (mutated ^ "\n"))
  done;
  (* Resync proof: a pristine frame right after the chaos parses clean. *)
  (match feed_random_chunks "{\"op\":\"metrics\"}\n" with
  | [ Serve.Wire.Line l ] ->
      incr frames;
      Alcotest.(check bool) "clean frame after fuzz" true (is_ok (req t l))
  | evs -> Alcotest.failf "expected 1 clean frame, got %d events" (List.length evs));
  Alcotest.(check bool) "some overflows exercised" true (!overflows > 0);
  Alcotest.(check int) "overflow discards counted" !overflows
    (counter_of t "server.wire.overflows");
  Alcotest.(check bool) "frame_errors covers overflows" true
    (counter_of t "server.frame_errors" >= !overflows);
  S.stop t

(* {1 Admission queue (Sched unit)} *)

let test_sched_bounded () =
  let module Sc = Serve.Sched in
  let q : string Sc.t = Sc.create ~cap:2 in
  Alcotest.(check bool) "a admitted" true (Sc.try_push q "a");
  Alcotest.(check bool) "b admitted" true (Sc.try_push q "b");
  Alcotest.(check bool) "full refuses" false (Sc.try_push q "c");
  Alcotest.(check (option string)) "FIFO" (Some "a") (Sc.try_pop q);
  Alcotest.(check bool) "slot freed" true (Sc.try_push q "d");
  Sc.close q;
  Alcotest.(check bool) "closed refuses" false (Sc.try_push q "e");
  Alcotest.(check (option string)) "closed still drains" (Some "b") (Sc.pop q);
  Alcotest.(check (option string)) "in order" (Some "d") (Sc.pop q);
  Alcotest.(check (option string)) "then ends" None (Sc.pop q)

(* {1 Idempotency keys} *)

let submit_key_line ?(protocol = "flood") ?(graph = "small") ?(seed = 1) ~key id =
  Printf.sprintf
    "{\"op\":\"submit\",\"id\":%s,\"protocol\":%s,\"graph\":%s,\"seed\":%d,\"key\":%s}"
    (J.escape id) (J.escape protocol) (J.escape graph) seed (J.escape key)

let key_of_resp resp =
  Option.bind (J.member "result" (parse_resp resp)) (fun r ->
      Option.bind (J.member "key_of" r) J.to_string_opt)

let test_idempotent_keys () =
  let t = mk () in
  Alcotest.(check bool) "original" true (is_ok (req t (submit_key_line ~key:"K" "k1")));
  (* Duplicate while the original is still in flight: no new session,
     the answer points at the in-flight original. *)
  let r2 = req t (submit_key_line ~key:"K" "k2") in
  Alcotest.(check bool) "dup acknowledged" true (is_ok r2);
  Alcotest.(check (option string)) "points at original" (Some "k1") (key_of_resp r2);
  Alcotest.(check string) "dup state is original's" "queued" (state_of r2);
  Alcotest.(check string) "no session for the dup id" "unknown_id"
    (err_code (status t "k2"));
  Alcotest.(check bool) "runs once" true (S.step t);
  Alcotest.(check bool) "only once" false (S.step t);
  (* After completion a duplicate returns the original's exact result. *)
  let orig = J.to_string (result_json (result t "k1")) in
  let r3 = req t (submit_key_line ~key:"K" "k3") in
  Alcotest.(check bool) "dup after done ok" true (is_ok r3);
  Alcotest.(check string) "byte-identical payload" orig
    (J.to_string (result_json r3));
  Alcotest.(check int) "key hits counted" 2 (counter_of t "server.sessions.key_hits");
  (* A cancelled original answers with its cancellation. *)
  Alcotest.(check bool) "c-orig" true (is_ok (req t (submit_key_line ~key:"C" "c1")));
  ignore (cancel t "c1");
  Alcotest.(check string) "dup of cancelled" "cancelled"
    (err_code (req t (submit_key_line ~key:"C" "c2")));
  S.stop t

let test_key_rollback_on_overload () =
  let t = mk ~max_queue:1 () in
  Alcotest.(check bool) "fill queue" true (is_ok (req t (submit_line "x1")));
  (* The keyed submit is refused by admission: its claim must unwind. *)
  Alcotest.(check string) "overloaded" "overloaded"
    (err_code (req t (submit_key_line ~key:"R" "x2")));
  Alcotest.(check string) "rolled-back session gone" "unknown_id"
    (err_code (status t "x2"));
  ignore (S.step t);
  (* Same key is claimable again — not a duplicate of the failed try. *)
  let r = req t (submit_key_line ~key:"R" "x3") in
  Alcotest.(check bool) "key reusable after rollback" true (is_ok r);
  Alcotest.(check (option string)) "a fresh claim, not a dup" None (key_of_resp r);
  S.stop t

(* {1 Cancelling a running session}

   A livelocking amnesiac flood on a cyclic graph, with a budget it will
   not exhaust, holds a worker until a client cancels it; the other
   worker keeps completing healthy sessions meanwhile. *)

let test_cancel_running () =
  let t = mk ~workers:2 () in
  S.start_workers t;
  Alcotest.(check bool) "wedge submitted" true
    (is_ok
       (req t
          (submit_line ~protocol:"amnesiac" ~graph:"mid"
             ~step_limit:500_000_000 "wedge")));
  Alcotest.(check bool) "healthy 1" true (is_ok (req t (submit_line "h1")));
  Alcotest.(check bool) "healthy 2" true (is_ok (req t (submit_line ~seed:2 "h2")));
  let rec until_running tries =
    match state_of (status t "wedge") with
    | "running" -> ()
    | st when tries = 0 -> Alcotest.failf "wedge never ran (%s)" st
    | _ ->
        Unix.sleepf 0.001;
        until_running (tries - 1)
  in
  until_running 5_000;
  Alcotest.(check string) "cancel asks it to stop" "cancelling"
    (state_of (cancel t "wedge"));
  (match S.await t "wedge" with
  | Some (Serve.Session.Cancelled "cancel") -> ()
  | Some st ->
      Alcotest.failf "wedge ended as %s, not cancelled by the client"
        (Serve.Session.state_name st)
  | None -> Alcotest.fail "wedge unknown");
  (match S.await t "h1" with
  | Some (Serve.Session.Done _) -> ()
  | _ -> Alcotest.fail "healthy session h1 should complete");
  (match S.await t "h2" with
  | Some (Serve.Session.Done _) -> ()
  | _ -> Alcotest.fail "healthy session h2 should complete");
  S.stop t

(* {1 Journal recovery (in-process restart)} *)

let test_recovery_restart () =
  let path = Filename.temp_file "anonet-serve" ".journal" in
  Sys.remove path;
  let config =
    {
      S.default_config with
      graphs = [ ("small", "comb:4") ];
      workers = 0;
      step_limit = 20_000;
      journal = Some path;
      journal_sync = false;
    }
  in
  let boot () =
    match S.create ~config () with
    | Ok t -> t
    | Error e -> Alcotest.failf "server create: %s" e
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* Generation 1: one completed (keyed), one cancelled, one left
         queued at shutdown. *)
      let t1 = boot () in
      Alcotest.(check bool) "a" true (is_ok (req t1 (submit_key_line ~key:"K" "a")));
      Alcotest.(check bool) "a runs" true (S.step t1);
      let ra = J.to_string (result_json (result t1 "a")) in
      Alcotest.(check bool) "b" true (is_ok (req t1 (submit_line ~seed:2 "b")));
      ignore (cancel t1 "b");
      Alcotest.(check bool) "c" true (is_ok (req t1 (submit_line ~seed:3 "c")));
      S.stop t1;
      (* Records only an older server wrote: a watchdog cancel of a submit
         that carried a deadline.  They restore as-is, without a re-run. *)
      (match Serve.Journal.open_append ~sync:false path with
      | Error e -> Alcotest.failf "reopen journal: %s" e
      | Ok (j, _) ->
          Serve.Journal.append j
            (Serve.Journal.Submitted
               {
                 id = "w";
                 line = submit_line ~protocol:"amnesiac" ~deadline_ms:50 "w";
               });
          Serve.Journal.append j
            (Serve.Journal.Cancelled { id = "w"; reason = "watchdog" });
          (* A failure restores as journaled too, and a terminal record
             whose submit never reached the log is an orphan. *)
          Serve.Journal.append j
            (Serve.Journal.Submitted
               { id = "f"; line = submit_line ~seed:4 "f" });
          Serve.Journal.append j
            (Serve.Journal.Failed
               { id = "f"; code = "bad_request"; msg = "engine raised" });
          Serve.Journal.append j
            (Serve.Journal.Cancelled { id = "ghost"; reason = "cancel" });
          Serve.Journal.close j);
      (* Last, a crash mid-append tore the tail. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "0badc0de {\"k\":\"sub";
      close_out oc;
      (* Generation 2 replays the journal before serving. *)
      let t2 = boot () in
      (match S.recovery t2 with
      | None -> Alcotest.fail "no recovery summary"
      | Some r ->
          Alcotest.(check int) "replayed" 2 r.S.rec_replayed;
          Alcotest.(check int) "verified" 1 r.S.rec_verified;
          Alcotest.(check int) "mismatched" 0 r.S.rec_mismatched;
          Alcotest.(check int) "completed" 1 r.S.rec_completed;
          Alcotest.(check int) "cancelled" 2 r.S.rec_cancelled;
          Alcotest.(check int) "failed" 1 r.S.rec_failed;
          Alcotest.(check int) "orphans" 1 r.S.rec_orphans;
          Alcotest.(check int) "unreplayable" 0 r.S.rec_unreplayable;
          Alcotest.(check bool) "torn" true r.S.rec_torn;
          (* The summary and the metrics counters are the same numbers. *)
          List.iter
            (fun (name, v) ->
              Alcotest.(check int) ("counter " ^ name) v
                (counter_of t2 ("server.recovered." ^ name)))
            [
              ("replayed", r.S.rec_replayed);
              ("verified", r.S.rec_verified);
              ("mismatched", r.S.rec_mismatched);
              ("completed", r.S.rec_completed);
              ("cancelled", r.S.rec_cancelled);
              ("failed", r.S.rec_failed);
              ("orphans", r.S.rec_orphans);
              ("unreplayable", r.S.rec_unreplayable);
              ("torn", if r.S.rec_torn then 1 else 0);
            ]);
      (* The acknowledged-and-completed session came back byte-identical. *)
      Alcotest.(check string) "a byte-identical" ra
        (J.to_string (result_json (result t2 "a")));
      (* The cancelled session stayed cancelled (not resurrected)... *)
      Alcotest.(check string) "b still cancelled" "cancelled" (err_code (result t2 "b"));
      Alcotest.(check string) "w keeps its watchdog reason"
        "session cancelled (watchdog)"
        (err_msg (result t2 "w"));
      Alcotest.(check string) "f still failed" "bad_request"
        (err_code (result t2 "f"));
      Alcotest.(check string) "f keeps its message" "engine raised"
        (err_msg (result t2 "f"));
      (* ...and the acked-but-unfinished one was finished by recovery. *)
      Alcotest.(check string) "c completed" "done" (state_of (status t2 "c"));
      (* Recovered ids stay taken; recovered keys stay claimed. *)
      Alcotest.(check string) "id a still taken" "duplicate_id"
        (err_code (req t2 (submit_line "a")));
      let rk = req t2 (submit_key_line ~key:"K" "a2") in
      Alcotest.(check bool) "key K answers from recovery" true (is_ok rk);
      Alcotest.(check string) "key K returns a's bytes" ra
        (J.to_string (result_json rk));
      S.stop t2)

(* A submit refused by admission is journaled and then rolled back.
   Recovery must treat it as never having happened: a later acknowledged
   submit of the same id survives the reboot, and the refused id and key
   are free afterwards. *)
let test_recovery_rollback () =
  let path = Filename.temp_file "anonet-serve" ".journal" in
  Sys.remove path;
  let config =
    {
      S.default_config with
      graphs = [ ("small", "comb:4") ];
      workers = 0;
      max_queue = 1;
      step_limit = 20_000;
      journal = Some path;
      journal_sync = false;
    }
  in
  let boot () =
    match S.create ~config () with
    | Ok t -> t
    | Error e -> Alcotest.failf "server create: %s" e
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* An acknowledged resubmit of a refused id is not lost. *)
      let t1 = boot () in
      Alcotest.(check bool) "a" true (is_ok (req t1 (submit_line "a")));
      Alcotest.(check string) "b refused" "overloaded"
        (err_code (req t1 (submit_key_line ~key:"kb" "b")));
      Alcotest.(check bool) "a runs" true (S.step t1);
      Alcotest.(check string) "b resubmitted" "queued"
        (state_of (req t1 (submit_key_line ~key:"kb" "b")));
      S.stop t1;
      let t2 = boot () in
      (match S.recovery t2 with
      | None -> Alcotest.fail "no recovery summary"
      | Some r ->
          Alcotest.(check int) "b completed by recovery" 1 r.S.rec_completed;
          Alcotest.(check int) "rollback is not a cancel" 0 r.S.rec_cancelled;
          Alcotest.(check int) "nothing unreplayable" 0 r.S.rec_unreplayable);
      Alcotest.(check string) "b done" "done" (state_of (status t2 "b"));
      S.stop t2;
      Sys.remove path;
      (* A refused id and its key stay free across a reboot. *)
      let t1 = boot () in
      Alcotest.(check bool) "a" true (is_ok (req t1 (submit_line "a")));
      Alcotest.(check string) "b refused" "overloaded"
        (err_code (req t1 (submit_key_line ~key:"kb" "b")));
      S.stop t1;
      let t2 = boot () in
      Alcotest.(check string) "b unknown" "unknown_id" (err_code (status t2 "b"));
      let r = req t2 (submit_key_line ~key:"kb" "c") in
      Alcotest.(check string) "c queued" "queued" (state_of r);
      Alcotest.(check (option string)) "kb is a fresh claim" None (key_of_resp r);
      S.stop t2)

(* A journaled cancel is restored as journaled, without a re-run, so it
   needs neither its graph nor its protocol: after a reboot whose config
   dropped the session's graph, the client still reads [cancelled]. *)
let test_recovery_config_change () =
  let path = Filename.temp_file "anonet-serve" ".journal" in
  Sys.remove path;
  let boot graphs =
    let config =
      {
        S.default_config with
        graphs;
        workers = 0;
        step_limit = 20_000;
        journal = Some path;
        journal_sync = false;
      }
    in
    match S.create ~config () with
    | Ok t -> t
    | Error e -> Alcotest.failf "server create: %s" e
  in
  let small = ("small", "comb:4") and mid = ("mid", "random:12:3") in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t1 = boot [ small; mid ] in
      Alcotest.(check bool) "m" true
        (is_ok (req t1 (submit_line ~protocol:"counting" ~graph:"mid" "m")));
      Alcotest.(check string) "m cancelled" "cancelled"
        (state_of (cancel t1 "m"));
      S.stop t1;
      let t2 = boot [ small ] in
      (match S.recovery t2 with
      | None -> Alcotest.fail "no recovery summary"
      | Some r ->
          Alcotest.(check int) "cancelled" 1 r.S.rec_cancelled;
          Alcotest.(check int) "unreplayable" 0 r.S.rec_unreplayable);
      Alcotest.(check string) "m still cancelled" "cancelled"
        (err_code (result t2 "m"));
      S.stop t2)

(* {1 Model-based test}

   Random command sequences against a [workers = 0] server with a
   journal, checked answer by answer against a pure model.  A crash is
   [stop] followed by [create] on the same journal: with no workers,
   [stop] appends nothing (it drains queued sessions as [shutting_down],
   which is never journaled), so the file is exactly what a [kill -9]
   would leave.  Between the two, [power_cut] also drops the trailing
   [Result] records an fsync had not yet covered, the most a power cut
   can lose under the journal's durability rule.  Result bytes are checked to be equal for equal
   (protocol, graph, seed), across ids and reboots. *)

type mcmd =
  | M_submit of {
      id : int;
      key : int option;
      protocol : string;
      graph : string;
      seed : int;
    }
  | M_status of int
  | M_result of int
  | M_cancel of int
  | M_step
  | M_shutdown
  | M_crash

let m_ids = [ 0; 1; 2; 3; 4 ]
let m_id i = Printf.sprintf "s%d" i
let m_key k = Printf.sprintf "k%d" k

let print_mcmd = function
  | M_submit { id; key; protocol; graph; seed } ->
      Printf.sprintf "submit %s%s %s/%s seed %d" (m_id id)
        (match key with None -> "" | Some k -> " key " ^ m_key k)
        protocol graph seed
  | M_status i -> "status " ^ m_id i
  | M_result i -> "result " ^ m_id i
  | M_cancel i -> "cancel " ^ m_id i
  | M_step -> "step"
  | M_shutdown -> "shutdown"
  | M_crash -> "crash"

let arb_mcmds =
  let open QCheck.Gen in
  let id = int_range 0 4 in
  let submit =
    map
      (fun (id, key, protocol, graph, seed) ->
        M_submit { id; key; protocol; graph; seed })
      (tup5 id
         (oneofl [ None; Some 0; Some 1 ])
         (oneofl [ "flood"; "counting" ])
         (oneofl [ "small"; "mid" ])
         (int_range 0 2))
  in
  let cmd =
    frequency
      [
        (6, submit);
        (2, map (fun i -> M_status i) id);
        (2, map (fun i -> M_result i) id);
        (2, map (fun i -> M_cancel i) id);
        (4, return M_step);
        (1, return M_shutdown);
        (1, return M_crash);
      ]
  in
  QCheck.make
    ~print:(fun cmds -> String.concat "; " (List.map print_mcmd cmds))
    (* [Shrink.list] only drops suffixes; the array shrinker removes any
       run of commands, down to single ones. *)
    ~shrink:(fun cmds yield ->
      QCheck.Shrink.array (Array.of_list cmds) (fun a -> yield (Array.to_list a)))
    (list_size (int_range 1 30) cmd)

let m_max_queue = 2
let m_credits = 3

module SM = Map.Make (String)

type mstate = M_queued | M_done | M_cancelled

let mstate_name = function
  | M_queued -> "queued"
  | M_done -> "done"
  | M_cancelled -> "cancelled"

type model = {
  sessions : (string * string * int * mstate) SM.t;
      (* id -> protocol, graph, seed, state *)
  keys : string SM.t;  (* idempotency key -> id *)
  queue : string list;  (* admitted ids, oldest first; cancelled ones
                           stay until a step pops them *)
  shut : bool;
}

(* What an answer must be: a state (with the [key_of] pointer of a
   duplicate-key answer), a result payload of a given run, an error code,
   or the boolean of a [step]. *)
type answer =
  | A_state of string * string option
  | A_payload of string * string * int
  | A_err of string
  | A_step of bool

let print_answer = function
  | A_state (st, None) -> "state " ^ st
  | A_state (st, Some k) -> Printf.sprintf "state %s (key_of %s)" st k
  | A_payload (p, g, seed) -> Printf.sprintf "payload of %s/%s seed %d" p g seed
  | A_err c -> "error " ^ c
  | A_step b -> Printf.sprintf "step %b" b

let model_empty =
  { sessions = SM.empty; keys = SM.empty; queue = []; shut = false }

let model_status m id =
  match SM.find_opt id m.sessions with
  | None -> A_err "unknown_id"
  | Some (_, _, _, st) -> A_state (mstate_name st, None)

let set_state m id st =
  SM.update id (Option.map (fun (p, g, seed, _) -> (p, g, seed, st))) m.sessions

(* Recovery finishes every acknowledged submit; nothing is queued and the
   new process accepts submits again. *)
let model_crash m =
  {
    m with
    sessions =
      SM.map
        (fun (p, g, seed, st) ->
          (p, g, seed, if st = M_queued then M_done else st))
        m.sessions;
    queue = [];
    shut = false;
  }

(* One command's transition and the answer it must get. *)
let model_step m = function
  | M_submit { id; key; protocol; graph; seed } -> (
      let id = m_id id and key = Option.map m_key key in
      let dup = Option.bind key (fun k -> SM.find_opt k m.keys) in
      (* With no workers the unfinished sessions are the queued ones, so
         the two-slot queue refuses before the three credits run out. *)
      let unfinished =
        SM.fold
          (fun _ (_, _, _, st) n -> if st = M_queued then n + 1 else n)
          m.sessions 0
      in
      if m.shut then (m, A_err "shutting_down")
      else
        match dup with
        | Some orig -> (
            match SM.find orig m.sessions with
            | p, g, seed, M_done -> (m, A_payload (p, g, seed))
            | _, _, _, M_cancelled -> (m, A_err "cancelled")
            | _, _, _, M_queued -> (m, A_state ("queued", Some orig)))
        | None ->
            if unfinished >= m_credits then (m, A_err "no_credit")
            else if SM.mem id m.sessions then (m, A_err "duplicate_id")
            else if List.length m.queue >= m_max_queue then
              (m, A_err "overloaded")
            else
              ( {
                  m with
                  sessions =
                    SM.add id (protocol, graph, seed, M_queued) m.sessions;
                  keys =
                    (match key with Some k -> SM.add k id m.keys | None -> m.keys);
                  queue = m.queue @ [ id ];
                },
                A_state ("queued", None) ))
  | M_status i -> (m, model_status m (m_id i))
  | M_result i -> (
      match SM.find_opt (m_id i) m.sessions with
      | None -> (m, A_err "unknown_id")
      | Some (p, g, seed, M_done) -> (m, A_payload (p, g, seed))
      | Some (_, _, _, M_cancelled) -> (m, A_err "cancelled")
      | Some (_, _, _, M_queued) -> (m, A_err "not_done"))
  | M_cancel i -> (
      let id = m_id i in
      match SM.find_opt id m.sessions with
      | None -> (m, A_err "unknown_id")
      | Some (_, _, _, M_queued) ->
          ( { m with sessions = set_state m id M_cancelled },
            A_state ("cancelled", None) )
      | Some (_, _, _, st) -> (m, A_state (mstate_name st, None)))
  | M_step -> (
      match m.queue with
      | [] -> (m, A_step false)
      | id :: rest ->
          let sessions =
            match SM.find id m.sessions with
            | _, _, _, M_queued -> set_state m id M_done
            | _ -> m.sessions
          in
          ({ m with sessions; queue = rest }, A_step true))
  | M_shutdown -> ({ m with shut = true }, A_state ("shutting_down", None))
  | M_crash -> invalid_arg "model_step: a crash has no answer; see model_crash"

let submit_of_mcmd ~id ~key ~protocol ~graph ~seed =
  Printf.sprintf
    "{\"op\":\"submit\",\"id\":%s,\"protocol\":%s,\"graph\":%s,\"scheduler\":\"random\",\"seed\":%d%s}"
    (J.escape (m_id id)) (J.escape protocol) (J.escape graph) seed
    (match key with
    | None -> ""
    | Some k -> Printf.sprintf ",\"key\":%s" (J.escape (m_key k)))

(* What a power cut can take from the journal: every [Result] after the
   last fsynced record, since an fsync covers everything written before
   it and a [Result] is never fsynced on its own. *)
let power_cut path =
  match Serve.Journal.scan_file path with
  | Error e -> QCheck.Test.fail_reportf "power cut: %s" e
  | Ok scan ->
      let rec drop_results = function
        | Serve.Journal.Result _ :: older -> drop_results older
        | kept -> kept
      in
      let kept = List.rev (drop_results (List.rev scan.Serve.Journal.records)) in
      Out_channel.with_open_bin path (fun oc ->
          List.iter
            (fun r -> Out_channel.output_string oc (Serve.Journal.encode r))
            kept)

let run_model_case cmds =
  let path = Filename.temp_file "anonet-model" ".journal" in
  Sys.remove path;
  let config =
    {
      S.default_config with
      graphs = [ ("small", "comb:4"); ("mid", "random:12:3") ];
      workers = 0;
      max_queue = m_max_queue;
      credits = m_credits;
      step_limit = 2_000;
      journal = Some path;
      journal_sync = false;
    }
  in
  let boot () =
    match S.create ~config () with
    | Ok t -> t
    | Error e -> QCheck.Test.fail_reportf "server create: %s" e
  in
  (* Result bytes seen so far, per (protocol, graph, seed). *)
  let payloads = Hashtbl.create 8 in
  let check_answer ~what expected resp =
    let fail () =
      QCheck.Test.fail_reportf "%s: expected %s, got %s" what
        (print_answer expected) resp
    in
    let v =
      match J.parse resp with Ok v -> v | Error _ -> fail ()
    in
    let ok = Option.bind (J.member "ok" v) J.to_bool_opt = Some true in
    let str obj name =
      Option.bind (J.member obj v) (fun o ->
          Option.bind (J.member name o) J.to_string_opt)
    in
    match expected with
    | A_err code -> if ok || str "error" "code" <> Some code then fail ()
    | A_state (st, key_of) ->
        if (not ok) || str "result" "state" <> Some st
           || str "result" "key_of" <> key_of
        then fail ()
    | A_payload (p, g, seed) -> (
        match J.member "result" v with
        | Some r when ok && J.member "state" r = None -> (
            let bytes = J.to_string r in
            match Hashtbl.find_opt payloads (p, g, seed) with
            | None -> Hashtbl.add payloads (p, g, seed) bytes
            | Some b when b = bytes -> ()
            | Some b ->
                QCheck.Test.fail_reportf "%s: payload %s differs from %s" what
                  bytes b)
        | _ -> fail ())
    | A_step _ -> fail ()
  in
  let server = ref (boot ()) in
  let run m cmd =
    let what = print_mcmd cmd in
    let t = !server in
    let answer resp =
      let m', expected = model_step m cmd in
      check_answer ~what expected resp;
      m'
    in
    match cmd with
    | M_crash ->
        S.stop t;
        power_cut path;
        server := boot ();
        (match S.recovery !server with
        | Some r when r.S.rec_mismatched = 0 -> ()
        | _ -> QCheck.Test.fail_reportf "%s: recovery mismatched" what);
        let m = model_crash m in
        (* Every acknowledged id is terminal; refused ids are free. *)
        List.iter
          (fun i ->
            check_answer
              ~what:(Printf.sprintf "%s, then status %s" what (m_id i))
              (model_status m (m_id i))
              (status !server (m_id i)))
          m_ids;
        m
    | M_step ->
        let m', expected = model_step m cmd in
        if A_step (S.step t) <> expected then
          QCheck.Test.fail_reportf "%s: expected %s" what (print_answer expected);
        m'
    | M_submit { id; key; protocol; graph; seed } ->
        answer (req t (submit_of_mcmd ~id ~key ~protocol ~graph ~seed))
    | M_status i -> answer (status t (m_id i))
    | M_result i -> answer (result t (m_id i))
    | M_cancel i -> answer (cancel t (m_id i))
    | M_shutdown -> answer (req t "{\"op\":\"shutdown\"}")
  in
  Fun.protect
    ~finally:(fun () ->
      S.stop !server;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (List.fold_left run model_empty cmds);
      true)

let prop_serve_model =
  qcheck_to_alcotest ~count:300 "answers match the model across crashes"
    arb_mcmds run_model_case

(* {1 Client retry policy}

   The client's backoff IS the supervisor's retransmission schedule:
   same config, same PRNG, same numbers. *)

let test_retry_policy_reuse () =
  let r = { Serve.Client.default_retry with r_base_ms = 20; r_seed = 7 } in
  let p_client = Prng.create 7 and p_sup = Prng.create 7 in
  let cfg = Runtime.Supervisor.config ~base_timeout:20 () in
  for round = 0 to 5 do
    Alcotest.(check int)
      (Printf.sprintf "round %d matches Supervisor.backoff" round)
      (Runtime.Supervisor.backoff cfg p_sup ~round)
      (Serve.Client.retry_delay_ms r p_client ~round)
  done

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "framing" `Quick test_wire_basic;
          Alcotest.test_case "overflow + resync" `Quick test_wire_overflow;
          prop_wire_chunking;
          Alcotest.test_case "protocol fuzz (truncate/flip/oversize)" `Quick
            test_wire_fuzz;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "submit/status/result/metrics" `Quick test_lifecycle;
          Alcotest.test_case "bad frames" `Quick test_bad_frames;
          Alcotest.test_case "duplicate id" `Quick test_duplicate_id;
          Alcotest.test_case "watch streams diffs" `Quick test_watch;
        ] );
      ( "admission",
        [
          Alcotest.test_case "overloaded" `Quick test_overloaded;
          Alcotest.test_case "no_credit" `Quick test_no_credit;
          Alcotest.test_case "bounded queue (Sched)" `Quick test_sched_bounded;
          Alcotest.test_case "idempotency keys" `Quick test_idempotent_keys;
          Alcotest.test_case "key rollback on overload" `Quick
            test_key_rollback_on_overload;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "journal replay across restart" `Quick
            test_recovery_restart;
          Alcotest.test_case "refused submits stay refused" `Quick
            test_recovery_rollback;
          prop_serve_model;
          Alcotest.test_case "client backoff = supervisor policy" `Quick
            test_retry_policy_reuse;
          Alcotest.test_case "a journaled cancel outlives its graph" `Quick
            test_recovery_config_change;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "queued" `Quick test_cancel_queued;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "running races" `Quick test_cancel_running_race;
          Alcotest.test_case "wedged session cancelled, healthy complete"
            `Quick test_cancel_running;
          Alcotest.test_case "journaled before visible" `Quick
            test_cancel_journaled_before_visible;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "8-way same-seed determinism" `Quick
            test_concurrent_determinism;
          Alcotest.test_case "engine member: accepted, ignored, recoverable"
            `Quick test_engine_wire_compat;
          Alcotest.test_case "shutdown" `Quick test_shutdown_refuses_submits;
        ] );
    ]
