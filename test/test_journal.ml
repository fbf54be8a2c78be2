(* The write-ahead journal: CRC framing, encode/scan roundtrips, and —
   the robustness core — torn-write tolerance.  A crash can damage only
   the file's tail, so the tests truncate a known log at EVERY byte
   offset and corrupt every byte of its final record, asserting the scan
   never raises, keeps exactly the intact prefix, and reports (not
   swallows) the torn tail. *)

module Jn = Serve.Journal

let sample_records =
  [
    Jn.Submitted
      {
        id = "a";
        line = "{\"op\":\"submit\",\"id\":\"a\",\"protocol\":\"flood\"}";
      };
    Jn.Result
      {
        id = "a";
        digest = Jn.digest "{\"outcome\":\"quiescent\"}";
        outcome = "done";
        deliveries = 16;
        total_bits = 16;
      };
    Jn.Submitted { id = "b\"\n\\x"; line = "weird \"id\" \\ bytes" };
    Jn.Cancelled { id = "b\"\n\\x"; reason = "watchdog" };
    Jn.Failed { id = "c"; code = "unknown_graph"; msg = "no graph \"g\"" };
  ]

let sample_log () =
  String.concat "" (List.map Jn.encode sample_records)

let check_records msg expected records =
  Alcotest.(check int) (msg ^ ": record count") (List.length expected)
    (List.length records);
  List.iteri
    (fun i (e, g) ->
      if e <> g then
        Alcotest.failf "%s: record %d differs:\n  %s\nvs\n  %s" msg i
          (Jn.encode e) (Jn.encode g))
    (List.combine expected records)

let test_crc32 () =
  (* The IEEE CRC32 check value: crc32("123456789") = 0xcbf43926. *)
  Alcotest.(check int) "IEEE check value" 0xcbf43926 (Jn.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Jn.crc32 "")

let test_roundtrip () =
  let scan = Jn.scan_string (sample_log ()) in
  check_records "roundtrip" sample_records scan.Jn.records;
  Alcotest.(check bool) "not torn" false scan.Jn.torn;
  Alcotest.(check int) "all bytes valid"
    (String.length (sample_log ()))
    scan.Jn.valid_bytes;
  (* Digest helper agrees with the stdlib. *)
  Alcotest.(check string) "digest = MD5 hex"
    (Digest.to_hex (Digest.string "payload"))
    (Jn.digest "payload")

(* Truncate the log at every byte offset: the scan must keep exactly the
   records whose full framed lines survive, flag everything else as a
   torn tail, and never raise. *)
let test_truncation_sweep () =
  let log = sample_log () in
  let n = String.length log in
  (* Record-boundary offsets, cumulative. *)
  let boundaries =
    List.fold_left
      (fun acc r ->
        (List.hd acc + String.length (Jn.encode r)) :: acc)
      [ 0 ] sample_records
  in
  let intact_at cut =
    (* How many leading records fit entirely in [0, cut). *)
    let rec go taken off = function
      | [] -> taken
      | r :: rest ->
          let off' = off + String.length (Jn.encode r) in
          if off' <= cut then go (taken + 1) off' rest else taken
    in
    go 0 0 sample_records
  in
  for cut = 0 to n do
    let scan = Jn.scan_string (String.sub log 0 cut) in
    let expected =
      List.filteri (fun i _ -> i < intact_at cut) sample_records
    in
    check_records (Printf.sprintf "cut at %d" cut) expected scan.Jn.records;
    let at_boundary = List.mem cut boundaries in
    Alcotest.(check bool)
      (Printf.sprintf "torn flag at %d" cut)
      (not at_boundary) scan.Jn.torn
  done

(* Flip every byte of the final record (xor 0xff maps every hex digit,
   '{', '"' and '\n' out of its alphabet, so damage is always visible to
   framing, checksum or decode): the prefix must survive, the tail must
   be reported torn, nothing may raise. *)
let test_corruption_sweep () =
  let log = sample_log () in
  let prefix = List.filteri (fun i _ -> i < 4) sample_records in
  let tail_start =
    List.fold_left (fun acc r -> acc + String.length (Jn.encode r)) 0 prefix
  in
  for pos = tail_start to String.length log - 1 do
    let b = Bytes.of_string log in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
    let scan = Jn.scan_string (Bytes.to_string b) in
    check_records (Printf.sprintf "corrupt byte %d" pos) prefix scan.Jn.records;
    Alcotest.(check bool)
      (Printf.sprintf "torn at %d" pos)
      true scan.Jn.torn;
    Alcotest.(check int)
      (Printf.sprintf "prefix end at %d" pos)
      tail_start scan.Jn.valid_bytes
  done

(* A record body that decodes as JSON but is not a journal record (bad
   "k", missing members) also stops the scan without raising. *)
let test_alien_records () =
  let frame body = Printf.sprintf "%08x %s\n" (Jn.crc32 body) body in
  let log = Jn.encode (List.hd sample_records) ^ frame "{\"k\":\"martian\"}" in
  let scan = Jn.scan_string log in
  check_records "alien kind" [ List.hd sample_records ] scan.Jn.records;
  Alcotest.(check bool) "alien kind is torn" true scan.Jn.torn;
  let log2 = frame "[1,2,3]" in
  let scan2 = Jn.scan_string log2 in
  Alcotest.(check int) "non-object body" 0 (List.length scan2.Jn.records);
  Alcotest.(check bool) "non-object torn" true scan2.Jn.torn;
  (* Underscores are valid in OCaml int literals but not in our CRC hex
     field — the parser must not accept "0xab_cd"-style damage. *)
  let body = "{\"k\":\"cancel\",\"id\":\"z\",\"reason\":\"r\"}" in
  let crc = Printf.sprintf "%08x" (Jn.crc32 body) in
  let crooked = "0_" ^ String.sub crc 2 6 ^ " " ^ body ^ "\n" in
  let scan3 = Jn.scan_string crooked in
  Alcotest.(check int) "underscored crc rejected" 0
    (List.length scan3.Jn.records);
  Alcotest.(check bool) "underscored crc torn" true scan3.Jn.torn

let with_temp f =
  let path = Filename.temp_file "anonet-journal" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_open_append_truncates () =
  with_temp (fun path ->
      (* A valid prefix plus a torn tail on disk... *)
      let oc = open_out_bin path in
      output_string oc (sample_log ());
      output_string oc "deadbeef {\"k\":\"result\",\"id\":";  (* no newline *)
      close_out oc;
      (match Jn.open_append path with
      | Error e -> Alcotest.failf "open_append: %s" e
      | Ok (j, scan) ->
          Alcotest.(check bool) "tail reported torn" true scan.Jn.torn;
          check_records "prefix kept" sample_records scan.Jn.records;
          (* ...is amputated, so appends continue a clean log. *)
          Jn.append j (Jn.Cancelled { id = "late"; reason = "cancel" });
          Jn.close j);
      match Jn.scan_file path with
      | Error e -> Alcotest.failf "rescan: %s" e
      | Ok scan ->
          check_records "clean continuation"
            (sample_records @ [ Jn.Cancelled { id = "late"; reason = "cancel" } ])
            scan.Jn.records;
          Alcotest.(check bool) "no longer torn" false scan.Jn.torn)

let test_writer_stats_and_idempotent_close () =
  with_temp (fun path ->
      Sys.remove path;
      (match Jn.scan_file path with
      | Ok scan ->
          Alcotest.(check int) "missing file: empty" 0
            (List.length scan.Jn.records);
          Alcotest.(check bool) "missing file: not torn" false scan.Jn.torn
      | Error e -> Alcotest.failf "missing file: %s" e);
      match Jn.open_append ~sync:false path with
      | Error e -> Alcotest.failf "open_append: %s" e
      | Ok (j, _) ->
          List.iter (Jn.append j) sample_records;
          let st = Jn.stats j in
          Alcotest.(check int) "appends counted"
            (List.length sample_records)
            st.Jn.s_appends;
          Alcotest.(check int) "bytes counted"
            (String.length (sample_log ()))
            st.Jn.s_bytes;
          Jn.close j;
          Jn.close j;
          (* close is idempotent *)
          Alcotest.check_raises "append after close"
            (Invalid_argument "Journal.append: closed") (fun () ->
              Jn.append j (Jn.Cancelled { id = "x"; reason = "r" })))

(* {1 The durability rule}

   [Submitted], [Cancelled] and [Failed] are fsynced before [append]
   returns; a [Result] never waits for an fsync. *)

let with_sync_journal f =
  with_temp (fun path ->
      Sys.remove path;
      match Jn.open_append ~sync:true path with
      | Error e -> Alcotest.failf "open_append: %s" e
      | Ok (j, _) -> f path j)

let submitted i =
  Jn.Submitted { id = Printf.sprintf "s%d" i; line = string_of_int i }

let result i =
  Jn.Result
    {
      id = Printf.sprintf "s%d" i;
      digest = Jn.digest (string_of_int i);
      outcome = "done";
      deliveries = i;
      total_bits = i;
    }

let rescan path =
  match Jn.scan_file path with
  | Error e -> Alcotest.failf "rescan: %s" e
  | Ok scan ->
      Alcotest.(check bool) "scan not torn" false scan.Jn.torn;
      scan.Jn.records

(* A session's two records cost one fsync: the [Submitted]. *)
let test_one_fsync_per_session () =
  let n = 20 in
  with_sync_journal (fun path j ->
      for i = 1 to n do
        Jn.append j (submitted i);
        Jn.append j (result i)
      done;
      let st = Jn.stats j in
      Alcotest.(check int) "appends" (2 * n) st.Jn.s_appends;
      Alcotest.(check int) "fsyncs" n st.Jn.s_fsyncs;
      Jn.close j;
      check_records "all on disk"
        (List.concat_map (fun i -> [ submitted i; result i ]) (List.init n succ))
        (rescan path))

(* One domain appends the fsynced kinds while another appends [Result]s:
   the log interleaves them, but holds every record once and keeps each
   domain's own order. *)
let test_concurrent_kinds () =
  let n = 200 in
  let durable i =
    match i mod 3 with
    | 0 -> submitted i
    | 1 -> Jn.Cancelled { id = Printf.sprintf "s%d" i; reason = "cancel" }
    | _ -> Jn.Failed { id = Printf.sprintf "s%d" i; code = "bad_request"; msg = "m" }
  in
  let durables = List.init n durable and results = List.init n result in
  with_sync_journal (fun path j ->
      let d = Domain.spawn (fun () -> List.iter (Jn.append j) durables) in
      List.iter (Jn.append j) results;
      Domain.join d;
      let st = Jn.stats j in
      Alcotest.(check int) "appends" (2 * n) st.Jn.s_appends;
      Alcotest.(check bool) "at most one fsync per fsynced record" true
        (st.Jn.s_fsyncs <= n);
      Jn.close j;
      let records = rescan path in
      Alcotest.(check int) "every record once" (2 * n) (List.length records);
      let is_result = function Jn.Result _ -> true | _ -> false in
      check_records "fsynced kinds in order" durables
        (List.filter (fun r -> not (is_result r)) records);
      check_records "results in order" results (List.filter is_result records))

(* A [Result] appended while another domain's syncer is in write+fsync
   waits in the writer's buffer only until that syncer is back: the
   syncer writes it out before it returns.  Race a [Submitted] against a
   [Result] and check, in every round, that both are on disk once both
   appends have returned — before [close] could flush anything. *)
let test_buffered_result_written_by_syncer () =
  for _ = 1 to 200 do
    with_sync_journal (fun path j ->
        let started = Atomic.make false in
        let d =
          Domain.spawn (fun () ->
              Atomic.set started true;
              Jn.append j (submitted 1))
        in
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        Jn.append j (result 1);
        Domain.join d;
        let on_disk = rescan path in
        Alcotest.(check int) "both records before close" 2
          (List.length on_disk);
        Alcotest.(check bool) "the Result is among them" true
          (List.mem (result 1) on_disk);
        Jn.close j)
  done

let () =
  Alcotest.run "journal"
    [
      ( "framing",
        [
          Alcotest.test_case "crc32 check value" `Quick test_crc32;
          Alcotest.test_case "encode/scan roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "alien records stop the scan" `Quick
            test_alien_records;
        ] );
      ( "torn-writes",
        [
          Alcotest.test_case "truncation at every byte offset" `Quick
            test_truncation_sweep;
          Alcotest.test_case "corruption of every tail byte" `Quick
            test_corruption_sweep;
          Alcotest.test_case "open_append truncates the torn tail" `Quick
            test_open_append_truncates;
        ] );
      ( "writer",
        [
          Alcotest.test_case "stats + idempotent close" `Quick
            test_writer_stats_and_idempotent_close;
        ] );
      ( "durability-rule",
        [
          Alcotest.test_case "one fsync per session" `Quick
            test_one_fsync_per_session;
          Alcotest.test_case "concurrent kinds keep their order" `Quick
            test_concurrent_kinds;
          Alcotest.test_case "buffered Result is on disk before close" `Quick
            test_buffered_result_written_by_syncer;
        ] );
    ]
