(* Chaos searches against their frozen output.

   [chaos_golden.txt] holds, one line per search, the [Chaos.to_json] of a
   fixed set of searches: the flood negative control, general broadcast
   bare under kills and crashes (with and without churn atoms), the
   amnesiac churn control, and the two supervised searches CI runs, which
   must find nothing.  Together they cover every fault atom the search
   draws (kill, crash, churn remove, churn add) and every witness kind's
   shrink and recorded schedule.  Each search must reproduce its line
   byte-for-byte: a refactor of the fault layers may change how a witness
   is found, never which one. *)

module Ch = Runtime.Chaos
module V = Runtime.Vfaults

let general ~k =
  Anonet.Resilient.chaos_runner ~k (module Anonet.General_broadcast)

let rec find key s i =
  if i + String.length key > String.length s then None
  else if String.sub s i (String.length key) = key then Some i
  else find key s (i + 1)

(* [Chaos.to_json] with every recorded schedule replaced by its length and
   an MD5 prefix: livelock schedules run to the step limit, and the
   fixture stays readable everywhere else. *)
let render res =
  let json = Ch.to_json res in
  let key = "\"schedule\":[" in
  let b = Buffer.create (String.length json) in
  let rec go i =
    match find key json i with
    | None -> Buffer.add_substring b json i (String.length json - i)
    | Some j ->
        let start = j + String.length key in
        let stop = String.index_from json start ']' in
        let body = String.sub json start (stop - start) in
        let count =
          if body = "" then 0
          else List.length (String.split_on_char ',' body)
        in
        Buffer.add_substring b json i (j - i);
        Printf.bprintf b "\"schedule\":\"%d:%s\"" count
          (String.sub (Digest.to_hex (Digest.string body)) 0 12);
        go (stop + 1)
  in
  go 0;
  Buffer.contents b

let search cfg runner graphs () =
  render (Ch.run cfg ~runners:[ runner ] ~graphs)

let searches () =
  let graphs = Anonet.Resilient.chaos_graphs () in
  [
    ( "flood-negative",
      search
        (Ch.config ~budget:40 ~seed:11 ~recoveries:[ V.Amnesia ] ~p_edge:0.0 ())
        (Anonet.Resilient.chaos_runner ~k:1 (module Anonet.Flood))
        graphs );
    ( "general-k1",
      search (Ch.config ~budget:300 ~seed:5 ()) (general ~k:1) graphs );
    ( "general-k1-churn",
      search
        (Ch.config ~budget:200 ~seed:5 ~p_churn:0.3 ~churn_t:3 ())
        (general ~k:1) graphs );
    ( "amnesiac-churn",
      fun () -> render (Anonet.Check_suite.chaos_amnesiac ~budget:8 ~seed:11 ())
    );
    ( "supervised",
      fun () ->
        render (Anonet.Check_suite.chaos_supervised ~budget:60 ~seed:11 ()) );
    ( "supervised-churn",
      search
        (Ch.config ~budget:25 ~seed:11 ~p_churn:0.5 ~churn_t:4
           ~supervisor:Runtime.Supervisor.default ())
        (general ~k:3)
        (graphs @ [ Anonet.Check_suite.dynamic_case ~n:12 ]) );
  ]

let fixture =
  lazy
    (let ic = open_in "chaos_golden.txt" in
     let tbl = Hashtbl.create 8 in
     (try
        while true do
          let line = input_line ic in
          match String.index_opt line '\t' with
          | Some i ->
              Hashtbl.replace tbl (String.sub line 0 i)
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> ()
        done
      with End_of_file -> close_in ic);
     tbl)

(* The first byte where two renderings part, with some context. *)
let first_difference want got =
  let n = min (String.length want) (String.length got) in
  let rec go i = if i < n && want.[i] = got.[i] then go (i + 1) else i in
  let i = go 0 in
  let around s =
    let from = max 0 (i - 40) in
    String.sub s from (min 80 (String.length s - from))
  in
  Printf.sprintf "at byte %d:\n  want ...%s\n  got  ...%s" i (around want)
    (around got)

let check (name, run) () =
  match Hashtbl.find_opt (Lazy.force fixture) name with
  | None -> Alcotest.failf "%s: no fixture entry" name
  | Some want ->
      let got = run () in
      if got <> want then
        Alcotest.failf "%s differs from the golden %s" name
          (first_difference want got)

let () =
  Alcotest.run "chaos-golden"
    [
      ( "golden",
        List.map
          (fun ((name, _) as s) -> Alcotest.test_case name `Quick (check s))
          (searches ()) );
    ]
