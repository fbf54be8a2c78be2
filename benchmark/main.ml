(* The benchmark's command line (see README.md).

     main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]
         one workload in this process; the last line of stdout is its
         result as one JSON object
     main.exe run --seed N --out DIR [--seconds S]
         every workload, each in its own child process; writes
         DIR/result.json and exits 1 if a correctness check failed
     main.exe trace --seed N --out DIR [--seconds S]
         the traced run: DIR/trace-<w>.json (Perfetto) and
         DIR/layers-<w>.json per workload
     main.exe compare A.json... -- B.json...
         parent runs A against change runs B, per workload and metric;
         bounds come from ./BENCHMARK.json; exits 1 on a "worse" verdict *)

let usage =
  "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n\
  \       main.exe run|trace --seed N --out DIR [--seconds S]\n\
  \       main.exe compare A.json... -- B.json..."

let die msg =
  prerr_endline ("benchmark: " ^ msg);
  exit 2

let default_seconds = 20.0

(* [--key value] pairs. *)
let rec options acc = function
  | [] -> acc
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      options ((String.sub k 2 (String.length k - 2), v) :: acc) rest
  | x :: _ -> die (Printf.sprintf "unexpected argument %S\n%s" x usage)

let get opts key conv =
  match List.assoc_opt key opts with
  | None -> None
  | Some v -> (
      match conv v with
      | Some x -> Some x
      | None -> die (Printf.sprintf "bad value %S for --%s" v key))

let required opts key conv =
  match get opts key conv with
  | Some x -> x
  | None -> die (Printf.sprintf "--%s is required\n%s" key usage)

let seconds_of opts =
  Option.value ~default:default_seconds (get opts "seconds" float_of_string_opt)

let one_workload opts =
  let name = required opts "workload" Option.some in
  let w =
    match Measure.find name with
    | Some w -> w
    | None ->
        die
          (Printf.sprintf "unknown workload %S (%s)" name
             (String.concat ", " Spec.workloads))
  in
  let seed = required opts "seed" int_of_string_opt in
  let trace =
    required opts "trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
  in
  let r =
    Measure.run w ~seed ~seconds:(seconds_of opts) ~trace
      ~out:(List.assoc_opt "out" opts)
  in
  Report.print_lines name r.metrics;
  print_endline
    (Report.result_json ~correct:r.correct ~attempted:r.attempted
       ~failed:r.failed r.metrics)

let first_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let l = In_channel.input_line ic in
    ignore (Unix.close_process_in ic);
    l
  with Unix.Unix_error _ -> None

(* Where and how the numbers were made. *)
let stamp ~seed ~seconds =
  let str k v = Printf.sprintf "%s:%s" (Obs.Json.escape k) (Obs.Json.escape v) in
  Report.mkdir_p Wl_serve.work_dir;
  "{"
  ^ String.concat ","
      [
        Printf.sprintf "\"nproc\":%d" (Domain.recommended_domain_count ());
        str "ocaml" Sys.ocaml_version;
        str "profile" Build_info.profile;
        str "git"
          (Option.value ~default:"unknown"
             (first_line "git rev-parse --short HEAD 2>/dev/null"));
        Printf.sprintf "\"seed\":%d" seed;
        Printf.sprintf "\"seconds\":%s" (Report.number seconds);
        str "journal_fs"
          (Option.value ~default:"unknown"
             (first_line ("stat -f -c %T " ^ Wl_serve.work_dir ^ " 2>/dev/null")));
      ]
  ^ "}"

(* Each workload in a child process of this executable, so peak memory and
   GC state belong to one workload. *)
let every_workload ~trace opts =
  let seed = required opts "seed" int_of_string_opt in
  let seconds = seconds_of opts in
  let out = required opts "out" Option.some in
  Report.mkdir_p out;
  let results =
    List.map
      (fun w ->
        let args =
          [
            Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
            "--seconds"; Report.number seconds; "--trace";
            (if trace then "1" else "0"); "--out"; out;
          ]
        in
        let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
        let lines =
          List.rev (String.split_on_char '\n' (String.trim (In_channel.input_all ic)))
        in
        let status = Unix.close_process_in ic in
        List.iter print_endline (List.rev (List.tl lines));
        let result, correct =
          match Obs.Json.parse (List.hd lines) with
          | Ok v ->
              ( List.hd lines,
                status = Unix.WEXITED 0
                && Option.bind (Obs.Json.member "correct" v) Obs.Json.to_bool_opt
                   = Some true )
          | Error _ -> ("null", false)
        in
        if not correct then Printf.printf "%s: correctness check FAILED\n" w;
        (w, result, correct))
      Spec.workloads
  in
  if trace then
    (* The split each workload was chosen for. *)
    List.iter
      (fun (w, metric) ->
        let _, r, _ = List.find (fun (w', _, _) -> w' = w) results in
        let share =
          match Obs.Json.parse r with
          | Ok v ->
              Option.bind (Obs.Json.member "metrics" v) (fun ms ->
                  Option.bind (Obs.Json.member metric ms) (fun m ->
                      Option.bind (Obs.Json.member "value" m) Obs.Json.to_float_opt))
          | Error _ -> None
        in
        match share with
        | Some x ->
            Printf.printf "split %s: %s = %.3f, %s\n" w metric x
              (if x >= 0.75 then "holds (>= 0.75)" else "does not hold (< 0.75)")
        | None -> Printf.printf "split %s: %s missing\n" w metric)
      [
        ("flood-layered", "runtime.engine.self_share");
        ("general-cyclic", "anonet.general.share");
      ]
  else
    Out_channel.with_open_text (Filename.concat out "result.json") (fun oc ->
        Printf.fprintf oc "{\"stamp\":%s,\"workloads\":{%s}}\n" (stamp ~seed ~seconds)
          (String.concat ","
             (List.map (fun (w, r, _) -> Obs.Json.escape w ^ ":" ^ r) results)));
  flush stdout;
  if List.exists (fun (_, _, ok) -> not ok) results then exit 1

let load_bounds () =
  let text =
    try In_channel.with_open_text "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> die e
  in
  match Spec.of_benchmark_json text with
  | Ok d -> d.d_end_to_end
  | Error e -> die ("BENCHMARK.json: " ^ e)

(* [(workload, metric) -> value] of one result.json. *)
let load_result file =
  let module J = Obs.Json in
  let text =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error e -> die e
  in
  match J.parse text with
  | Error pos -> die (Printf.sprintf "%s: not JSON (byte %d)" file pos)
  | Ok v ->
      let members = function Some (J.Object l) -> l | _ -> [] in
      List.concat_map
        (fun (w, r) ->
          List.filter_map
            (fun (m, o) ->
              Option.map
                (fun x -> ((w, m), x))
                (Option.bind (J.member "value" o) J.to_float_opt))
            (members (J.member "metrics" r)))
        (members (J.member "workloads" v))

let compare args =
  let rec split acc = function
    | "--" :: b -> (List.rev acc, b)
    | x :: rest -> split (x :: acc) rest
    | [] -> die usage
  in
  let a_files, b_files = split [] args in
  if a_files = [] || b_files = [] then die usage;
  let bounds = load_bounds () in
  let a = List.map load_result a_files and b = List.map load_result b_files in
  let values sets key = List.filter_map (List.assoc_opt key) sets in
  let worse = ref false in
  Printf.printf "%-15s %-17s %-40s %-40s %-7s %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "B wins" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun ((m : Spec.metric), bound) ->
          match (values a (w, m.name), values b (w, m.name)) with
          | [], _ | _, [] -> ()
          | xs, ys ->
              let o = Verdict.decide ~better:m.better ~bound xs ys in
              if o.verdict = Verdict.Worse then worse := true;
              let cell (s : Stats.summary) =
                Printf.sprintf "%.6g [%.6g, %.6g]" s.median s.q1 s.q3
              in
              Printf.printf "%-15s %-17s %-40s %-40s %-7s %s\n" w m.name
                (cell o.a) (cell o.b)
                (Printf.sprintf "%d/%d" o.wins o.pairs)
                (Verdict.to_string o.verdict))
        bounds)
    Spec.workloads;
  if !worse then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> every_workload ~trace:false (options [] rest)
  | "trace" :: rest -> every_workload ~trace:true (options [] rest)
  | "compare" :: rest -> compare rest
  | [] -> die usage
  | args -> one_workload (options [] args)
