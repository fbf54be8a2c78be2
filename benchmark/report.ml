(* Rendering measured metrics — human-readable lines and the JSON objects
   the result line, result.json and layers-<w>.json are made of — and
   creating the directories they go to. *)

(* Full precision; JSON has no token for a non-finite number. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json metrics =
  "{"
  ^ String.concat ","
      (List.map
         (fun ((m : Spec.metric), v) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Obs.Json.escape m.name)
             (number v) (Obs.Json.escape m.unit_))
         metrics)
  ^ "}"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}" correct
    attempted failed (metrics_json metrics)

let layers_json workload metrics =
  Printf.sprintf "{\"workload\":%s,\"metrics\":%s}\n" (Obs.Json.escape workload)
    (metrics_json metrics)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let print_lines workload metrics =
  List.iter
    (fun ((m : Spec.metric), v) ->
      Printf.printf "%s %s %s %s\n" workload m.name (number v) m.unit_)
    metrics
