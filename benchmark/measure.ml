(* One workload in this process: set-up, a warm-up cycle, the measured
   cycles and, with [trace], one instrumented cycle plus the operand
   replays. *)

module H = Harness

let workloads : (module H.WORKLOAD) list =
  [ (module Wl_flood); (module Wl_general); (module Wl_serve); (module Wl_sweep) ]

let find name =
  List.find_opt (fun (module W : H.WORKLOAD) -> W.name = name) workloads

(* Set-up is timed back to back before the warm-up — at least
   [min_setup_reps] times, and up to [max_setup_reps] while under
   [setup_burst_s] — then once more after each measured cycle while set-up
   has taken less than [setup_share] of the run, so that the fastest
   set-up, like the fastest round, can come from one of the host's fast
   phases. *)
let min_setup_reps = 5
let max_setup_reps = 50
let setup_burst_s = 0.2
let setup_share = 0.05

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (Spec.metric * float) list;
}

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some l -> (
                match String.split_on_char ':' l with
                | [ "VmHWM"; v ] ->
                    Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
                | _ -> go ())
          in
          go ())
    with Sys_error _ -> None
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.0
  | None ->
      float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

(* The seconds of one cycle: for each part, [pick] over that part's round
   times, summed. *)
let cycle_s ~parts pick rounds =
  List.fold_left ( +. ) 0.0
    (List.init parts (fun p ->
         pick
           (List.filter_map
              (fun (q, (r : H.round)) -> if q = p then Some r.wall_s else None)
              rounds)))

let fastest = List.fold_left Float.min infinity

let run (module W : H.WORKLOAD) ~seed ~seconds ~trace ~out =
  let t_run = Clock.now_ns () in
  let setup_times = ref [] in
  let setup () =
    let env, dt = Clock.time (fun () -> W.setup ~seed) in
    setup_times := dt :: !setup_times;
    env
  in
  let spent () = List.fold_left ( +. ) 0.0 !setup_times in
  let rec burst () =
    let env = setup () in
    let n = List.length !setup_times in
    if n < min_setup_reps || (n < max_setup_reps && spent () < setup_burst_s)
    then begin
      W.dispose env;
      burst ()
    end
    else env
  in
  let env = burst () in
  let cycles =
    max W.min_cycles
      (int_of_float (Float.round (seconds /. (W.round_s *. float_of_int W.parts))))
  in
  (* Every round starts from a collected heap (outside the timed region),
     so it does not pay for its predecessor's garbage and the peak RSS does
     not depend on when a collection happened to run. *)
  let cycle phase =
    List.init W.parts (fun part ->
        let r = W.round env ~part phase in
        Gc.full_major ();
        (part, r))
  in
  let warm = cycle H.Warmup in
  let measured =
    List.concat
      (List.init cycles (fun _ ->
           let c = cycle H.Measured in
           if spent () < setup_share *. float_of_int (Clock.now_ns () - t_run) *. 1e-9
           then begin
             W.dispose (setup ());
             Gc.full_major ()
           end;
           c))
  in
  let per_cycle f =
    float_of_int (List.fold_left (fun acc (_, r) -> acc + f r) 0 measured)
    /. float_of_int cycles
  in
  let traced =
    if not trace then None
    else begin
      let tl = Obs.Timeline.create ~clock:Clock.now_s ~capacity:(1 lsl 18) () in
      Timed.reset ();
      Replay.start ();
      Timed.timeline := Some tl;
      let rounds = cycle H.Traced in
      Timed.timeline := None;
      Replay.stop ();
      Some (rounds, tl)
    end
  in
  let checked = W.check env in
  let all = List.map snd (warm @ measured @ Option.fold ~none:[] ~some:fst traced) in
  let attempted = List.fold_left (fun acc (r : H.round) -> acc + r.attempted) 0 all in
  let failed = List.fold_left (fun acc (r : H.round) -> acc + r.failed) 0 all in
  let metrics, trace_ok =
    match traced with
    | None ->
        (* Rates and set-up time use the fastest round of each part and
           the fastest set-up: on a shared host slowdowns are one-sided and
           last seconds (see README.md), so the fastest round tracks the
           code while the median tracks the neighbours. *)
        let cycle = cycle_s ~parts:W.parts fastest measured in
        let values =
          [
            ("deliveries_per_s", per_cycle (fun r -> r.H.deliveries) /. cycle);
            ("runs_per_s", per_cycle (fun r -> r.H.runs) /. cycle);
            ("peak_rss_mb", peak_rss_mb ());
            ("setup_s", fastest !setup_times);
          ]
        in
        ( List.map
            (fun (m : Spec.metric) -> (m, List.assoc m.name values))
            Spec.end_to_end,
          true )
    | Some (rounds, tl) ->
        let table = Hashtbl.create 64 in
        let set name v =
          if Spec.find Spec.per_layer name = None then
            invalid_arg ("unknown per-layer metric " ^ name);
          Hashtbl.replace table name v
        in
        W.layers env set;
        Replay.layers set;
        let typical = cycle_s ~parts:W.parts Stats.median in
        set "trace.overhead" ((typical rounds /. typical measured) -. 1.0);
        let metrics =
          List.map
            (fun (m : Spec.metric) ->
              (m, Option.value ~default:0.0 (Hashtbl.find_opt table m.name)))
            Spec.per_layer
        in
        let chrome = Obs.Export.chrome_trace ~process_name:W.name tl in
        Option.iter
          (fun dir ->
            Report.mkdir_p dir;
            let write file s =
              Out_channel.with_open_text (Filename.concat dir file) (fun oc ->
                  output_string oc s)
            in
            write ("trace-" ^ W.name ^ ".json") chrome;
            write ("layers-" ^ W.name ^ ".json") (Report.layers_json W.name metrics))
          out;
        (metrics, Obs.Json.valid chrome)
  in
  W.dispose env;
  { correct = checked && trace_ok && failed = 0; attempted; failed; metrics }
