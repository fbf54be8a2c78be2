(* What the workloads share: the round record Measure turns into
   end-to-end metrics, and per-run engine accounting for the layers. *)

(* One measured round (a serve window, a campaign sweep, a batch of engine
   runs). *)
type round = {
  wall_s : float;
  runs : int;
  deliveries : int;
  attempted : int;
  failed : int;
}

type phase = Warmup | Measured | Traced

module type WORKLOAD = sig
  val name : string

  type env

  val setup : seed:int -> env
  (** Everything before the first run: graph generation, server boot. *)

  val dispose : env -> unit

  val parts : int
  (** A cycle of the workload is [parts] rounds, round [p] doing part [p]
      of the work; every cycle repeats the same work.  Short rounds give
      each part's fastest round a chance to fall in one of the host's fast
      phases. *)

  val round_s : float
  (** Nominal length of one round at the seed commit (2 vCPU, release
      profile): [--seconds] divided by a cycle's length is the number of
      measured cycles, so every commit measures the same work. *)

  val min_cycles : int
  (** Cycles measured however small [--seconds] is: enough for the serve
      windows' p99 (1000 sessions) and a few rounds per part. *)

  val round : env -> part:int -> phase -> round
  (** In the [Traced] phase protocols are {!Timed}, spans go to
      [!Timed.timeline] and general broadcast's operands are captured for
      {!Replay}. *)

  val check : env -> bool
  (** Whole-run correctness after the rounds (e.g. serve reconciliation). *)

  val layers : env -> (string -> float -> unit) -> unit
  (** Per-layer metrics gathered by the rounds; called after the traced
      cycle. *)
end

(* {1 Per-run engine accounting} *)

type run_probe = {
  run_ns : int;
  self_ns : int;  (** [run_ns] minus time inside {!Timed} protocol calls. *)
  alloc_words : float;  (** Minor words allocated by the run. *)
}

(* Time one engine run, as an [engine.run] span when a timeline is
   installed. *)
let probe f =
  let track = Timed.track and tl = !Timed.timeline in
  Option.iter (fun tl -> Obs.Timeline.begin_span tl ~track "engine.run") tl;
  let w0 = Gc.minor_words () in
  let p0 = !Timed.proto_ns in
  let t0 = Clock.now_ns () in
  let r = f () in
  let run_ns = Clock.now_ns () - t0 in
  let self_ns = run_ns - (!Timed.proto_ns - p0) in
  let alloc_words = Gc.minor_words () -. w0 in
  Option.iter (fun tl -> Obs.Timeline.end_span tl ~track "engine.run") tl;
  (r, { run_ns; self_ns; alloc_words })

(* Sums over runs. *)
type engine = {
  mutable run_ns : int;  (** Traced runs only, like every [*_self] field. *)
  mutable fifo_self : int;
  mutable fifo_deliveries : int;
  mutable other_self : int;
  mutable other_deliveries : int;
  mutable alloc_words : float;  (** Untraced runs only. *)
  mutable alloc_deliveries : int;
  mutable max_in_flight : int;
  mutable bits : int;  (** Traced runs only. *)
  mutable messages : int;
}

let engine () =
  {
    run_ns = 0;
    fifo_self = 0;
    fifo_deliveries = 0;
    other_self = 0;
    other_deliveries = 0;
    alloc_words = 0.0;
    alloc_deliveries = 0;
    max_in_flight = 0;
    bits = 0;
    messages = 0;
  }

let record e ~traced ~fifo ~deliveries ~bits ~max_in_flight (p : run_probe) =
  if traced then begin
    e.run_ns <- e.run_ns + p.run_ns;
    if fifo then begin
      e.fifo_self <- e.fifo_self + p.self_ns;
      e.fifo_deliveries <- e.fifo_deliveries + deliveries
    end
    else begin
      e.other_self <- e.other_self + p.self_ns;
      e.other_deliveries <- e.other_deliveries + deliveries
    end;
    e.max_in_flight <- max e.max_in_flight max_in_flight;
    e.bits <- e.bits + bits;
    e.messages <- e.messages + deliveries
  end
  else begin
    e.alloc_words <- e.alloc_words +. p.alloc_words;
    e.alloc_deliveries <- e.alloc_deliveries + deliveries
  end

type outcome = { deliveries : int; bits : int; in_flight : int; ok : bool }

let outcome ok (r : _ Runtime.Engine.report) =
  {
    deliveries = r.deliveries;
    bits = r.total_bits;
    in_flight = r.max_in_flight;
    ok = ok r;
  }

(* A round of sequential engine runs, each given as [(fifo, run)] where
   [run ~traced] executes it plain or {!Timed}. *)
let engine_round e ~traced runs =
  let one (fifo, run) =
    let o, p = probe (fun () -> run ~traced) in
    record e ~traced ~fifo ~deliveries:o.deliveries ~bits:o.bits
      ~max_in_flight:o.in_flight p;
    o
  in
  let results, wall_s = Clock.time (fun () -> List.map one runs) in
  let n = List.length results in
  {
    wall_s;
    runs = n;
    deliveries = List.fold_left (fun acc o -> acc + o.deliveries) 0 results;
    attempted = n;
    failed = List.length (List.filter (fun o -> not o.ok) results);
  }

let general_name = Anonet.General_broadcast.name

(* Engine and protocol layers, from [e] and the {!Timed} sums. *)
let engine_layers e set =
  let f = float_of_int in
  let per a b = Stats.ratio (f a) (f b) in
  set "runtime.engine.fifo_ns_per_delivery" (per e.fifo_self e.fifo_deliveries);
  set "runtime.engine.nonfifo_ns_per_delivery"
    (per e.other_self e.other_deliveries);
  set "runtime.engine.self_share" (per (e.fifo_self + e.other_self) e.run_ns);
  set "runtime.engine.alloc_words_per_delivery"
    (Stats.ratio e.alloc_words (f e.alloc_deliveries));
  set "runtime.engine.max_in_flight" (f e.max_in_flight);
  set "anonet.bits_per_message" (per e.bits e.messages);
  set "anonet.total_bits" (f e.bits);
  let ns_per_call protocol op =
    let ns, calls = Timed.sum protocol op in
    per ns calls
  in
  set "anonet.flood.receive_ns" (ns_per_call Anonet.Flood.name Receive);
  set "anonet.general.receive_ns" (ns_per_call general_name Receive);
  set "anonet.general.encode_ns" (ns_per_call general_name Encode);
  set "anonet.general.state_bits_ns" (ns_per_call general_name State_bits);
  set "anonet.general.receive_calls" (f (snd (Timed.sum general_name Receive)));
  let general_ns =
    List.fold_left
      (fun acc op -> acc + fst (Timed.sum general_name op))
      0 [ Timed.Receive; Encode; Decode; State_bits ]
  in
  set "anonet.general.share" (per general_ns e.run_ns)
