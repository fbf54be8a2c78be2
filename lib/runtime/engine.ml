type outcome = Terminated | Quiescent | Step_limit | Cancelled

type fault_stats = {
  dropped_copies : int;
  extra_copies : int;
  delayed_copies : int;
  corrupted_deliveries : int;
  garbled_drops : int;
  checksum_rejects : int;
  dead_edges : int list;
  adds : int;
  removes : int;
  heals : int;
  messages_lost_in_flight : int;
  window_violations : int;
}

let no_faults_stats =
  {
    dropped_copies = 0;
    extra_copies = 0;
    delayed_copies = 0;
    corrupted_deliveries = 0;
    garbled_drops = 0;
    checksum_rejects = 0;
    dead_edges = [];
    adds = 0;
    removes = 0;
    heals = 0;
    messages_lost_in_flight = 0;
    window_violations = 0;
  }

type vertex_fault_stats = {
  crashes : int;
  restarts : int;
  lost_state_bits : int;
  down_drops : int;
  stuttered : int;
  stopped_vertices : int list;
  checkpoints : int;
  replayed : int;
}

let no_vfaults_stats =
  {
    crashes = 0;
    restarts = 0;
    lost_state_bits = 0;
    down_drops = 0;
    stuttered = 0;
    stopped_vertices = [];
    checkpoints = 0;
    replayed = 0;
  }

type 'state report = {
  outcome : outcome;
  deliveries : int;
  total_bits : int;
  max_edge_bits : int;
  max_message_bits : int;
  max_state_bits : int;
  max_in_flight : int;
  final_in_flight : int;
  distinct_messages : int;
  edge_messages : int array;
  edge_bits : int array;
  visited : bool array;
  states : 'state array;
  fault_stats : fault_stats;
  vfault_stats : vertex_fault_stats;
  rounds : int;
}

exception Codec_mismatch of string

type event = {
  step : int;
  seq : int;
  from_vertex : Digraph.vertex;
  from_port : int;
  to_vertex : Digraph.vertex;
  to_port : int;
  bits : int;
}

(* Telemetry cells resolved once per run (registration is the only locked
   operation).  The engine records on timeline lane 0.

   The run's own tallies are the one source of [engine.deliveries],
   [engine.total_bits] and [engine.sends]: {!publish} adds what they gained
   since its previous call ([pub_*] remember what it already added), so the
   registry is exact at every sample point and at the end of the run and
   lags the run in between, and a registry shared by several runs holds
   their sums. *)
type obs_hooks = {
  oh_timeline : Obs.Timeline.t;
  oh_sample_every : int;
  c_deliveries : Obs.Registry.counter;
  c_bits : Obs.Registry.counter;
  c_sends : Obs.Registry.counter;
  c_receive_ns : Obs.Registry.counter;
  h_message_bits : Obs.Registry.histogram;
  h_receive_ns : Obs.Registry.histogram;
  g_in_flight : Obs.Registry.gauge;
  g_wavefront : Obs.Registry.gauge;
  g_residual : Obs.Registry.gauge;
  mutable pub_deliveries : int;
  mutable pub_bits : int;
  mutable pub_sends : int;
}

let obs_hooks (o : Obs.t) =
  let reg = o.Obs.registry in
  {
    oh_timeline = o.Obs.timeline;
    oh_sample_every = o.Obs.sample_every;
    c_deliveries = Obs.Registry.counter reg "engine.deliveries";
    c_bits = Obs.Registry.counter reg "engine.total_bits";
    c_sends = Obs.Registry.counter reg "engine.sends";
    c_receive_ns = Obs.Registry.counter reg "engine.receive_ns";
    h_message_bits = Obs.Registry.histogram reg "engine.message_bits";
    h_receive_ns = Obs.Registry.histogram reg "engine.receive_ns_hist";
    g_in_flight = Obs.Registry.gauge reg "engine.in_flight";
    g_wavefront = Obs.Registry.gauge reg "engine.wavefront";
    g_residual = Obs.Registry.gauge reg "engine.cut_residual";
    pub_deliveries = 0;
    pub_bits = 0;
    pub_sends = 0;
  }

(* The delivery count of a run's first sample point: none without [obs]. *)
let sample_every = function Some h -> h.oh_sample_every | None -> max_int

(* The one sampler of both paths, called at every sample point and once at
   the end of the run.  A sample point is taken as its delivery is popped:
   [deliveries] counts it, [bits] and [sends] do not yet.  The gauges and
   the five timeline series take the readings; the counters take their
   gains since the previous call.  The fast path passes its one message
   size [bpm], and [engine.message_bits] takes one observation of it per
   delivery here; the generic path observes each delivery itself. *)
let publish oh ?bpm ~in_flight ~wavefront ~residual ~deliveries ~bits ~sends ()
    =
  match oh with
  | None -> ()
  | Some h ->
      let tl = h.oh_timeline in
      Obs.Registry.set h.g_in_flight in_flight;
      Obs.Registry.set h.g_wavefront wavefront;
      Obs.Registry.set h.g_residual residual;
      Obs.Timeline.sample tl ~track:0 "engine.in_flight" (float_of_int in_flight);
      Obs.Timeline.sample tl ~track:0 "engine.wavefront" (float_of_int wavefront);
      Obs.Timeline.sample tl ~track:0 "engine.cut_residual" (float_of_int residual);
      Obs.Timeline.sample tl ~track:0 "engine.deliveries" (float_of_int deliveries);
      Obs.Timeline.sample tl ~track:0 "engine.total_bits" (float_of_int bits);
      let d = deliveries - h.pub_deliveries in
      Obs.Registry.add h.c_deliveries d;
      Obs.Registry.add h.c_bits (bits - h.pub_bits);
      Obs.Registry.add h.c_sends (sends - h.pub_sends);
      (match bpm with
      | Some b -> Obs.Registry.observe_n h.h_message_bits b d
      | None -> ());
      h.pub_deliveries <- deliveries;
      h.pub_bits <- bits;
      h.pub_sends <- sends

(* Opens or closes the run's span: [mark] is [Obs.Timeline.begin_span] or
   [Obs.Timeline.end_span]. *)
let engine_span mark = function
  | Some h -> mark h.oh_timeline ~track:0 "engine.run"
  | None -> ()

(* A sample point also times the next receive the run executes. *)
let clock = function Some h -> Obs.Timeline.now h.oh_timeline | None -> 0.0

let note_receive oh ns =
  match oh with
  | Some h ->
      Obs.Registry.add h.c_receive_ns ns;
      Obs.Registry.observe h.h_receive_ns ns
  | None -> ()

(* The fault counters a run publishes into its [Obs] registry, once, at
   the end: each is the matching report field, so a registry shared by
   several runs holds their sums. *)
let fault_counters r =
  let f = r.fault_stats and v = r.vfault_stats in
  [
    ("engine.dropped_copies", f.dropped_copies);
    ("engine.extra_copies", f.extra_copies);
    ("engine.delayed_copies", f.delayed_copies);
    ("engine.corrupted_deliveries", f.corrupted_deliveries);
    ("engine.garbled_drops", f.garbled_drops);
    ("engine.checksum_rejects", f.checksum_rejects);
    ("engine.churn.adds", f.adds);
    ("engine.churn.removes", f.removes);
    ("engine.churn.heals", f.heals);
    ("engine.churn.lost_in_flight", f.messages_lost_in_flight);
    ("engine.churn.window_violations", f.window_violations);
    ("engine.crashes", v.crashes);
    ("engine.restarts", v.restarts);
    ("engine.lost_state_bits", v.lost_state_bits);
    ("engine.down_drops", v.down_drops);
    ("engine.stuttered", v.stuttered);
    ("engine.checkpoints", v.checkpoints);
    ("engine.replayed", v.replayed);
  ]

(* The largest entry of an int array, 0 if none is positive: a
   monomorphic loop, where [Array.fold_left max] pays a polymorphic
   compare call per entry. *)
let max_entry a =
  let best = ref 0 in
  for i = 0 to Array.length a - 1 do
    let x = Array.unsafe_get a i in
    if x > !best then best := x
  done;
  !best

(* A set of non-negative ints by open addressing: linear probing in a
   power-of-two array of keys, [-1] marking a free slot, kept at most half
   full.  [add] says whether the key was new and allocates only when the
   table doubles, so a membership test is a multiply, a shift and a few
   int loads — about a quarter of what a [Hashtbl.Make (Int)] lookup costs
   through its functor closures and boxed buckets. *)
module Int_set = struct
  type t = { mutable keys : int array; mutable size : int }

  let create () = { keys = Array.make 64 (-1); size = 0 }

  let slot keys key =
    let mask = Array.length keys - 1 in
    let i = ref (((key * 0x2545F4914F6CDD1D) lsr 17) land mask) in
    while keys.(!i) <> -1 && keys.(!i) <> key do
      i := (!i + 1) land mask
    done;
    !i

  let rec add t key =
    let i = slot t.keys key in
    if t.keys.(i) = key then false
    else if 2 * (t.size + 1) > Array.length t.keys then begin
      let old = t.keys in
      t.keys <- Array.make (2 * Array.length old) (-1);
      t.size <- 0;
      Array.iter (fun k -> if k >= 0 then ignore (add t k)) old;
      add t key
    end
    else begin
      t.keys.(i) <- key;
      t.size <- t.size + 1;
      true
    end
end

(* {1 The executor}

   The graph is read through its CSR arrays ({!Digraph.out_offsets} and
   friends), so resolving a copy's edge to its source, target and ports is
   a few int loads.  A message is encoded once per physically-distinct
   value at send time (a pointer-equality memo catches the common case of
   a protocol re-sending one value on every port) and interned in an
   {!Arena}; the slot id rides with the copy, so a delivery charges bits
   and dedups symbols with two int loads and a byte flag.  When a pre-run
   probe certifies the protocol as flood-shaped, a specialized loop keeps
   the whole in-flight pool as one int array of edge indices. *)

module Make (P : Protocol_intf.PROTOCOL) = struct
  type state = P.state
  type message = P.message

  (* {1 The flight slab}

     A copy in flight is a flight id: its fields sit in one int array, at
     [id * stride + field], and its message in a parallel array, so a
     delivery reads two neighbourhoods of memory.  Source, target and
     both ports are recoverable from [edge] via the CSR arrays, so only
     the scheduling identity ([seq]), the fault bit, the protocol value
     (for [receive]), the arena slot (for everything charged by wire
     size) and the causal provenance travel: [lp] is the lineage node id
     of the receive that caused this send (0 = root emission or
     supervisor retransmission) and [ld] this copy's causal depth
     (parent depth + 1; root copies have depth 1).  A delivered copy's id
     goes on a free list and the next send reuses it, so once the slab
     has grown to the run's in-flight high-water mark it allocates
     nothing.

     A freed cell of [msgs] is overwritten with the first message the run
     sent: a delivered message left there would stay reachable, and the
     minor GC would promote it.  Both stores into [msgs] are skipped when
     the cell already holds that value, since each one is a [caml_modify]
     call; a flood re-sends its first message, so it makes neither. *)
  let f_seq = 0
  let f_edge = 1
  let f_corrupt = 2
  let f_lp = 3
  let f_ld = 4
  let f_slot = 5
  let stride = 6

  type slab = {
    mutable ints : int array;
    mutable msgs : P.message array;
    mutable filler : P.message option;
    mutable free : int array;  (** Free ids are [free.(0 .. n_free-1)]. *)
    mutable n_free : int;
  }

  let slab_create () =
    { ints = [||]; msgs = [||]; filler = None; free = [||]; n_free = 0 }

  let field s id f = s.ints.((id * stride) + f)

  (* Double the slab and free the new ids, lowest on top.  [msgs] is
     doubled by appending it to itself and blanking the copy: [Array.make]
     with a young message as the filler would force a minor collection
     once the array outgrows the minor heap. *)
  let slab_grow s msg =
    let cap = Array.length s.free in
    let cap' = Stdlib.max 16 (2 * cap) in
    let grown a n =
      let b = Array.make n 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    s.ints <- grown s.ints (cap' * stride);
    s.free <- grown s.free cap';
    (match s.filler with
    | None ->
        s.msgs <- Array.make cap' msg;
        s.filler <- Some msg
    | Some m ->
        let msgs = Array.append s.msgs s.msgs in
        Array.fill msgs cap cap m;
        s.msgs <- msgs);
    for i = 0 to cap' - cap - 1 do
      s.free.(i) <- cap' - 1 - i
    done;
    s.n_free <- cap' - cap

  let slab_alloc s ~seq ~edge ~corrupt ~lp ~ld ~slot msg =
    if s.n_free = 0 then slab_grow s msg;
    s.n_free <- s.n_free - 1;
    let id = s.free.(s.n_free) in
    let base = id * stride in
    let ints = s.ints in
    ints.(base + f_seq) <- seq;
    ints.(base + f_edge) <- edge;
    ints.(base + f_corrupt) <- Bool.to_int corrupt;
    ints.(base + f_lp) <- lp;
    ints.(base + f_ld) <- ld;
    ints.(base + f_slot) <- slot;
    if s.msgs.(id) != msg then s.msgs.(id) <- msg;
    id

  let slab_free s id =
    (match s.filler with
    | Some m when s.msgs.(id) != m -> s.msgs.(id) <- m
    | _ -> ());
    s.free.(s.n_free) <- id;
    s.n_free <- s.n_free + 1

  (* In-flight pool of flight ids, specialized per scheduling policy.
     Returns (push, pop, drain): [pop] returns an id, or -1 when the pool
     has nothing to deliver; [drain] empties the pool and returns whatever
     was still held, so the engine can report undelivered messages at the
     end of a run (conservation-law checks need the full cut). *)
  let make_pool s scheduler ~closed =
    (* A full id array, twice over.  Appending the array to itself keeps a
       full ring's order from [first]. *)
    let doubled arr =
      if Array.length arr = 0 then Array.make 16 0 else Array.append arr arr
    in
    (* [len] ids at the front of a growable array. *)
    let stack () =
      let arr = ref [||] and len = ref 0 in
      let push id =
        if !len = Array.length !arr then arr := doubled !arr;
        !arr.(!len) <- id;
        incr len
      in
      (arr, len, push)
    in
    match (scheduler : Scheduler.t) with
    | Fifo | Rounds ->
        (* A growable ring: [len] ids from [first], wrapping; the capacity
           stays a power of two.  Doubling a full ring keeps [first]: its
           ids sit in order at [first ..] of the copy. *)
        let arr = ref [||] and first = ref 0 and len = ref 0 in
        let push id =
          if !len = Array.length !arr then arr := doubled !arr;
          let a = !arr in
          a.((!first + !len) land (Array.length a - 1)) <- id;
          incr len
        in
        let pop () =
          if !len = 0 then -1
          else begin
            let a = !arr in
            let id = a.(!first) in
            first := (!first + 1) land (Array.length a - 1);
            decr len;
            id
          end
        in
        let drain () =
          let a = !arr in
          let mask = Array.length a - 1 in
          let l = List.init !len (fun i -> a.((!first + i) land mask)) in
          first := 0;
          len := 0;
          l
        in
        (* FIFO order delivers round by round (a copy's round is its causal
           depth); [Rounds] holds back the rounds after [closed], the one
           the terminal accepted in ([max_int] until then). *)
        let pop_in_round () =
          if !len > 0 && field s !arr.(!first) f_ld > !closed then -1
          else pop ()
        in
        (push, (match scheduler with Rounds -> pop_in_round | _ -> pop), drain)
    | Lifo ->
        let arr, len, push = stack () in
        let pop () =
          if !len = 0 then -1
          else begin
            decr len;
            !arr.(!len)
          end
        in
        let drain () =
          let l = List.init !len (fun i -> !arr.(!len - 1 - i)) in
          len := 0;
          l
        in
        (push, pop, drain)
    | Random g ->
        let arr, len, push = stack () in
        let pop () =
          if !len = 0 then -1
          else begin
            let i = Prng.int g !len in
            let id = !arr.(i) in
            decr len;
            !arr.(i) <- !arr.(!len);
            id
          end
        in
        let drain () =
          let l = Array.to_list (Array.sub !arr 0 !len) in
          len := 0;
          l
        in
        (push, pop, drain)
    | Edge_priority prio ->
        (* Binary min-heap on (priority, seq). *)
        let h = Binheap.create () in
        let pop () =
          if Binheap.is_empty h then -1
          else begin
            let _, id = Binheap.top h in
            Binheap.remove_top h;
            id
          end
        in
        let rec drain acc =
          match pop () with -1 -> List.rev acc | id -> drain (id :: acc)
        in
        ( (fun id -> Binheap.push h (prio (field s id f_edge), field s id f_seq) id),
          pop,
          fun () -> drain [] )
    | Replay order ->
        (* Deliver exactly the listed seq numbers, in order.  A listed seq
           that is not yet in flight makes the pool report empty {e without}
           consuming it: the engine's idle path then releases delay-held
           copies and fires supervisor retransmissions — the only sources
           that can still produce it — and retries.  With a faithfully
           recorded schedule the head always appears; if it never does (an
           unfaithful schedule) the run stops where the schedule left it. *)
        let pool : (int, int) Hashtbl.t = Hashtbl.create 32 in
        let remaining = ref order in
        let push id = Hashtbl.replace pool (field s id f_seq) id in
        let pop () =
          match !remaining with
          | [] -> -1
          | q :: rest -> (
              match Hashtbl.find pool q with
              | id ->
                  remaining := rest;
                  Hashtbl.remove pool q;
                  id
              | exception Not_found -> -1)
        in
        let drain () =
          let l = Hashtbl.fold (fun q id acc -> (q, id) :: acc) pool [] in
          Hashtbl.reset pool;
          List.map snd (List.sort compare l)
        in
        (push, pop, drain)

  (* Flip stream-bit [b] of the MSB-first packing produced by Bit_writer. *)
  let flip_bit s b =
    let bytes = Bytes.of_string s in
    let i = b / 8 in
    Bytes.set bytes i
      (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (7 - (b mod 8)))));
    Bytes.to_string bytes

  (* {1 The flood certificate}

     The fast path replaces [P.receive] on already-saturated vertices with
     nothing at all, which is sound only for protocols whose behavior it
     can certify up front:

     - the root emits one physically-shared message value [m0], and every
       send any receive ever produces is pointer-equal to it (checked live
       on each executed receive — a pointer compare per send);
     - from the state one receive of [m0] produces, any further receive of
       [m0] on any in-port returns that very state (pointer-equal) and no
       sends — the vertex is {e absorbing}.

     Absorption is probed per distinct (out_degree, in_degree) class over
     every in-port, assuming only that [receive] is a pure function of its
     arguments — the same purity the checkpoint snapshots already rely on
     to share state values.  The classes are found by one scan per run
     that packs each vertex's degrees into one int, [out_degree * (m + 1)
     + in_degree] (in-degrees are at most [m], so no two classes collide),
     and allocates only when a new class appears.  Probing is O(sum
     in_degree^2) over the classes; a budget keeps pathological degree
     profiles on the generic path instead. *)
  let certify_flood g =
    let od_s = Digraph.out_degree g (Digraph.source g) in
    match P.root_emit ~out_degree:od_s with
    | [] -> None
    | (_, m0) :: _ as emits ->
        if not (List.for_all (fun (_, m) -> m == m0) emits) then None
        else begin
          let n = Digraph.n_vertices g and m = Digraph.n_edges g in
          let stride = m + 1 in
          let seen = Int_set.create () in
          let classes = ref [] in
          let budget = ref 0 in
          for v = 0 to n - 1 do
            let idg = Digraph.in_degree g v in
            if idg > 0 then begin
              let key = (Digraph.out_degree g v * stride) + idg in
              if Int_set.add seen key then begin
                classes := key :: !classes;
                budget := !budget + (idg * (idg + 1))
              end
            end
          done;
          if !budget > (4 * m) + 4096 then None
          else begin
            let ok = ref true in
            let check_class key =
              let od = key / stride and idg = key mod stride in
              if !ok then begin
                let st0 = P.initial_state ~out_degree:od ~in_degree:idg in
                for i = 0 to idg - 1 do
                  if !ok then begin
                    let st1, sends =
                      P.receive ~out_degree:od ~in_degree:idg st0 m0 ~in_port:i
                    in
                    if not (List.for_all (fun (_, s) -> s == m0) sends) then
                      ok := false
                    else
                      for i' = 0 to idg - 1 do
                        if !ok then
                          match
                            P.receive ~out_degree:od ~in_degree:idg st1 m0
                              ~in_port:i'
                          with
                          | st2, [] when st2 == st1 -> ()
                          | _ -> ok := false
                      done
                  end
                done
              end
            in
            List.iter check_class !classes;
            if !ok then Some (m0, emits) else None
          end
        end

  (* {1 The fast path}

     Fault-free, hook-free runs under [Fifo], [Lifo] or [Random]: the pool
     degenerates to one int array of edge indices, and a vertex's first
     receive — executed for real, so final states match the generic path
     bit-for-bit — flips it to absorbed, after which its deliveries touch
     two arrays and nothing else.  Absorption needs only [receive] to be
     pure, not any delivery order, so the one loop serves three pools over
     the same array:

     - [Fifo]: a ring consumed left to right from [head] (send order is
       delivery order, so the k-th pop is seq k).  It is sized for the
       whole run — root emissions plus one burst per vertex, since an
       absorbing vertex emits at most once — and never reuses a slot, so
       it doubles as the lineage journal.  A round is the segment pushed
       while the previous one was delivered.
     - [Lifo]: a stack popped from the top.
     - [Random g]: the same stack, popped at [Prng.int g len] and filled by
       the top entry, as {!make_pool} does; pushes come in the same [sends]
       order, so the run makes the generic path's draws from [g].

     The stack starts at the root's emissions and doubles as it grows.
     Each stack entry carries its causal depth in the bits above the edge
     (a root emission has depth 1, a send its receive's depth + 1), so
     [rounds] is the deepest pop, as on the generic path.

     What stays generic: stack runs with [?lineage] (the stack reuses
     slots, and the journal needs slots that never are), [Rounds] (its
     hold-back reads the round the terminal accepted in), and
     [Edge_priority] and [Replay] (their pools key on priority or seq). *)
  let run_flood g ~scheduler ~payload_bits ~step_limit ~stop ~oh ~lineage
      (m0 : P.message) (emits : (int * P.message) list) =
    let n = Digraph.n_vertices g and ne = Digraph.n_edges g in
    let s = Digraph.source g and t = Digraph.terminal g in
    let row = Digraph.out_offsets g
    and head_arr = Digraph.edge_heads g
    and tgt_port = Digraph.edge_target_ports g in
    let bpm =
      let w = Bitio.Bit_writer.create () in
      P.encode w m0;
      Bitio.Bit_writer.length w + payload_bits
    in
    let states =
      Array.init n (fun v ->
          P.initial_state
            ~out_degree:(Digraph.out_degree g v)
            ~in_degree:(Digraph.in_degree g v))
    in
    let visited = Array.make n false in
    let absorbed = Bytes.make n '\000' in
    let edge_messages = Array.make (Stdlib.max ne 1) 0 in
    let deliveries = ref 0 in
    let n_visited = ref 0 in
    let max_state_bits = ref 0 in
    let fifo, rng =
      match (scheduler : Scheduler.t) with
      | Fifo -> (true, None)
      | Random g -> (false, Some g)
      | _ -> (false, None)
    in
    (* The pool is [ring.(head .. tail-1)]; a stack keeps [head] at 0.  The
       ring is grown defensively since the certificate does not bound a
       burst's length. *)
    let n_emits = List.length emits in
    let ring =
      ref (Array.make (if fifo then n_emits + ne + 1 else n_emits) 0)
    in
    let tail = ref 0 and head = ref 0 in
    (* [round_end] is where the ring's current round ends. *)
    let rounds = ref 0 and round_end = ref 0 in
    let max_in_flight = ref 0 in
    (* Each slot packs [edge lor (tag lsl journal_shift)] (edge and
       delivery counts are both far below 2^31).  On the ring [tag] is the
       lineage id of the parent receive, 0 with no recorder, so the bare
       ring pays one OR per push and one AND per pop; on the stack it is
       the copy's causal depth. *)
    let lin_on = lineage <> None in
    (match lineage with
    | Some l -> Obs.Lineage.bind l ~n_vertices:n ~n_edges:ne
    | None -> ());
    let tag = ref (if fifo then 0 else 1) in
    let stop_now = match stop with None -> (fun () -> false) | Some f -> f in
    let every = sample_every oh in
    let next_sample = ref every in
    let time_receive = ref false in
    engine_span Obs.Timeline.begin_span oh;
    let push_edge e =
      let r = !ring in
      let r =
        if !tail = Array.length r then begin
          let bigger = Array.make (2 * Array.length r) 0 in
          Array.blit r 0 bigger 0 !tail;
          ring := bigger;
          bigger
        end
        else r
      in
      r.(!tail) <- e lor (!tag lsl Obs.Lineage.journal_shift);
      incr tail;
      let fl = !tail - !head in
      if fl > !max_in_flight then max_in_flight := fl
    in
    List.iter (fun (j, _) -> push_edge (row.(s) + j)) emits;
    visited.(s) <- true;
    incr n_visited;
    let outcome = ref Quiescent in
    let running = ref true in
    while !running do
      if !deliveries >= step_limit then begin
        outcome := Step_limit;
        running := false
      end
      else if stop_now () then begin
        outcome := Cancelled;
        running := false
      end
      else if !head = !tail then begin
        outcome := (if P.accepting states.(t) then Terminated else Quiescent);
        running := false
      end
      else begin
        let x =
          if fifo then begin
            if !head = !round_end then begin
              incr rounds;
              round_end := !tail
            end;
            let x = Array.unsafe_get !ring !head in
            incr head;
            x
          end
          else begin
            let r = !ring in
            let top = !tail - 1 in
            let i = match rng with None -> top | Some g -> Prng.int g !tail in
            let x = r.(i) in
            r.(i) <- r.(top);
            tail := top;
            let depth = x lsr Obs.Lineage.journal_shift in
            if depth > !rounds then rounds := depth;
            x
          end
        in
        let e = x land ((1 lsl Obs.Lineage.journal_shift) - 1) in
        incr deliveries;
        if !deliveries = !next_sample then begin
          next_sample := !next_sample + every;
          time_receive := true;
          (* Every push is a send.  Every pop is a delivery, so the cut
             residual [entered - delivered - in_flight] is identically 0:
             it is sampled anyway to keep the reconciliation series
             present. *)
          publish oh ~bpm ~in_flight:(!tail - !head) ~wavefront:!n_visited
            ~residual:0 ~deliveries:!deliveries
            ~bits:((!deliveries - 1) * bpm)
            ~sends:(!deliveries + !tail - !head) ()
        end;
        Array.unsafe_set edge_messages e (Array.unsafe_get edge_messages e + 1);
        let tv = Array.unsafe_get head_arr e in
        if Bytes.unsafe_get absorbed tv = '\001' then begin
          (* The generic path would run a receive returning the same
             state and no sends; the sampled-receive histogram still gets
             its observation so counts reconcile. *)
          if !time_receive then begin
            time_receive := false;
            note_receive oh 0
          end
        end
        else begin
          if not visited.(tv) then begin
            visited.(tv) <- true;
            incr n_visited
          end;
          let t0 = if !time_receive then clock oh else 0.0 in
          let st', sends =
            P.receive
              ~out_degree:(Digraph.out_degree g tv)
              ~in_degree:(Digraph.in_degree g tv)
              states.(tv) m0 ~in_port:(Array.unsafe_get tgt_port e)
          in
          if !time_receive then begin
            time_receive := false;
            note_receive oh (int_of_float ((clock oh -. t0) *. 1e9))
          end;
          states.(tv) <- st';
          let b = P.state_bits st' in
          if b > !max_state_bits then max_state_bits := b;
          Bytes.unsafe_set absorbed tv '\001';
          if not fifo then tag := (x lsr Obs.Lineage.journal_shift) + 1
          else if lin_on then tag := !deliveries;
          let base = row.(tv) in
          List.iter
            (fun (j, m) ->
              if m != m0 then
                failwith "Engine: protocol violated its flood certificate";
              push_edge (base + j))
            sends;
          if tv = t && P.accepting st' then begin
            outcome := Terminated;
            running := false
          end
        end
      end
    done;
    (* The ring never reuses a slot — [head] only advances, and growth
       blits the whole [0, tail) prefix — so slots [0, head) are the pop
       journal in delivery order (id = slot + 1).  Hand the rings to the
       recorder wholesale: they are dead here, and it replays them into
       its aggregates lazily on first query, so the ~100ns/pop loop
       above paid only the two ring stores per push. *)
    (match lineage with
    | Some l ->
        Obs.Lineage.note_journal l ~packed:!ring ~heads:head_arr
          ~count:!head ~track:0
    | None -> ());
    publish oh ~bpm ~in_flight:(!tail - !head) ~wavefront:!n_visited ~residual:0
      ~deliveries:!deliveries ~bits:(!deliveries * bpm)
      ~sends:(!deliveries + !tail - !head) ();
    engine_span Obs.Timeline.end_span oh;
    let edge_bits = Array.make (Array.length edge_messages) 0 in
    for e = 0 to Array.length edge_messages - 1 do
      Array.unsafe_set edge_bits e (Array.unsafe_get edge_messages e * bpm)
    done;
    {
      outcome = !outcome;
      deliveries = !deliveries;
      total_bits = !deliveries * bpm;
      max_edge_bits = max_entry edge_bits;
      max_message_bits = (if !deliveries > 0 then bpm else 0);
      max_state_bits = !max_state_bits;
      max_in_flight = !max_in_flight;
      final_in_flight = !tail - !head;
      distinct_messages = (if !deliveries > 0 then 1 else 0);
      edge_messages;
      edge_bits;
      visited;
      states;
      fault_stats = no_faults_stats;
      vfault_stats = no_vfaults_stats;
      rounds = !rounds;
    }

  (* {1 The generic path}

     Every scheduler, fault layer, supervisor, hook and codec check. *)
  let run_generic g ~scheduler ~payload_bits ~step_limit ~faults ~vfaults
      ~supervisor ~verify_codec ~stop ~oh ~lineage ~on_deliver ~on_pop
      ~on_undelivered () =
    let stop_now = match stop with None -> (fun () -> false) | Some f -> f in
    let n = Digraph.n_vertices g in
    let ne = Digraph.n_edges g in
    (match lineage with
    | Some l -> Obs.Lineage.bind l ~n_vertices:n ~n_edges:ne
    | None -> ());
    (* Causal context for [send]: the lineage node id and depth of the
       receive whose sends are currently being injected.  (0, 0) outside
       a receive — root emissions and supervisor retransmissions start
       fresh chains. *)
    let lin_parent = ref 0 in
    let lin_depth = ref 0 in
    let t = Digraph.terminal g in
    let row = Digraph.out_offsets g
    and head_arr = Digraph.edge_heads g
    and tgt_port = Digraph.edge_target_ports g
    and src = Digraph.edge_sources g in
    let states =
      Array.init n (fun v ->
          P.initial_state
            ~out_degree:(Digraph.out_degree g v)
            ~in_degree:(Digraph.in_degree g v))
    in
    let initial_of v =
      P.initial_state
        ~out_degree:(Digraph.out_degree g v)
        ~in_degree:(Digraph.in_degree g v)
    in
    let visited = Array.make n false in
    let edge_messages = Array.make (Stdlib.max ne 1) 0 in
    let edge_bits = Array.make (Stdlib.max ne 1) 0 in
    let total_bits = ref 0 in
    let max_message_bits = ref 0 in
    let deliveries = ref 0 in
    let rounds = ref 0 in
    let corrupted_deliveries = ref 0 in
    let garbled_drops = ref 0 in
    let checksum_rejects = ref 0 in
    let arena = Arena.create () in
    (* Encode-once memo: protocols overwhelmingly re-send one physical
       message value (flood's token, a just-built commodity fanned over
       every port), so most sends resolve their slot with one pointer
       compare.  The first send allocates the memo cell; a miss
       overwrites it, so no send allocates. *)
    let memo = ref None and memo_slot = ref 0 in
    let slot_of msg =
      match !memo with
      | Some last when !last == msg -> !memo_slot
      | cell ->
          let slot = Arena.intern arena P.encode msg in
          (match cell with
          | Some last -> last := msg
          | None -> memo := Some (ref msg));
          memo_slot := slot;
          slot
    in
    let slab = slab_create () in
    let closed = ref max_int in
    let push, pop, drain = make_pool slab scheduler ~closed in
    (* Which adversary hooks this run calls is decided once, here. *)
    let faulty = Faults.sends faults and churny = Faults.offers faults in
    let fi = Faults.Instance.start faults in
    let vfaulty = not (Vfaults.is_none vfaults) in
    let vfi = Vfaults.Instance.start vfaults in
    let supervised = supervisor <> None in
    (* Checkpoints: one state snapshot per vertex (initially pi0), plus the
       visited flag as of the snapshot.  States are immutable values, so
       the arrays share structure with [states] rather than copying. *)
    let need_ckpt = vfaulty || supervised in
    let ckpt = if need_ckpt then Array.copy states else [||] in
    let ckpt_visited = if need_ckpt then Array.make n false else [||] in
    let lost_state_bits = ref 0 in
    let checkpoints = ref 0 in
    let replayed = ref 0 in
    (* Flight ids held back by a delay fault, keyed by (release step, seq);
       they still count as in flight. *)
    let delayed : (int * int, int) Binheap.t = Binheap.create () in
    let next_seq = ref 0 in
    let max_state_bits = ref 0 in
    let in_flight = ref 0 in
    let max_in_flight = ref 0 in
    let n_visited = ref 0 in
    let mark_visited v =
      if not visited.(v) then begin
        visited.(v) <- true;
        incr n_visited
      end
    in
    (* Copies that ever entered flight; [entered - deliveries - in_flight]
       is the message-conservation residual, sampled as the
       [engine.cut_residual] series (always 0 unless the accounting is
       broken). *)
    let entered = ref 0 in
    let note_state st =
      let b = P.state_bits st in
      if b > !max_state_bits then max_state_bits := b
    in
    let enter ~edge ~corrupt ~lp ~ld ~slot msg ~delay =
      let seq = !next_seq in
      incr next_seq;
      let id = slab_alloc slab ~seq ~edge ~corrupt ~lp ~ld ~slot msg in
      incr in_flight;
      incr entered;
      if !in_flight > !max_in_flight then max_in_flight := !in_flight;
      if delay = 0 then push id
      else Binheap.push delayed (!deliveries + delay, seq) id
    in
    let every = sample_every oh in
    let next_sample = ref every in
    let time_receive = ref false in
    let n_sends = ref 0 in
    let last_msg : P.message option array =
      Array.make (if supervised then Stdlib.max ne 1 else 1) None
    in
    let sup_prng =
      Prng.create
        (match supervisor with Some (c : Supervisor.config) -> c.seed | None -> 0)
    in
    let retries_left =
      ref
        (match supervisor with
        | Some (c : Supervisor.config) -> c.max_retries
        | None -> 0)
    in
    let sup_round = ref 0 in
    let send ?(extra_delay = 0) fv fp msg =
      let edge = row.(fv) + fp in
      incr n_sends;
      if supervised then last_msg.(edge) <- Some msg;
      let slot = slot_of msg in
      let lp = !lin_parent and ld = !lin_depth + 1 in
      if not faulty then
        enter ~edge ~corrupt:false ~lp ~ld ~slot msg ~delay:extra_delay
      else
        List.iter
          (fun ({ delay; flip_bit = corrupt } : Faults.copy_fate) ->
            enter ~edge ~corrupt ~lp ~ld ~slot msg ~delay:(delay + extra_delay))
          (Faults.Instance.on_send fi ~edge)
    in
    (* Defined once: a [List.iter] closure over [tv] would be allocated on
       every delivery. *)
    let rec send_all tv = function
      | [] -> ()
      | (j, msg) :: rest ->
          send tv j msg;
          send_all tv rest
    in
    let retransmit () =
      match supervisor with
      | None -> false
      | Some (cfg : Supervisor.config) ->
          lin_parent := 0;
          lin_depth := 0;
          let sent = ref false in
          for e = 0 to ne - 1 do
            match last_msg.(e) with
            | Some msg when Vfaults.Instance.is_up vfi ~vertex:src.(e) ->
                let fv = src.(e) in
                let extra_delay = Supervisor.backoff cfg sup_prng ~round:!sup_round in
                send ~extra_delay fv (e - row.(fv)) msg;
                incr replayed;
                sent := true
            | _ -> ()
          done;
          incr sup_round;
          decr retries_left;
          !sent
    in
    let release_due () =
      while
        (not (Binheap.is_empty delayed))
        && fst (fst (Binheap.top delayed)) <= !deliveries
      do
        push (snd (Binheap.top delayed));
        Binheap.remove_top delayed
      done
    in
    engine_span Obs.Timeline.begin_span oh;
    let se = Digraph.source g in
    List.iter
      (fun (j, msg) -> send se j msg)
      (P.root_emit ~out_degree:(Digraph.out_degree g se));
    mark_visited se;
    let outcome = ref Quiescent in
    let running = ref true in
    while !running do
      if !deliveries >= step_limit then begin
        outcome := Step_limit;
        running := false
      end
      else if stop_now () then begin
        outcome := Cancelled;
        running := false
      end
      else begin
        release_due ();
        match pop () with
        | -1 -> (
            match Binheap.pop delayed with
            | Some (_, id) -> push id
            | None ->
                if P.accepting states.(t) then begin
                  outcome := Terminated;
                  running := false
                end
                else if !retries_left > 0 && retransmit () then ()
                else begin
                  outcome := Quiescent;
                  running := false
                end)
        | id -> (
            (* Read the copy out of the slab and free its id at once: this
               delivery's sends may reuse it. *)
            let seq = field slab id f_seq and edge = field slab id f_edge in
            let corrupt = field slab id f_corrupt = 1 in
            let lp = field slab id f_lp and ld = field slab id f_ld in
            let slot = field slab id f_slot and msg = slab.msgs.(id) in
            slab_free slab id;
            incr deliveries;
            if ld > !rounds then rounds := ld;
            decr in_flight;
            let sampled = !deliveries = !next_sample in
            if sampled then begin
              next_sample := !next_sample + every;
              publish oh ~in_flight:!in_flight ~wavefront:!n_visited
                ~residual:(!entered - !deliveries - !in_flight)
                ~deliveries:!deliveries ~bits:!total_bits ~sends:!n_sends ()
            end;
            (match lineage with
            | Some l ->
                Obs.Lineage.note l ~id:!deliveries ~parent:lp ~depth:ld
                  ~edge ~vertex:head_arr.(edge) ~track:0
            | None -> ());
            (match on_pop with Some hook -> hook seq | None -> ());
            (* The churn fate comes first, on the edge's own offer clock: a
               copy offered on an absent edge is consumed (it occupies a
               replay-schedule slot, so [on_pop] already saw it) but never
               crossed the channel — no bits are charged to the edge, no
               symbol is recorded, and the vertex fates never fire. *)
            let cfate =
              if churny then Faults.Instance.on_offer fi ~edge else Faults.Cross
            in
            if cfate <> Faults.Cross then begin
              match oh with
              | None -> ()
              | Some h ->
                  let tl = h.oh_timeline in
                  let mark kind =
                    Obs.Timeline.instant tl ~track:0
                      (Printf.sprintf "churn.%s:%d" kind edge)
                  in
                  (match cfate with
                  | Faults.Removed left ->
                      mark "remove";
                      if left = 0 then mark "heal"
                  | Faults.Back `Heal -> mark "heal"
                  | Faults.Back `Add -> mark "add"
                  | Faults.Down | Faults.Cross -> ())
            end
            else begin
              let len_bits = Arena.len_bits arena slot in
              let bits = len_bits + payload_bits in
              (match oh with
              | Some h -> Obs.Registry.observe h.h_message_bits bits
              | None -> ());
              if sampled then time_receive := true;
              if verify_codec then begin
                let r =
                  Bitio.Bit_reader.of_string ~length_bits:len_bits
                    (Arena.to_string arena slot)
                in
                let decoded =
                  try P.decode r
                  with exn ->
                    raise
                      (Codec_mismatch
                         (Printf.sprintf "%s: decode raised %s" P.name
                            (Printexc.to_string exn)))
                in
                if not (P.equal_message decoded msg) then
                  raise
                    (Codec_mismatch
                       (Format.asprintf "%s: %a decoded as %a" P.name
                          P.pp_message msg P.pp_message decoded));
                if not (Bitio.Bit_reader.at_end r) then
                  raise
                    (Codec_mismatch
                       (Printf.sprintf "%s: %d trailing bits after decode"
                          P.name
                          (Bitio.Bit_reader.remaining r)))
              end;
              Arena.mark_seen arena slot;
              total_bits := !total_bits + bits;
              edge_messages.(edge) <- edge_messages.(edge) + 1;
              edge_bits.(edge) <- edge_bits.(edge) + bits;
              if bits > !max_message_bits then max_message_bits := bits;
              (* The vertex-fault fate is decided before decode: a delivery
                 consumed by a down, stuttering or crashing vertex is
                 charged to the edge (it did cross the channel) but never
                 reaches [P.receive], and skips the corrupt-bit draw. *)
              let tv = head_arr.(edge) in
              let vfate =
                if vfaulty then Vfaults.Instance.on_deliver vfi ~vertex:tv
                else Vfaults.Deliver
              in
              match vfate with
              | Vfaults.Stutter | Vfaults.Down_drop -> ()
              | Vfaults.Crash (recovery, _downtime) -> (
                  let old_bits = P.state_bits states.(tv) in
                  match recovery with
                  | Vfaults.Stop -> ()
                  | Vfaults.Amnesia when not supervised ->
                      lost_state_bits := !lost_state_bits + old_bits;
                      states.(tv) <- initial_of tv;
                      if visited.(tv) then begin
                        visited.(tv) <- false;
                        decr n_visited
                      end
                  (* With a supervisor armed its checkpoints are durable
                     storage, so even "full" state loss degrades to a
                     restore: otherwise an amnesia crash after a vertex
                     forwarded its flow erases coverage no conservation
                     argument can notice. *)
                  | Vfaults.Amnesia | Vfaults.Restore ->
                      let restored = ckpt.(tv) in
                      let lost = Stdlib.max 0 (old_bits - P.state_bits restored) in
                      lost_state_bits := !lost_state_bits + lost;
                      states.(tv) <- restored;
                      if ckpt_visited.(tv) then mark_visited tv
                      else if visited.(tv) then begin
                        visited.(tv) <- false;
                        decr n_visited
                      end)
              | Vfaults.Deliver -> (
                  let delivered =
                    if not corrupt then Some msg
                    else if len_bits = 0 then Some msg
                    else begin
                      let b =
                        Faults.Instance.corrupt_bit fi ~edge
                          ~length_bits:len_bits
                      in
                      let s = flip_bit (Arena.to_string arena slot) b in
                      let r = Bitio.Bit_reader.of_string ~length_bits:len_bits s in
                      match P.decode r with
                      | decoded ->
                          if not (P.equal_message decoded msg) then
                            incr corrupted_deliveries;
                          Some decoded
                      | exception Protocol_intf.Checksum_reject ->
                          incr checksum_rejects;
                          None
                      | exception _ ->
                          incr garbled_drops;
                          None
                    end
                  in
                  match delivered with
                  | None -> ()
                  | Some msg ->
                      let tp = tgt_port.(edge) in
                      (match on_deliver with
                      | Some hook ->
                          let fv = src.(edge) in
                          hook
                            {
                              step = !deliveries;
                              seq;
                              from_vertex = fv;
                              from_port = edge - row.(fv);
                              to_vertex = tv;
                              to_port = tp;
                              bits;
                            }
                            msg
                      | None -> ());
                      mark_visited tv;
                      let t0 = if !time_receive then clock oh else 0.0 in
                      let state', sends =
                        P.receive
                          ~out_degree:(Digraph.out_degree g tv)
                          ~in_degree:(Digraph.in_degree g tv)
                          states.(tv) msg ~in_port:tp
                      in
                      if !time_receive then begin
                        time_receive := false;
                        note_receive oh
                          (int_of_float ((clock oh -. t0) *. 1e9))
                      end;
                      states.(tv) <- state';
                      note_state state';
                      if need_ckpt then begin
                        ckpt.(tv) <- state';
                        ckpt_visited.(tv) <- true;
                        incr checkpoints
                      end;
                      lin_parent := !deliveries;
                      lin_depth := ld;
                      send_all tv sends;
                      lin_parent := 0;
                      lin_depth := 0;
                      if tv = t && P.accepting state' then
                        match scheduler with
                        | Rounds -> closed := Int.min !closed ld
                        | _ ->
                            outcome := Terminated;
                            running := false)
            end)
      end
    done;
    (match on_undelivered with
    | None -> ()
    | Some hook ->
        List.iter (fun id -> hook slab.msgs.(id)) (drain ());
        while not (Binheap.is_empty delayed) do
          hook slab.msgs.(snd (Binheap.top delayed));
          Binheap.remove_top delayed
        done);
    publish oh ~in_flight:!in_flight ~wavefront:!n_visited
      ~residual:(!entered - !deliveries - !in_flight)
      ~deliveries:!deliveries ~bits:!total_bits ~sends:!n_sends ();
    engine_span Obs.Timeline.end_span oh;
    let fault_stats =
      {
        dropped_copies = Faults.Instance.dropped_copies fi;
        extra_copies = Faults.Instance.extra_copies fi;
        delayed_copies = Faults.Instance.delayed_copies fi;
        corrupted_deliveries = !corrupted_deliveries;
        garbled_drops = !garbled_drops;
        checksum_rejects = !checksum_rejects;
        dead_edges = Faults.Instance.dead_edges fi;
        adds = Faults.Instance.adds fi;
        removes = Faults.Instance.removes fi;
        heals = Faults.Instance.heals fi;
        messages_lost_in_flight = Faults.Instance.lost fi;
        window_violations = Faults.Instance.window_violations fi;
      }
    in
    let vfault_stats =
      {
        crashes = Vfaults.Instance.crashes vfi;
        restarts = Vfaults.Instance.restarts vfi;
        lost_state_bits = !lost_state_bits;
        down_drops = Vfaults.Instance.down_drops vfi;
        stuttered = Vfaults.Instance.stuttered vfi;
        stopped_vertices = Vfaults.Instance.stopped vfi;
        checkpoints = !checkpoints;
        replayed = !replayed;
      }
    in
    {
      outcome = !outcome;
      deliveries = !deliveries;
      total_bits = !total_bits;
      max_edge_bits = max_entry edge_bits;
      max_message_bits = !max_message_bits;
      max_state_bits = !max_state_bits;
      max_in_flight = !max_in_flight;
      final_in_flight = !in_flight;
      distinct_messages = Arena.distinct arena;
      edge_messages;
      edge_bits;
      visited;
      states;
      fault_stats;
      vfault_stats;
      rounds = !rounds;
    }

  let run ?(scheduler = Scheduler.Fifo) ?(payload_bits = 0)
      ?(step_limit = 10_000_000) ?(faults = Faults.none)
      ?(vfaults = Vfaults.none) ?supervisor
      ?(verify_codec = false) ?stop ?obs ?lineage ?on_deliver ?on_pop
      ?on_undelivered g =
    if payload_bits < 0 then invalid_arg "Engine.run: payload_bits must be >= 0";
    let oh = Option.map obs_hooks obs in
    let gc0 =
      match obs with
      | Some _ -> Some (Gc.quick_stat (), Gc.minor_words ())
      | None -> None
    in
    let plain =
      (match scheduler with
      | Scheduler.Fifo -> true
      | Lifo | Random _ -> lineage = None
      | Rounds | Edge_priority _ | Replay _ -> false)
      && Faults.is_none faults && Vfaults.is_none vfaults
      && supervisor = None && not verify_codec
      && on_deliver = None && on_pop = None && on_undelivered = None
    in
    let report =
      match if plain then certify_flood g else None with
      | Some (m0, emits) ->
          run_flood g ~scheduler ~payload_bits ~step_limit ~stop ~oh ~lineage m0
            emits
      | None ->
          run_generic g ~scheduler ~payload_bits ~step_limit ~faults ~vfaults
            ~supervisor ~verify_codec ~stop ~oh ~lineage ~on_deliver ~on_pop
            ~on_undelivered ()
    in
    (* GC cost of the run, as gauges: words are deltas (what this run
       allocated), heap size is the absolute end-of-run footprint.  Then the
       fault counters, taken after the GC reading so it measures the run
       alone.  The timeline ring's overwrite count is mirrored monotonically
       into the [timeline.dropped] counter (the timeline is the source of
       truth). *)
    (match (obs, gc0) with
    | Some o, Some (g0, mw0) ->
        let g1 = Gc.quick_stat () in
        let set name v =
          Obs.Registry.set (Obs.Registry.gauge o.Obs.registry name) v
        in
        set "engine.gc.minor_words" (int_of_float (Gc.minor_words () -. mw0));
        set "engine.gc.major_words"
          (int_of_float (g1.Gc.major_words -. g0.Gc.major_words));
        set "engine.gc.heap_words" g1.Gc.heap_words;
        set "engine.gc.compactions" (g1.Gc.compactions - g0.Gc.compactions);
        List.iter
          (fun (name, v) ->
            Obs.Registry.add (Obs.Registry.counter o.Obs.registry name) v)
          (fault_counters report);
        let c = Obs.Registry.counter o.Obs.registry "timeline.dropped" in
        let d = Obs.Timeline.dropped o.Obs.timeline in
        let seen = Obs.Registry.value c in
        if d > seen then Obs.Registry.add c (d - seen)
    | _ -> ());
    report
end
