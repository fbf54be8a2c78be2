(* Timing wrapper for the traced round: [Make (P)] is [P] with every
   receive/encode/decode/state_bits call timed on the monotonic clock.
   Sums and counts are exact; every [span_every]-th protocol call also
   becomes an Obs.Timeline span when a timeline is installed.  Every
   workload runs its protocols on the calling domain, so plain globals
   suffice. *)

type op = Receive | Encode | Decode | State_bits

let index = function Receive -> 0 | Encode -> 1 | Decode -> 2 | State_bits -> 3

type acc = { protocol : string; ns : int array; calls : int array }

let accs : acc list ref = ref []

(* Time spent inside timed protocol calls, counting nested wrappers (Timed
   over Redundant over Timed) once: an engine run's self time is its
   duration minus the growth of [proto_ns]. *)
let proto_ns = ref 0
let depth = ref 0
let span_every = 64
let countdown = ref span_every

(* Installed for the traced round only. *)
let timeline : Obs.Timeline.t option ref = ref None

(* Spans of the benchmark's own code sit on this track; serve spans use
   one track per in-flight slot above it. *)
let track = 0

let reset () =
  List.iter
    (fun a ->
      Array.fill a.ns 0 4 0;
      Array.fill a.calls 0 4 0)
    !accs;
  proto_ns := 0

(* [protocol]'s calls to [op]: (ns, calls). *)
let sum protocol op =
  let i = index op in
  List.fold_left
    (fun (ns, calls) a ->
      if a.protocol = protocol then (ns + a.ns.(i), calls + a.calls.(i))
      else (ns, calls))
    (0, 0) !accs

let enter name =
  incr depth;
  decr countdown;
  if !countdown > 0 then None
  else begin
    countdown := span_every;
    Option.iter (fun tl -> Obs.Timeline.begin_span tl ~track name) !timeline;
    !timeline
  end

let leave a op name sp t0 =
  let dt = Clock.now_ns () - t0 in
  (match sp with Some tl -> Obs.Timeline.end_span tl ~track name | None -> ());
  decr depth;
  if !depth = 0 then proto_ns := !proto_ns + dt;
  let i = index op in
  a.ns.(i) <- a.ns.(i) + dt;
  a.calls.(i) <- a.calls.(i) + 1

module Make
    (P : Runtime.Protocol_intf.PROTOCOL)
    (C : sig
      val capture : P.state -> P.message -> unit
    end) :
  Runtime.Protocol_intf.PROTOCOL
    with type state = P.state
     and type message = P.message = struct
  include P

  let a = { protocol = P.name; ns = Array.make 4 0; calls = Array.make 4 0 }
  let () = accs := a :: !accs
  let recv_name = P.name ^ ".receive"
  let enc_name = P.name ^ ".encode"
  let dec_name = P.name ^ ".decode"
  let size_name = P.name ^ ".state_bits"

  let receive ~out_degree ~in_degree st m ~in_port =
    C.capture st m;
    let sp = enter recv_name in
    let t0 = Clock.now_ns () in
    let r = P.receive ~out_degree ~in_degree st m ~in_port in
    leave a Receive recv_name sp t0;
    r

  let encode w m =
    let sp = enter enc_name in
    let t0 = Clock.now_ns () in
    P.encode w m;
    leave a Encode enc_name sp t0

  (* A corrupted encoding makes decode raise; the engine counts that. *)
  let decode r =
    let sp = enter dec_name in
    let t0 = Clock.now_ns () in
    match P.decode r with
    | m ->
        leave a Decode dec_name sp t0;
        m
    | exception e ->
        leave a Decode dec_name sp t0;
        raise e

  let state_bits st =
    let sp = enter size_name in
    let t0 = Clock.now_ns () in
    let b = P.state_bits st in
    leave a State_bits size_name sp t0;
    b
end

module No_capture = struct
  let capture _ _ = ()
end
