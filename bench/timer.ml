(* The one timer behind every wall-clock number in bench/.

   Readings come from a monotonic clock (bechamel's clock_gettime stub,
   which neither allocates nor jumps with the wall clock).  A measurement
   is a [unit -> float] that returns one reading; [repeat] summarizes
   readings of one measurement and [pair] compares two.  Both discard one
   warm-up reading per measurement and report medians with quartiles
   ([Metrics.percentiles], linear interpolation). *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [time f] is [f ()] and its duration in seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Seconds per call over [batch] back-to-back calls of [f], after a full
   major collection, so no reading pays the collection debt of whatever
   ran before it. *)
let seconds ?(batch = 1) f =
  Gc.full_major ();
  let t0 = now () in
  for _ = 1 to batch do
    f ()
  done;
  (now () -. t0) /. float_of_int batch

type summary = { median : float; q1 : float; q3 : float }

let summarize xs =
  match Metrics.percentiles [ 25.0; 50.0; 75.0 ] xs with
  | [ q1; median; q3 ] -> { median; q1; q3 }
  | _ -> assert false

(* One warm-up reading, then [repeats] readings. *)
let repeat ~repeats m =
  ignore (m ());
  summarize (List.init repeats (fun _ -> m ()))

type paired = { a : summary; b : summary; delta : summary }

(* One warm-up reading per side, then [repeats] pairs that alternate which
   side runs first, so drift and allocator state left by the previous run
   land on both sides.  [delta] summarizes the per-pair [(b - a) / a]: a
   pair ran back to back, so slow machine drift cancels inside it. *)
let pair ~repeats ma mb =
  ignore (ma ());
  ignore (mb ());
  let readings =
    List.init repeats (fun i ->
        if i land 1 = 0 then
          let a = ma () in
          (a, mb ())
        else
          let b = mb () in
          (ma (), b))
  in
  {
    a = summarize (List.map fst readings);
    b = summarize (List.map snd readings);
    delta = summarize (List.map (fun (a, b) -> (b -. a) /. a) readings);
  }

let json s =
  Printf.sprintf "{\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}" s.median s.q1
    s.q3

(* What produced a result: compiler, build profile, word size, cores. *)
let env_json () =
  Printf.sprintf
    "{\"ocaml\": %S, \"profile\": %S, \"word_size\": %d, \
     \"recommended_domain_count\": %d}"
    Sys.ocaml_version Build_info.profile Sys.word_size
    (Domain.recommended_domain_count ())
