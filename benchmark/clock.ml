(* Monotonic nanosecond clock: bechamel's clock_gettime stub, which neither
   allocates nor jumps with the wall clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9
let ms_since t0 = float_of_int (now_ns () - t0) *. 1e-6

(* [time f] is [f ()] and its duration in seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) *. 1e-9)
