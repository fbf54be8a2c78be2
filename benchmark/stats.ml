(* Summary statistics over measured samples. *)

(* A percentile is reported only when at least ten samples lie beyond it,
   so p50 needs 20 samples and p99 needs 1000. *)
let percentile p xs =
  let n = List.length xs in
  if float_of_int n *. (100.0 -. p) < 1000.0 then
    Error
      (Printf.sprintf "p%g needs at least 10 samples beyond it; have %d samples"
         p n)
  else Ok (Metrics.percentile p xs)

let percentile_exn p xs =
  match percentile p xs with Ok v -> v | Error e -> invalid_arg e

let median = Metrics.median

let mean = function [] -> 0.0 | xs -> Metrics.mean xs

(* [num /. den], reading 0 when nothing was counted. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

type summary = { q1 : float; median : float; q3 : float }

let summarize xs =
  match Metrics.percentiles [ 25.0; 50.0; 75.0 ] xs with
  | [ q1; median; q3 ] -> { q1; median; q3 }
  | _ -> assert false
