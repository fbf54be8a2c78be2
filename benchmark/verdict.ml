(* Comparing two sets of runs of one metric: parent [a] against change [b],
   run [i] of one set paired with run [i] of the other.

   - better: [b] wins at least nine tenths of the pairs (ties count for
     neither side) and the medians differ by more than the parent's own
     quartile spread;
   - unresolved: either set's quartile spread, as a share of its median,
     exceeds the metric's bound, and not every run of [b] reads better than
     every run of [a];
   - worse: [b]'s median is worse than [a]'s by more than the bound, as a
     share of [a]'s median;
   - unchanged: otherwise. *)

type t = Better | Worse | Unchanged | Unresolved

let to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

type outcome = {
  verdict : t;
  a : Stats.summary;
  b : Stats.summary;
  wins : int;  (** Pairs where [b] reads better. *)
  pairs : int;
}

let decide ~(better : Spec.better) ~bound a b =
  (* [gain x y] > 0 iff [y] reads better than [x]. *)
  let gain x y = match better with Higher -> y -. x | Lower -> x -. y in
  let sa = Stats.summarize a and sb = Stats.summarize b in
  let rec pair_up wins pairs xs ys =
    match (xs, ys) with
    | x :: xs, y :: ys ->
        pair_up (if gain x y > 0.0 then wins + 1 else wins) (pairs + 1) xs ys
    | _ -> (wins, pairs)
  in
  let wins, pairs = pair_up 0 0 a b in
  let share s x = if s.Stats.median = 0.0 then x else x /. Float.abs s.Stats.median in
  let spread s = share s (s.Stats.q3 -. s.Stats.q1) in
  let all_b_better = List.for_all (fun x -> List.for_all (fun y -> gain x y > 0.0) b) a in
  let verdict =
    if pairs > 0 && 10 * wins >= 9 * pairs
       && gain sa.median sb.median > sa.q3 -. sa.q1
    then Better
    else if Float.max (spread sa) (spread sb) > bound && not all_b_better then
      Unresolved
    else if share sa (-.gain sa.median sb.median) > bound then Worse
    else Unchanged
  in
  { verdict; a = sa; b = sb; wins; pairs }
