type t =
  | Fifo
  | Rounds
  | Lifo
  | Random of Prng.t
  | Edge_priority of (int -> int)
  | Replay of int list

let describe = function
  | Fifo -> "fifo"
  | Rounds -> "rounds"
  | Lifo -> "lifo"
  | Random _ -> "random"
  | Edge_priority _ -> "edge-priority"
  | Replay _ -> "replay"
