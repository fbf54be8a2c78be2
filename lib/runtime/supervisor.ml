type config = { max_retries : int; base_timeout : int; seed : int }

let config ?(max_retries = 4) ?(base_timeout = 8) ?(seed = 0) () =
  if max_retries < 0 then
    invalid_arg "Supervisor.config: max_retries must be >= 0";
  if base_timeout < 1 then
    invalid_arg "Supervisor.config: base_timeout must be >= 1";
  { max_retries; base_timeout; seed }

let default = config ()

(* Exponential backoff with jitter: round [r] (0-based) holds the
   retransmitted copy for [base * 2^r] delivery steps plus a uniform jitter
   of up to [base - 1] more, so simultaneous retransmissions on different
   edges de-synchronize instead of slamming the pool in one step.  The
   jitter draw comes from the caller's supervisor PRNG, keeping the whole
   schedule reproducible from the config seed. *)
let backoff cfg prng ~round =
  let round = Stdlib.min round 20 in
  let base = cfg.base_timeout * (1 lsl round) in
  if cfg.base_timeout > 1 then base + Prng.int prng cfg.base_timeout else base
