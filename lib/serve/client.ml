(* Unix-socket client for the serve protocol, plus the smoke routine the
   CLI and CI use to exercise a live server end to end. *)

module J = Obs.Json

type t = {
  fd : Unix.file_descr;
  w : Wire.t;
  buf : Bytes.t;
  mutable pending : string list;  (* lines read ahead of their request *)
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; w = Wire.create (); buf = Bytes.create 65536; pending = [] }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* The server answers every frame with exactly one frame, in order, so
   reading up to the next line is a correct request/response discipline;
   anything beyond it (pipelined answers) is queued for later calls. *)
let read_line t =
  let rec go () =
    match t.pending with
    | l :: rest ->
        t.pending <- rest;
        Ok l
    | [] -> (
        match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
        | 0 -> Error "server closed the connection"
        | n ->
            t.pending <-
              List.filter_map
                (function Wire.Line l -> Some l | Wire.Overflow -> None)
                (Wire.feed t.w t.buf 0 n);
            go ()
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
  in
  go ()

let request t line =
  match write_all t.fd (line ^ "\n") with
  | () -> read_line t
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* {1 Retry}

   Capped exponential backoff with seeded jitter, on [overloaded]
   answers and refused connections.  The delay schedule is the
   supervisor's retransmission policy ([Runtime.Supervisor.backoff]) —
   one backoff implementation serves both the in-network retransmit
   timers and the out-of-network client, so tuning (cap, jitter shape)
   stays in one place. *)

type retry = { r_attempts : int; r_base_ms : int; r_seed : int }

let default_retry = { r_attempts = 5; r_base_ms = 50; r_seed = 0 }

let retry_delay_ms r prng ~round =
  let cfg = Runtime.Supervisor.config ~base_timeout:r.r_base_ms () in
  Runtime.Supervisor.backoff cfg prng ~round

let retry_sleep r prng ~round =
  Unix.sleepf (float_of_int (retry_delay_ms r prng ~round) /. 1000.0)

let connect_retry ?(retry = default_retry) path =
  let prng = Prng.create retry.r_seed in
  let rec go round =
    match connect path with
    | Ok _ as ok -> ok
    | Error e ->
        if round >= retry.r_attempts then Error e
        else begin
          retry_sleep retry prng ~round;
          go (round + 1)
        end
  in
  go 0

(* {1 Response inspection helpers} *)

let response_ok resp =
  match J.parse resp with
  | Ok v -> (
      match Option.map J.to_bool_opt (J.member "ok" v) with
      | Some (Some b) -> Ok (b, v)
      | _ -> Error (Printf.sprintf "malformed response %s" resp))
  | Error _ -> Error (Printf.sprintf "unparseable response %s" resp)

let result_of resp =
  match response_ok resp with
  | Error _ as e -> e
  | Ok (true, v) -> (
      match J.member "result" v with
      | Some r -> Ok r
      | None -> Error "missing \"result\"")
  | Ok (false, v) ->
      let code =
        match Option.map J.to_string_opt (J.member "code" (Option.value ~default:J.Null (J.member "error" v))) with
        | Some (Some c) -> c
        | _ -> "unknown"
      in
      Error code

(* Resends on [overloaded] only, on the schedule of {!connect_retry}. *)
let request_retry ?(retry = default_retry) t line =
  let prng = Prng.create retry.r_seed in
  let rec go round =
    match request t line with
    | Error _ as e -> e
    | Ok resp -> (
        match result_of resp with
        | Error "overloaded" when round < retry.r_attempts ->
            retry_sleep retry prng ~round;
            go (round + 1)
        | _ -> Ok resp)
  in
  go 0

let watch t id =
  match request t (Printf.sprintf "{\"op\":\"watch\",\"id\":%s}" (J.escape id)) with
  | Error _ as e -> e
  | Ok resp -> result_of resp

(* {1 Smoke}

   Drive a mixed load through a live server: plain floods, counting runs
   and churn-stressed general broadcasts, every seed submitted twice so
   the byte-determinism contract is checked on the wire, then reconcile
   the server's merged metrics against the collected per-session results.
   Pure client side: everything it verifies crosses the socket. *)

type smoke_report = {
  sessions : int;
  ok_results : int;
  determinism_ok : bool;
  reconcile_ok : bool;
  sum_deliveries : int;
  metrics_deliveries : int;
}

let smoke_submit_line ~id ~kind ~graph ~seed =
  match kind with
  | `Flood ->
      Printf.sprintf
        "{\"op\":\"submit\",\"id\":%s,\"protocol\":\"flood\",\"graph\":%s,\"seed\":%d}"
        (J.escape id) (J.escape graph) seed
  | `Counting ->
      Printf.sprintf
        "{\"op\":\"submit\",\"id\":%s,\"protocol\":\"counting\",\"graph\":%s,\"scheduler\":\"random\",\"seed\":%d}"
        (J.escape id) (J.escape graph) seed
  | `Churned ->
      Printf.sprintf
        "{\"op\":\"submit\",\"id\":%s,\"protocol\":\"general\",\"graph\":%s,\"scheduler\":\"random\",\"seed\":%d,\"churn\":{\"rate\":0.05,\"seed\":%d}}"
        (J.escape id) (J.escape graph) seed seed

let metrics_deliveries_of c =
  match request c "{\"op\":\"metrics\"}" with
  | Error _ as e -> e
  | Ok resp -> (
      match result_of resp with
      | Error e -> Error e
      | Ok m -> (
          match
            Option.bind (J.member "counters" m)
              (J.member "sessions.engine.deliveries")
          with
          | Some n -> (
              match J.to_int_opt n with
              | Some i -> Ok i
              | None -> Error "non-integer sessions.engine.deliveries")
          | None -> Ok 0 (* fresh server: nothing merged yet *)))

let smoke ?(sessions = 30) ~socket () =
  match connect socket with
  | Error _ as e -> e
  | Ok c -> (
      let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
      let finally () = close c in
      let kinds = [| `Flood; `Counting; `Churned |] in
      let error_code v =
        match
          Option.bind (J.member "error" v) (fun e ->
              Option.bind (J.member "code" e) J.to_string_opt)
        with
        | Some code -> code
        | None -> ""
      in
      let rec submit i tries acc =
        if i >= sessions then Ok (List.rev acc)
        else
          (* Pairs (2k, 2k+1) share kind AND seed — equal submissions
             under distinct ids, the byte-determinism probe. *)
          let kind = kinds.(i / 2 mod 3) in
          let seed = i / 2 in
          let id = Printf.sprintf "smoke-%d" i in
          let line = smoke_submit_line ~id ~kind ~graph:"small" ~seed in
          match request c line with
          | Error e -> fail "submit %s: %s" id e
          | Ok resp -> (
              match response_ok resp with
              | Ok (true, _) -> submit (i + 1) 0 ((id, kind, seed) :: acc)
              | Ok (false, v)
                when error_code v = "no_credit" || error_code v = "overloaded"
                ->
                  (* Backpressure, not failure: the probe outran its own
                     credit allowance or the admission queue.  Wait for
                     earlier sessions to drain and resubmit. *)
                  if tries > 4000 then fail "submit %s starved: %s" id resp
                  else begin
                    Unix.sleepf 0.005;
                    submit i (tries + 1) acc
                  end
              | Ok (false, _) -> fail "submit %s rejected: %s" id resp
              | Error e -> fail "submit %s: %s" id e)
      in
      let poll_result id =
        let rec go tries =
          match request c (Printf.sprintf "{\"op\":\"result\",\"id\":%s}" (J.escape id)) with
          | Error e -> Error e
          | Ok resp -> (
              match result_of resp with
              | Ok r -> Ok r
              | Error "not_done" ->
                  if tries > 4000 then Error "session stuck"
                  else begin
                    Unix.sleepf 0.005;
                    go (tries + 1)
                  end
              | Error e -> Error e)
        in
        go 0
      in
      (* Baseline for the reconcile delta: the probe may run against a
         server that has already served other load; what must match is
         what THIS probe added (assuming no concurrent third-party load,
         which is the smoke harness's setup anyway). *)
      match metrics_deliveries_of c with
      | Error e ->
          finally ();
          fail "metrics baseline: %s" e
      | Ok baseline -> (
      match submit 0 0 [] with
      | Error e ->
          finally ();
          Error e
      | Ok submitted -> (
          let results =
            List.map
              (fun (id, kind, seed) -> (id, kind, seed, poll_result id))
              submitted
          in
          let bad =
            List.filter (fun (_, _, _, r) -> Result.is_error r) results
          in
          match bad with
          | (id, _, _, Error e) :: _ ->
              finally ();
              fail "result %s: %s" id e
          | _ -> (
              (* determinism: equal (kind, seed) pairs must render equal bytes *)
              let rendered =
                List.map
                  (fun (id, kind, seed, r) ->
                    match r with
                    | Ok v -> (id, kind, seed, J.to_string v)
                    | Error _ -> assert false)
                  results
              in
              let determinism_ok =
                List.for_all
                  (fun (_, kind, seed, json) ->
                    List.for_all
                      (fun (_, kind', seed', json') ->
                        kind <> kind' || seed <> seed' || json = json')
                      rendered)
                  rendered
              in
              let sum_deliveries =
                List.fold_left
                  (fun acc (_, _, _, json) ->
                    match J.parse json with
                    | Ok v -> (
                        match
                          Option.map J.to_int_opt (J.member "deliveries" v)
                        with
                        | Some (Some d) -> acc + d
                        | _ -> acc)
                    | Error _ -> acc)
                  0 rendered
              in
              match metrics_deliveries_of c with
              | Error e ->
                  finally ();
                  fail "metrics: %s" e
              | Ok total ->
                  let metrics_deliveries = total - baseline in
                  finally ();
                  Ok
                    {
                      sessions;
                      ok_results = List.length rendered;
                      determinism_ok;
                      reconcile_ok = metrics_deliveries = sum_deliveries;
                      sum_deliveries;
                      metrics_deliveries;
                    }))))

let shutdown ~socket =
  match connect socket with
  | Error _ as e -> e
  | Ok c ->
      let r = request c "{\"op\":\"shutdown\"}" in
      close c;
      r
