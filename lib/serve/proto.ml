(* Request/response layer of the serve wire protocol.

   Requests are one JSON object per line, dispatched on an "op" member;
   responses are an envelope {"id":...,"ok":true,"result":...} or
   {"id":...,"ok":false,"error":{"code":...,"msg":...}} — the "id" echoes
   the request's session id when it has one, so a client may pipeline
   requests and match answers.  Error codes are a closed enum: clients
   branch on [code], never on message text.

   All numeric knobs are validated here, at the edge, so everything behind
   [parse_request] works with known-good values — the runner never has to
   translate an [Invalid_argument] back into a wire error. *)

module J = Obs.Json

type error_code =
  | Parse_error  (** The line is not a well-formed request object. *)
  | Bad_request  (** Well-formed but invalid: bad op, missing id, range. *)
  | Unknown_graph
  | Unknown_protocol
  | Unknown_id
  | Duplicate_id
  | Overloaded  (** Admission queue full; resubmit later. *)
  | No_credit  (** This connection's unfinished-session cap is reached. *)
  | Not_done  (** [result] asked before the session finished. *)
  | Cancelled_error  (** [result] of a cancelled session. *)
  | Shutting_down

let code_string = function
  | Parse_error -> "parse_error"
  | Bad_request -> "bad_request"
  | Unknown_graph -> "unknown_graph"
  | Unknown_protocol -> "unknown_protocol"
  | Unknown_id -> "unknown_id"
  | Duplicate_id -> "duplicate_id"
  | Overloaded -> "overloaded"
  | No_credit -> "no_credit"
  | Not_done -> "not_done"
  | Cancelled_error -> "cancelled"
  | Shutting_down -> "shutting_down"

(* Inverse spelling, for journal replay of [Failed] records; an unknown
   spelling (a future code read by an older binary) degrades to
   [Bad_request] rather than failing recovery. *)
let code_of_string = function
  | "parse_error" -> Parse_error
  | "unknown_graph" -> Unknown_graph
  | "unknown_protocol" -> Unknown_protocol
  | "unknown_id" -> Unknown_id
  | "duplicate_id" -> Duplicate_id
  | "overloaded" -> Overloaded
  | "no_credit" -> No_credit
  | "not_done" -> Not_done
  | "cancelled" -> Cancelled_error
  | "shutting_down" -> Shutting_down
  | _ -> Bad_request

type fault_spec = {
  f_drop : float;
  f_duplicate : float;
  f_max_delay : int;
  f_corrupt : float;
  f_kill : float;
  f_seed : int;
}

type churn_spec = { c_rate : float; c_seed : int; c_t : int option }

type submit = {
  sub_id : string;
  sub_protocol : string;
  sub_graph : string;
  sub_scheduler : string;  (* "fifo" | "lifo" | "random" (seeded below) *)
  sub_seed : int;
  sub_payload : int;
  sub_step_limit : int option;  (* None = server default *)
  sub_faults : fault_spec option;
  sub_churn : churn_spec option;
  sub_deadline_ms : int option;
  sub_key : string option;  (* client-supplied idempotency key *)
}

type request =
  | Submit of submit
  | Status of string
  | Result of string
  | Cancel of string
  | Watch of string
  | Metrics
  | Shutdown

(* {1 Parsing} *)

exception Reject of error_code * string

let reject code fmt = Printf.ksprintf (fun m -> raise (Reject (code, m))) fmt

let str_field v name =
  match Option.map J.to_string_opt (J.member name v) with
  | Some (Some s) -> s
  | _ -> reject Bad_request "missing or non-string %S" name

let int_field v name ~default =
  match J.member name v with
  | None -> default
  | Some f -> (
      match J.to_int_opt f with
      | Some i -> i
      | None -> reject Bad_request "non-integer %S" name)

let int_opt_field v name =
  match J.member name v with
  | None -> None
  | Some f -> (
      match J.to_int_opt f with
      | Some i -> Some i
      | None -> reject Bad_request "non-integer %S" name)

let float_field v name ~default =
  match J.member name v with
  | None -> default
  | Some f -> (
      match J.to_float_opt f with
      | Some x -> x
      | None -> reject Bad_request "non-number %S" name)

let prob v name =
  let x = float_field v name ~default:0.0 in
  if x < 0.0 || x > 1.0 then reject Bad_request "%S must be in [0,1]" name;
  x

let faults_of v =
  match J.member "faults" v with
  | None -> None
  | Some f ->
      let spec =
        {
          f_drop = prob f "drop";
          f_duplicate = prob f "duplicate";
          f_max_delay = int_field f "max_delay" ~default:0;
          f_corrupt = prob f "corrupt";
          f_kill = prob f "kill";
          f_seed = int_field f "seed" ~default:0;
        }
      in
      if spec.f_duplicate >= 1.0 then
        reject Bad_request "\"duplicate\" must be in [0,1)";
      if spec.f_max_delay < 0 then
        reject Bad_request "\"max_delay\" must be >= 0";
      Some spec

let churn_of v =
  match J.member "churn" v with
  | None -> None
  | Some c ->
      let spec =
        {
          c_rate = prob c "rate";
          c_seed = int_field c "seed" ~default:0;
          c_t = int_opt_field c "t";
        }
      in
      (match spec.c_t with
      | Some t when t < 1 -> reject Bad_request "churn \"t\" must be >= 1"
      | _ -> ());
      if spec.c_rate = 0.0 then None else Some spec

(* Clients written against the two-engine server may still name one; both
   spellings are accepted and ignored (there is one engine), anything else
   is still a request error. *)
let check_engine v =
  match Option.map J.to_string_opt (J.member "engine" v) with
  | None | Some (Some ("classic" | "flat")) -> ()
  | Some (Some s) -> reject Bad_request "unknown engine %S (classic | flat)" s
  | Some None -> reject Bad_request "non-string \"engine\""

let submit_of v =
  let sub =
    {
      sub_id = str_field v "id";
      sub_protocol = str_field v "protocol";
      sub_graph = str_field v "graph";
      sub_scheduler =
        (match Option.map J.to_string_opt (J.member "scheduler" v) with
        | Some (Some s) -> s
        | None -> "fifo"
        | Some None -> reject Bad_request "non-string \"scheduler\"");
      sub_seed = int_field v "seed" ~default:0;
      sub_payload = int_field v "payload" ~default:0;
      sub_step_limit = int_opt_field v "step_limit";
      sub_faults = faults_of v;
      sub_churn = churn_of v;
      sub_deadline_ms = int_opt_field v "deadline_ms";
      sub_key =
        (match J.member "key" v with
        | None -> None
        | Some f -> (
            match J.to_string_opt f with
            | Some k -> Some k
            | None -> reject Bad_request "non-string \"key\""));
    }
  in
  if sub.sub_id = "" then reject Bad_request "empty session id";
  (match sub.sub_key with
  | Some "" -> reject Bad_request "empty idempotency \"key\""
  | _ -> ());
  (match sub.sub_scheduler with
  | "fifo" | "lifo" | "random" -> ()
  | s -> reject Bad_request "unknown scheduler %S (fifo | lifo | random)" s);
  check_engine v;
  if sub.sub_payload < 0 then reject Bad_request "\"payload\" must be >= 0";
  (match sub.sub_step_limit with
  | Some l when l < 1 -> reject Bad_request "\"step_limit\" must be >= 1"
  | _ -> ());
  (match sub.sub_deadline_ms with
  | Some d when d < 1 -> reject Bad_request "\"deadline_ms\" must be >= 1"
  | _ -> ());
  Submit sub

(* The id to echo in an error envelope, best effort: a parseable object's
   "id" member even when the request itself is rejected. *)
let id_of_value v =
  match Option.map J.to_string_opt (J.member "id" v) with
  | Some (Some s) -> Some s
  | _ -> None

let parse_request line =
  match J.parse line with
  | Error pos ->
      Error (None, Parse_error, Printf.sprintf "invalid JSON at byte %d" pos)
  | Ok v -> (
      let id = id_of_value v in
      match Option.map J.to_string_opt (J.member "op" v) with
      | Some (Some op) -> (
          let with_id make =
            match id with
            | Some i -> Ok (make i)
            | None -> Error (id, Bad_request, "missing or non-string \"id\"")
          in
          try
            match op with
            | "submit" -> Ok (submit_of v)
            | "status" -> with_id (fun i -> Status i)
            | "result" -> with_id (fun i -> Result i)
            | "cancel" -> with_id (fun i -> Cancel i)
            | "watch" -> with_id (fun i -> Watch i)
            | "metrics" -> Ok Metrics
            | "shutdown" -> Ok Shutdown
            | op ->
                Error (id, Bad_request, Printf.sprintf "unknown op %S" op)
          with Reject (code, msg) -> Error (id, code, msg))
      | _ -> Error (id, Bad_request, "missing or non-string \"op\""))

(* {1 Envelopes}

   [result] payloads are embedded as raw pre-rendered JSON so a stored
   session result is echoed byte-for-byte — the determinism contract is
   about these exact bytes. *)

let envelope ?id ~ok body =
  let b = Buffer.create 64 in
  Buffer.add_char b '{';
  (match id with
  | Some id ->
      Buffer.add_string b "\"id\":";
      J.buf_string b id;
      Buffer.add_char b ','
  | None -> ());
  Buffer.add_string b (if ok then "\"ok\":true," else "\"ok\":false,");
  Buffer.add_string b body;
  Buffer.add_char b '}';
  Buffer.contents b

let ok ?id result_json = envelope ?id ~ok:true ("\"result\":" ^ result_json)

let error ?id code msg =
  let b = Buffer.create 64 in
  Buffer.add_string b "\"error\":{\"code\":\"";
  Buffer.add_string b (code_string code);
  Buffer.add_string b "\",\"msg\":";
  J.buf_string b msg;
  Buffer.add_char b '}';
  envelope ?id ~ok:false (Buffer.contents b)

let state_result state = Printf.sprintf "{\"state\":%s}" (J.escape state)
