(* Append-only write-ahead log of session lifecycle records.

   One record per line: [CRC32HEX ' ' BODY '\n'] where BODY is a JSON
   object and the checksum covers exactly the BODY bytes.  The framing is
   deliberately the dumbest thing that survives torn writes: a crash can
   only damage the {e tail} of the file (appends are sequential), and any
   truncation or corruption of that tail is caught by the missing newline
   or the checksum — [scan] keeps the longest intact prefix and reports
   the damage instead of crashing on it.

   Durability rule: [Submitted], [Cancelled] and [Failed] records are
   fsynced before [append] returns; [Result] records are only written
   through, because a lost [Result] is recomputed: replay reruns the
   session deterministically and checks the digest of any [Result] that
   survived.  [must_sync] is that rule and [append] applies it.

   The fsynced kinds are group-committed: every record is stamped with a
   sequence number under the lock, one caller becomes the syncer, writes
   the whole pending batch and fsyncs once, and every caller whose record
   made that batch returns together — so N worker domains finishing
   simultaneously cost one fsync, not N.  The fsync also covers every
   [Result] written before it, and a [Result] appended while the syncer
   was out of the lock is written out by that syncer before it returns.
   The server appends a [Submitted] record {e before} its acknowledgement
   leaves [handle_line], which is the whole recovery story: an
   acknowledged submit is a durable submit. *)

module J = Obs.Json

type record =
  | Submitted of { id : string; line : string }
      (* the full request line as received: replay re-parses it, so
         recovery re-executes exactly the acknowledged submission *)
  | Result of {
      id : string;
      digest : string;  (* MD5 hex of the result payload bytes *)
      outcome : string;
      deliveries : int;
      total_bits : int;
    }
  | Cancelled of { id : string; reason : string }
  | Failed of { id : string; code : string; msg : string }

let digest payload = Digest.to_hex (Digest.string payload)

(* {1 CRC32 (IEEE)} *)

(* Built eagerly: a [lazy] table raises [CamlinternalLazy.Undefined] when
   two domains force it at once, which two first appends can do. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      c := crc_table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* {1 Encoding} *)

let encode_body r =
  let b = Buffer.create 128 in
  let str name v =
    Buffer.add_string b ",\"";
    Buffer.add_string b name;
    Buffer.add_string b "\":";
    J.buf_string b v
  in
  let int name v =
    Buffer.add_string b ",\"";
    Buffer.add_string b name;
    Printf.bprintf b "\":%d" v
  in
  (match r with
  | Submitted { id; line } ->
      Buffer.add_string b "{\"k\":\"submit\"";
      str "id" id;
      str "line" line
  | Result { id; digest; outcome; deliveries; total_bits } ->
      Buffer.add_string b "{\"k\":\"result\"";
      str "id" id;
      str "digest" digest;
      str "outcome" outcome;
      int "deliveries" deliveries;
      int "bits" total_bits
  | Cancelled { id; reason } ->
      Buffer.add_string b "{\"k\":\"cancel\"";
      str "id" id;
      str "reason" reason
  | Failed { id; code; msg } ->
      Buffer.add_string b "{\"k\":\"fail\"";
      str "id" id;
      str "code" code;
      str "msg" msg);
  Buffer.add_char b '}';
  Buffer.contents b

let encode r =
  let body = encode_body r in
  Printf.sprintf "%08x %s\n" (crc32 body) body

let decode_body body =
  match J.parse body with
  | Error _ -> Error "unparseable record body"
  | Ok v -> (
      let str name = Option.bind (J.member name v) J.to_string_opt in
      let int name = Option.bind (J.member name v) J.to_int_opt in
      match str "k" with
      | Some "submit" -> (
          match (str "id", str "line") with
          | Some id, Some line -> Ok (Submitted { id; line })
          | _ -> Error "bad submit record")
      | Some "result" -> (
          match
            (str "id", str "digest", str "outcome", int "deliveries", int "bits")
          with
          | Some id, Some digest, Some outcome, Some deliveries, Some total_bits
            ->
              Ok (Result { id; digest; outcome; deliveries; total_bits })
          | _ -> Error "bad result record")
      | Some "cancel" -> (
          match (str "id", str "reason") with
          | Some id, Some reason -> Ok (Cancelled { id; reason })
          | _ -> Error "bad cancel record")
      | Some "fail" -> (
          match (str "id", str "code", str "msg") with
          | Some id, Some code, Some msg -> Ok (Failed { id; code; msg })
          | _ -> Error "bad fail record")
      | _ -> Error "unknown record kind")

(* {1 Scanning (recovery side)} *)

type scan = {
  records : record list;  (* the intact prefix, in append order *)
  torn : bool;  (* trailing bytes failed framing, checksum or decode *)
  valid_bytes : int;  (* file offset where the intact prefix ends *)
  total_bytes : int;
}

let scan_string s =
  let n = String.length s in
  let records = ref [] in
  let pos = ref 0 and valid = ref 0 and torn = ref false in
  (try
     while !pos < n do
       match String.index_from_opt s !pos '\n' with
       | None ->
           (* a partial record: the classic torn tail *)
           torn := true;
           raise Exit
       | Some nl ->
           let line = String.sub s !pos (nl - !pos) in
           let ok =
             String.length line > 9
             && line.[8] = ' '
             && String.for_all
                  (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
                  (String.sub line 0 8)
             &&
             let c = int_of_string ("0x" ^ String.sub line 0 8) in
             let body = String.sub line 9 (String.length line - 9) in
             c = crc32 body
             &&
             match decode_body body with
             | Ok r ->
                 records := r :: !records;
                 true
             | Error _ -> false
           in
           if ok then begin
             valid := nl + 1;
             pos := nl + 1
           end
           else begin
             (* stop at the first damaged record: everything after it is
                untrusted (its length framing may itself be corrupt) *)
             torn := true;
             raise Exit
           end
     done
   with Exit -> ());
  {
    records = List.rev !records;
    torn = !torn;
    valid_bytes = !valid;
    total_bytes = n;
  }

let scan_file path =
  if not (Sys.file_exists path) then
    Ok { records = []; torn = false; valid_bytes = 0; total_bytes = 0 }
  else
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok (scan_string s)
    with Sys_error e | Failure e -> Error e

(* {1 The writer} *)

type t = {
  fd : Unix.file_descr;
  sync : bool;
  lock : Mutex.t;
  synced : Condition.t;
  pending : Buffer.t;  (* encoded records not yet written to the fd *)
  mutable next_seq : int;
  mutable synced_seq : int;  (* records <= this are durable *)
  mutable syncing : bool;  (* a caller is inside write+fsync *)
  mutable appends : int;
  mutable fsyncs : int;
  mutable bytes : int;
  mutable closed : bool;
}

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let open_append ?(sync = true) path =
  match scan_file path with
  | Error e -> Error (Printf.sprintf "journal %s: %s" path e)
  | Ok scan -> (
      match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "journal %s: %s" path (Unix.error_message e))
      | fd ->
          (* amputate the torn tail so fresh appends form a clean stream *)
          if scan.valid_bytes < scan.total_bytes then
            Unix.ftruncate fd scan.valid_bytes;
          ignore (Unix.lseek fd 0 Unix.SEEK_END);
          Ok
            ( {
                fd;
                sync;
                lock = Mutex.create ();
                synced = Condition.create ();
                pending = Buffer.create 512;
                next_seq = 0;
                synced_seq = -1;
                syncing = false;
                appends = 0;
                fsyncs = 0;
                bytes = scan.valid_bytes;
                closed = false;
              },
              scan ))

(* Everything appended but not yet handed to the fd; caller holds
   [t.lock]. *)
let take_pending t =
  let data = Buffer.contents t.pending in
  Buffer.clear t.pending;
  data

(* The durability rule (see the header). *)
let must_sync = function
  | Submitted _ | Cancelled _ | Failed _ -> true
  | Result _ -> false

let append t r =
  let line = encode r in
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Journal.append: closed"
  end
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Buffer.add_string t.pending line;
    t.appends <- t.appends + 1;
    t.bytes <- t.bytes + String.length line;
    if not (t.sync && must_sync r) then begin
      (* write-through without fsync, in sequence order: behind a syncer
         in flight the record waits in [pending] until that syncer writes
         it out after its fsync; otherwise it goes to the fd now, and the
         next fsync covers it *)
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () ->
          if not t.syncing then write_all t.fd (take_pending t))
    end
    else begin
      (* group commit: whoever finds no syncer in flight becomes one and
         carries everyone batched behind them through a single fsync *)
      let rec wait_durable () =
        if t.synced_seq >= seq then ()
        else if t.syncing then begin
          Condition.wait t.synced t.lock;
          wait_durable ()
        end
        else begin
          t.syncing <- true;
          let data = take_pending t in
          let target = t.next_seq - 1 in
          Mutex.unlock t.lock;
          if data <> "" then write_all t.fd data;
          (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
          Mutex.lock t.lock;
          t.fsyncs <- t.fsyncs + 1;
          if target > t.synced_seq then t.synced_seq <- target;
          (* what was appended behind this batch goes to the fd now, with
             no fsync of its own: a [Result] never outlives its syncer in
             memory, and a fsynced kind among it is carried by its own
             caller's next fsync *)
          let behind = take_pending t in
          if behind <> "" then write_all t.fd behind;
          t.syncing <- false;
          Condition.broadcast t.synced;
          wait_durable ()
        end
      in
      wait_durable ();
      Mutex.unlock t.lock
    end
  end

type stats = { s_appends : int; s_fsyncs : int; s_bytes : int }

let stats t =
  Mutex.lock t.lock;
  let s = { s_appends = t.appends; s_fsyncs = t.fsyncs; s_bytes = t.bytes } in
  Mutex.unlock t.lock;
  s

let close t =
  Mutex.lock t.lock;
  if not t.closed then begin
    t.closed <- true;
    (* a syncer in flight writes outside the lock: let it finish (it
       writes out what was buffered behind its batch) before closing *)
    while t.syncing do
      Condition.wait t.synced t.lock
    done;
    let data = take_pending t in
    if data <> "" then write_all t.fd data;
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    (try Unix.close t.fd with Unix.Unix_error _ -> ())
  end;
  Mutex.unlock t.lock
