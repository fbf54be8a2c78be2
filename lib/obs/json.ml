let buf_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_list b f xs =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f b x)
    xs;
  Buffer.add_char b ']'

let buf_int_list b xs =
  buf_list b (fun b i -> Buffer.add_string b (string_of_int i)) xs

let escape s =
  let b = Buffer.create (String.length s + 2) in
  buf_string b s;
  Buffer.contents b

(* One NDJSON frame: render [emit] into a scratch buffer, then write it as a
   single line and flush.  Rendering first keeps a raising emitter from
   leaving half a document on the wire, and the single [output_string] keeps
   concurrent writers from interleaving inside a frame. *)
let to_channel oc emit =
  let b = Buffer.create 256 in
  emit b;
  Buffer.add_char b '\n';
  output_string oc (Buffer.contents b);
  flush oc

(* A float literal that is always a legal JSON number: no [nan]/[inf]
   tokens, no leading dot, and a ['.'] or exponent is fine per RFC 8259. *)
let buf_float b x =
  if not (Float.is_finite x) then Buffer.add_string b "0"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.bprintf b "%.0f" x
  else Printf.bprintf b "%.6g" x

(* {1 The parser}

   The serving layer needs to {e read} JSON, not just emit it: every request
   on the wire is one NDJSON line.  RFC 8259 (leading zeros rejected, one
   complete document, trailing whitespace only), building a {!value} tree.
   Numbers keep their source lexeme so that re-serializing a parsed
   document is byte-faithful — [to_string (parse s)] never invents a
   different number spelling than the producer used.  The same parser is
   the validity check the test-suite and the benches run on every
   exporter's output. *)

exception Bad of int

type value =
  | Null
  | Bool of bool
  | Number of string
  | String of string
  | Array of value list
  | Object of (string * value) list

let utf8_of_code b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let bump () = incr pos in
  let fail () = raise (Bad !pos) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        bump ();
        skip_ws ()
    | _ -> ()
  in
  let expect c = match peek () with Some d when d = c -> bump () | _ -> fail () in
  let literal l = String.iter expect l in
  let digits () =
    let saw = ref false in
    let continue = ref true in
    while !continue do
      match peek () with
      | Some ('0' .. '9') ->
          saw := true;
          bump ()
      | _ -> continue := false
    done;
    if not !saw then fail ()
  in
  let number () =
    let start = !pos in
    (match peek () with Some '-' -> bump () | _ -> ());
    (match peek () with
    | Some '0' -> (
        bump ();
        match peek () with Some ('0' .. '9') -> fail () | _ -> ())
    | _ -> digits ());
    (match peek () with
    | Some '.' ->
        bump ();
        digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        bump ();
        (match peek () with Some ('+' | '-') -> bump () | _ -> ());
        digits ()
    | _ -> ());
    Number (String.sub s start (!pos - start))
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      (v :=
         (!v lsl 4)
         +
         match peek () with
         | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
         | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
         | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
         | _ -> fail ());
      bump ()
    done;
    !v
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let continue = ref true in
    while !continue do
      match peek () with
      | None -> fail ()
      | Some '"' ->
          bump ();
          continue := false
      | Some '\\' -> (
          bump ();
          match peek () with
          | Some '"' -> bump (); Buffer.add_char b '"'
          | Some '\\' -> bump (); Buffer.add_char b '\\'
          | Some '/' -> bump (); Buffer.add_char b '/'
          | Some 'b' -> bump (); Buffer.add_char b '\b'
          | Some 'f' -> bump (); Buffer.add_char b '\012'
          | Some 'n' -> bump (); Buffer.add_char b '\n'
          | Some 'r' -> bump (); Buffer.add_char b '\r'
          | Some 't' -> bump (); Buffer.add_char b '\t'
          | Some 'u' ->
              bump ();
              utf8_of_code b (hex4 ())
          | _ -> fail ())
      | Some c when Char.code c < 32 -> fail ()
      | Some c ->
          bump ();
          Buffer.add_char b c
    done;
    Buffer.contents b
  in
  let rec value () =
    skip_ws ();
    let v =
      match peek () with
      | Some '{' ->
          bump ();
          skip_ws ();
          if peek () = Some '}' then begin
            bump ();
            Object []
          end
          else begin
            let members = ref [] in
            let continue = ref true in
            while !continue do
              skip_ws ();
              let k = string_body () in
              skip_ws ();
              expect ':';
              let v = value () in
              members := (k, v) :: !members;
              skip_ws ();
              match peek () with
              | Some ',' -> bump ()
              | Some '}' ->
                  bump ();
                  continue := false
              | _ -> fail ()
            done;
            Object (List.rev !members)
          end
      | Some '[' ->
          bump ();
          skip_ws ();
          if peek () = Some ']' then begin
            bump ();
            Array []
          end
          else begin
            let items = ref [] in
            let continue = ref true in
            while !continue do
              items := value () :: !items;
              skip_ws ();
              match peek () with
              | Some ',' -> bump ()
              | Some ']' ->
                  bump ();
                  continue := false
              | _ -> fail ()
            done;
            Array (List.rev !items)
          end
      | Some '"' -> String (string_body ())
      | Some 't' ->
          literal "true";
          Bool true
      | Some 'f' ->
          literal "false";
          Bool false
      | Some 'n' ->
          literal "null";
          Null
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail ()
    in
    skip_ws ();
    v
  in
  try
    let v = value () in
    if !pos <> n then Error !pos else Ok v
  with Bad p -> Error p

let valid s = Result.is_ok (parse s)

let rec buf_value b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Number lexeme -> Buffer.add_string b lexeme
  | String s -> buf_string b s
  | Array vs -> buf_list b buf_value vs
  | Object kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          buf_string b k;
          Buffer.add_char b ':';
          buf_value b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 64 in
  buf_value b v;
  Buffer.contents b

(* {1 Accessors} *)

let member k = function Object kvs -> List.assoc_opt k kvs | _ -> None

let to_int_opt = function
  | Number lexeme -> int_of_string_opt lexeme
  | _ -> None

let to_float_opt = function
  | Number lexeme -> float_of_string_opt lexeme
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
