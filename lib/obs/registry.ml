(* Named metrics with O(1) hot-path updates.  Registration (name -> cell
   lookup) takes a mutex so concurrent domains can share one registry;
   updates on the returned cells are plain (or atomic, for the [acounter]
   variant) field writes with no locking, so the per-delivery cost of an
   instrumented engine is a handful of stores.  Plain counters, gauges and
   histograms are single-writer: use them from one domain, or use
   [acounter] where several domains bump the same total. *)

type counter = { mutable c : int }
type gauge = { mutable g : int }
type acounter = int Atomic.t

let n_buckets = 65
(* Bucket [i] holds values needing exactly [i] significand bits: bucket 0
   is [v <= 0], bucket i covers [2^(i-1), 2^i - 1]. *)

type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  h_buckets : int array;
}

type cell =
  | C of counter
  | G of gauge
  | A of acounter
  | H of histogram

type t = { cells : (string, cell) Hashtbl.t; lock : Mutex.t }

let create () = { cells = Hashtbl.create 32; lock = Mutex.create () }

let register t name make describe =
  Mutex.lock t.lock;
  let cell =
    match Hashtbl.find_opt t.cells name with
    | Some c -> c
    | None ->
        let c = make () in
        Hashtbl.add t.cells name c;
        c
  in
  Mutex.unlock t.lock;
  match describe cell with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Obs.Registry: %S already registered with another kind"
           name)

let counter t name =
  register t name
    (fun () -> C { c = 0 })
    (function C c -> Some c | _ -> None)

let gauge t name =
  register t name (fun () -> G { g = 0 }) (function G g -> Some g | _ -> None)

let acounter t name =
  register t name
    (fun () -> A (Atomic.make 0))
    (function A a -> Some a | _ -> None)

let histogram t name =
  register t name
    (fun () -> H { h_count = 0; h_sum = 0; h_buckets = Array.make n_buckets 0 })
    (function H h -> Some h | _ -> None)

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c
let set g v = g.g <- v
let gauge_value g = g.g
let aincr a = Atomic.incr a
let aadd a n = ignore (Atomic.fetch_and_add a n)
let avalue a = Atomic.get a

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      b := !b + 1;
      v := !v lsr 1
    done;
    Stdlib.min !b (n_buckets - 1)
  end

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  let b = h.h_buckets.(bucket_of v) in
  h.h_buckets.(bucket_of v) <- b + 1

let observe_n h v n =
  h.h_count <- h.h_count + n;
  h.h_sum <- h.h_sum + (v * n);
  let i = bucket_of v in
  h.h_buckets.(i) <- h.h_buckets.(i) + n

let bucket_lo i = if i = 0 then 0 else 1 lsl (i - 1)
let bucket_hi i = if i = 0 then 0 else (1 lsl i) - 1

(* {1 Snapshots} *)

type entry =
  | Counter of int
  | Gauge of int
  | Histogram of { h_count : int; h_sum : int; h_buckets : (int * int) list }

type snapshot = (string * entry) list

let snapshot t =
  Mutex.lock t.lock;
  let rows =
    Hashtbl.fold
      (fun name cell acc ->
        let entry =
          match cell with
          | C c -> Counter c.c
          | G g -> Gauge g.g
          | A a -> Counter (Atomic.get a)
          | H h ->
              let buckets = ref [] in
              for i = n_buckets - 1 downto 0 do
                if h.h_buckets.(i) > 0 then
                  buckets := (i, h.h_buckets.(i)) :: !buckets
              done;
              Histogram
                { h_count = h.h_count; h_sum = h.h_sum; h_buckets = !buckets }
        in
        (name, entry) :: acc)
      t.cells []
  in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

let find snap name =
  match List.assoc_opt name snap with
  | Some (Counter v) | Some (Gauge v) -> Some v
  | Some (Histogram _) | None -> None

let find_histogram snap name =
  match List.assoc_opt name snap with
  | Some (Histogram { h_count; h_sum; h_buckets }) ->
      Some (h_count, h_sum, h_buckets)
  | _ -> None

(* Counter and histogram entries subtract ([newer - older], missing-in-older
   treated as zero); gauges keep the newer reading.  Entries only present in
   [older] are dropped: a diff describes what happened {e during} the
   window. *)
let diff ~older ~newer =
  List.map
    (fun (name, entry) ->
      match (entry, List.assoc_opt name older) with
      | Counter n, Some (Counter o) -> (name, Counter (n - o))
      | Histogram n, Some (Histogram o) ->
          let sub =
            List.filter_map
              (fun (i, c) ->
                let c' =
                  c - (try List.assoc i o.h_buckets with Not_found -> 0)
                in
                if c' <> 0 then Some (i, c') else None)
              n.h_buckets
          in
          ( name,
            Histogram
              {
                h_count = n.h_count - o.h_count;
                h_sum = n.h_sum - o.h_sum;
                h_buckets = sub;
              } )
      | e, _ -> (name, e))
    newer

(* Roll a snapshot up into another registry, each entry under [prefix ^
   name].  Counters and histogram contents {e add} (so per-session deltas
   accumulate into server-wide totals), gauges take the incoming reading.
   Registration is idempotent — merging the same names again reuses the
   existing cells — and a prefixed name already registered with another
   kind raises [Invalid_argument], exactly like direct registration.

   Cell updates here are plain stores: concurrent merges into one registry
   must be serialized by the caller (the serve layer holds one rollup lock
   across each merge). *)
let merge ~into ?(prefix = "") snap =
  List.iter
    (fun (name, entry) ->
      let name = prefix ^ name in
      match entry with
      | Counter v -> add (counter into name) v
      | Gauge v -> set (gauge into name) v
      | Histogram { h_count; h_sum; h_buckets } ->
          let h =
            register into name
              (fun () ->
                H { h_count = 0; h_sum = 0; h_buckets = Array.make n_buckets 0 })
              (function H h -> Some h | _ -> None)
          in
          h.h_count <- h.h_count + h_count;
          h.h_sum <- h.h_sum + h_sum;
          List.iter
            (fun (i, c) ->
              if i >= 0 && i < n_buckets then
                h.h_buckets.(i) <- h.h_buckets.(i) + c)
            h_buckets)
    snap

let to_json snap =
  let b = Buffer.create 512 in
  let section kind keep emit =
    let rows = List.filter (fun (_, e) -> keep e) snap in
    Buffer.add_char b '"';
    Buffer.add_string b kind;
    Buffer.add_string b "\":{";
    List.iteri
      (fun i (name, e) ->
        if i > 0 then Buffer.add_char b ',';
        Json.buf_string b name;
        Buffer.add_char b ':';
        emit e)
      rows;
    Buffer.add_char b '}'
  in
  Buffer.add_char b '{';
  section "counters"
    (function Counter _ -> true | _ -> false)
    (function Counter v -> Buffer.add_string b (string_of_int v) | _ -> ());
  Buffer.add_char b ',';
  section "gauges"
    (function Gauge _ -> true | _ -> false)
    (function Gauge v -> Buffer.add_string b (string_of_int v) | _ -> ());
  Buffer.add_char b ',';
  section "histograms"
    (function Histogram _ -> true | _ -> false)
    (function
      | Histogram { h_count; h_sum; h_buckets } ->
          Printf.bprintf b "{\"count\":%d,\"sum\":%d,\"buckets\":{" h_count h_sum;
          List.iteri
            (fun i (bi, c) ->
              if i > 0 then Buffer.add_char b ',';
              Printf.bprintf b "\"%d\":%d" bi c)
            h_buckets;
          Buffer.add_string b "}}"
      | _ -> ());
  Buffer.add_char b '}';
  Buffer.contents b
