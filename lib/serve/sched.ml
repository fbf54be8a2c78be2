(* A bounded multi-producer multi-consumer job queue.

   The admission-control half of the server.  [try_push] never blocks —
   a full queue is an immediate answer to the client, not invisible
   latency.  Consumers ([pop]) block on a condition variable; [close]
   wakes them all and lets them drain what is already queued, so a
   graceful shutdown finishes accepted work. *)

type 'a t = {
  q : 'a Queue.t;
  cap : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let create ~cap =
  if cap < 1 then invalid_arg "Sched.create: cap must be >= 1";
  {
    q = Queue.create ();
    cap;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let try_push t x =
  locked t (fun () ->
      if t.closed || Queue.length t.q >= t.cap then false
      else begin
        Queue.push x t.q;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  locked t (fun () ->
      let rec go () =
        match Queue.take_opt t.q with
        | Some _ as x -> x
        | None ->
            if t.closed then None
            else begin
              Condition.wait t.nonempty t.lock;
              go ()
            end
      in
      go ())

let try_pop t = locked t (fun () -> Queue.take_opt t.q)

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let length t = locked t (fun () -> Queue.length t.q)
