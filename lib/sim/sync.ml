module Waitq = struct
  (* Each entry carries the suspension epoch it was filed in.  A waiter
     that left the wait another way (timeout, interrupt, kill) leaves its
     entry behind; the epoch keeps a later [signal] from waking the fiber
     out of whatever it is suspended in by then. *)
  type t = { q : (Fiber.t * int) Queue.t }

  let create () = { q = Queue.create () }

  let wait t = Fiber.suspend (fun fiber -> Queue.push (fiber, Fiber.epoch fiber) t.q)

  let wait_timeout engine t ns =
    Fiber.suspend (fun fiber ->
        (* The timer is guarded by the same epoch: if the fiber is
           signalled (or interrupted) before the deadline, it dies with the
           wait instead of waking the fiber's next suspension. *)
        Queue.push (fiber, Fiber.epoch fiber) t.q;
        Fiber.wake_after engine fiber ns Fiber.Timeout)

  (* Stale entries are skipped, so a signal is never lost to a waiter
     that already left. *)
  let rec signal t =
    match Queue.take_opt t.q with
    | None -> false
    | Some (fiber, epoch) ->
      if Fiber.wake_epoch fiber ~epoch Fiber.Normal then true else signal t

  let broadcast t =
    let n = ref 0 in
    while signal t do incr n done;
    !n

  let waiters t = Queue.length t.q
end

module Mutex = struct
  type t = { mutable owner : Fiber.t option; waiters : Waitq.t }

  let create () = { owner = None; waiters = Waitq.create () }

  let locked t = t.owner <> None

  let rec lock t =
    match t.owner with
    | None -> t.owner <- Some (Fiber.self ())
    | Some _ ->
      (* Interrupts do not abort lock acquisition; retry until owned. *)
      ignore (Waitq.wait t.waiters : Fiber.wake);
      lock t

  let unlock t =
    match t.owner with
    | None -> invalid_arg "Sync.Mutex.unlock: not locked"
    | Some _ ->
      t.owner <- None;
      ignore (Waitq.signal t.waiters : bool)

  let with_lock t fn =
    lock t;
    Fun.protect ~finally:(fun () -> unlock t) fn
end

module Condvar = struct
  type t = { waiters : Waitq.t }

  let create () = { waiters = Waitq.create () }

  let wait t mu =
    Mutex.unlock mu;
    let w = Waitq.wait t.waiters in
    Mutex.lock mu;
    w

  let signal t = ignore (Waitq.signal t.waiters : bool)
  let broadcast t = ignore (Waitq.broadcast t.waiters : int)
end

module Mailbox = struct
  type 'a t = {
    items : 'a Queue.t;
    capacity : int;
    readers : Waitq.t;
    writers : Waitq.t;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Mailbox.create: capacity must be positive";
    { items = Queue.create (); capacity; readers = Waitq.create (); writers = Waitq.create () }

  let length t = Queue.length t.items

  let try_send t x =
    if Queue.length t.items >= t.capacity then false
    else begin
      Queue.push x t.items;
      ignore (Waitq.signal t.readers : bool);
      true
    end

  let rec send t x =
    if try_send t x then `Ok
    else
      match Waitq.wait t.writers with
      | Fiber.Interrupted -> `Interrupted
      | Fiber.Normal | Fiber.Timeout -> send t x

  let try_recv t =
    match Queue.take_opt t.items with
    | None -> None
    | Some x ->
      ignore (Waitq.signal t.writers : bool);
      Some x

  let rec recv t =
    match try_recv t with
    | Some x -> `Ok x
    | None ->
      (match Waitq.wait t.readers with
       | Fiber.Interrupted -> `Interrupted
       | Fiber.Normal | Fiber.Timeout -> recv t)

  let rec recv_timeout engine t ns =
    match try_recv t with
    | Some x -> `Ok x
    | None ->
      let deadline = Engine.now engine + ns in
      (match Waitq.wait_timeout engine t.readers ns with
       | Fiber.Interrupted -> `Interrupted
       | Fiber.Timeout -> (match try_recv t with Some x -> `Ok x | None -> `Timeout)
       | Fiber.Normal ->
         let remaining = deadline - Engine.now engine in
         if remaining <= 0 then
           match try_recv t with Some x -> `Ok x | None -> `Timeout
         else recv_timeout engine t remaining)
end
