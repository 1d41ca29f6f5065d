(** Fiber synchronization: wait queues, mutexes, condition variables and
    bounded mailboxes.

    Wait queues are FIFO.  Every blocking operation reports whether it was
    woken normally, interrupted (signal delivery) or timed out, which the
    SUD proxy drivers use to implement interruptible synchronous upcalls
    (paper §3.1.1). *)

module Waitq : sig
  type t

  val create : unit -> t

  val wait : t -> Fiber.wake
  (** Park the current fiber until {!signal}/{!broadcast}, an interrupt or a
      kill. *)

  val wait_timeout : Engine.t -> t -> int -> Fiber.wake
  (** Like {!wait} but also wakes with [Timeout] after the given ns. *)

  val signal : t -> bool
  (** Wake the oldest waiter.  False if nobody was waiting. *)

  val broadcast : t -> int
  (** Wake all current waiters; returns how many were woken. *)

  val waiters : t -> int
  (** Queued entries, counting those a waiter left behind when its wait
      ended by timeout, interrupt or kill; {!signal} skips those. *)
end

module Mutex : sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
  val with_lock : t -> (unit -> 'a) -> 'a
  val locked : t -> bool
end

module Condvar : sig
  type t

  val create : unit -> t

  val wait : t -> Mutex.t -> Fiber.wake
  (** Atomically release the mutex and wait; the mutex is re-acquired before
      returning, whatever the wake reason. *)

  val signal : t -> unit
  val broadcast : t -> unit
end

module Mailbox : sig
  (** Bounded FIFO of values between fibers; the building block for queues
      that are not shared-memory rings. *)

  type 'a t

  val create : capacity:int -> 'a t

  val send : 'a t -> 'a -> [ `Ok | `Interrupted ]
  (** Blocks while full. *)

  val try_send : 'a t -> 'a -> bool

  val recv : 'a t -> [ `Ok of 'a | `Interrupted ]
  (** Blocks while empty. *)

  val recv_timeout : Engine.t -> 'a t -> int -> [ `Ok of 'a | `Interrupted | `Timeout ]
  val try_recv : 'a t -> 'a option
  val length : 'a t -> int
end
