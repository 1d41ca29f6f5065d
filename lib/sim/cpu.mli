(** A pool of CPU cores with busy-time accounting.

    {!consume} charges CPU time to the calling fiber: the fiber occupies the
    earliest-free core and waits until the work completes, so CPU
    contention naturally delays other consumers.  Busy time is accumulated
    globally and per label, which is how the benchmarks report the "CPU %"
    column of Figure 8. *)

type t

val create : Engine.t -> cores:int -> Cost_model.t -> t

val cores : t -> int
val cost_model : t -> Cost_model.t
val engine : t -> Engine.t

val consume : t -> label:string -> int -> unit
(** Charge [ns] of CPU to [label]; the current fiber does not continue
    until the work is done (including any queueing delay for a free
    core).  The wait is a {!Fiber.sleep}, so when nothing else can run
    before the work ends it returns without suspending, the clock moved
    on in place.  Zero or negative cost is a no-op.  Not
    interruptible. *)

val account : t -> label:string -> int -> unit
(** Record busy time without blocking — for costs incurred by pure event
    callbacks (e.g. device-side processing) that should still count against
    utilization. *)

val busy_ns : t -> int
(** Total busy nanoseconds across all cores since creation. *)

val busy_of : t -> string -> int
(** Busy nanoseconds charged to one label. *)

val labels : t -> (string * int) list
(** All labels with their busy time, sorted by label. *)

val utilization : t -> since_busy:int -> since_time:int -> float
(** Fraction of total core capacity used over the window starting at
    simulated time [since_time] with busy snapshot [since_busy]:
    [(busy_ns t - since_busy) / (cores * (now - since_time))]. *)
