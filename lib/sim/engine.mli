(** Deterministic discrete-event engine.

    All simulated activity — fibers, hardware, timers — is driven from a
    single ordered event queue.  Time is in nanoseconds of simulated time.
    Events scheduled for the same instant fire in scheduling order, which
    makes every run reproducible.

    The queue has two tiers.  Events due at the instant being executed
    sit in a FIFO ring: every delay-0 event, and each future instant as
    the clock reaches it.  Only events due later sit in a 4-ary heap
    keyed on [(time, seq)].  Both tiers hold slot numbers into one table
    of queued events.  Which events fire, and in what order, is the same
    as one queue ordered by [(time, seq)]. *)

type t

type handle
(** A scheduled event, cancellable until it fires.  The handle is the
    queued event itself, so scheduling allocates one record; its slot in
    the queue is reused once it fires or is reaped. *)

val create : ?seed:int64 -> unit -> t
(** Fresh engine at time 0.  [seed] initializes the engine's root RNG
    (default 1). *)

val now : t -> int
(** Current simulated time in nanoseconds. *)

val rng : t -> Rng.t
(** The engine's root random stream; split it for independent components. *)

val schedule_after : t -> int -> (unit -> unit) -> handle
(** [schedule_after t delay fn] runs [fn] at [now t + delay].
    Raises [Invalid_argument] on a negative delay. *)

val schedule_now : t -> (unit -> unit) -> handle
(** Run at the current instant, after already-queued events for this
    instant. *)

val cancel : handle -> unit
(** Cancelling an already-fired event is a no-op.  A cancelled event
    stays queued until the clock reaches it and is then dropped
    unfired.  Without a picker, reaching it still advances the clock to
    its time; with a picker installed it never moves the clock. *)

val run : ?max_time:int -> ?max_events:int -> t -> unit
(** Process events until the queue is empty, a limit is hit or an event
    calls {!halt}.  [max_time] stops the clock from advancing past the
    given instant (events at later times remain queued).  [max_events]
    bounds the growth of {!steps} during this call, so the two events
    each {!advance} accounts for count exactly like fired ones. *)

val advance : t -> int -> bool
(** [advance t delay] stands for a timer queued [delay] ns from now
    whose firing queues one same-instant event, when nothing else can
    fire before or between the two.  It applies only inside {!run}, when
    [delay > 0], the current instant has no other event queued, the
    earliest queued event (cancelled or not) is due strictly after
    [now + delay], [now + delay] is within [run]'s [max_time], [steps + 2]
    is within its [max_events] and the engine is not halted.  Then it
    takes the two events' sequence numbers, adds 2 to {!steps}, mixes
    both into {!trace_hash} as if fired, moves the clock to
    [now + delay] and returns [true]; otherwise it changes nothing and
    returns [false].  Each event would have been alone in its ready
    set, so no picker is consulted either way.  {!Fiber.sleep} uses it
    to skip a suspension nothing can interleave with. *)

val follow : t -> (unit -> unit) -> unit
(** [follow t fn] is [ignore (schedule_now t fn)] for the last act of a
    bare event — one fired by {!run}, not running inside a fiber — and
    fires [fn] in place when that is the same thing.  Inside {!run}, when
    the ring is empty, {!steps} is below the run's [max_events] limit and
    the engine is not halted, [fn] would be alone in the next ready set
    and fire next, with no picker or observer consulted.  Then [follow] takes the next sequence number, counts it
    in {!steps} and {!trace_hash} as if fired, and calls [fn] directly;
    otherwise it queues [fn].  It must be the event's last act: anything
    after it would run after [fn] in place but before it when queued.
    {!Fiber.sleep} and {!Sync.Waitq.wait_timeout} wake through it. *)

val advanced : t -> int
(** How many calls to {!advance} have succeeded on this engine. *)

val halt : t -> unit
(** Make the current {!run} return once the event calling it has
    finished, with the clock still at that event's instant.  One-shot:
    the next {!run} clears it on entry and resumes exactly where this
    one stopped, so a halted-then-resumed run fires the same events as
    an uninterrupted one. *)

val pending : t -> int
(** Events queued in either tier, cancelled ones included until they
    are reaped (when their instant is reached, or — with a picker — when
    they reach the head of the queue). *)

(** {1 Scheduler policy hooks}

    Events scheduled for the same instant form a {e ready set}; which of
    them fires next is the only scheduling freedom the simulator has, and
    every fiber preemption point (Sync/Waitq wakeups, uchan notify
    delivery, timer expiry) is mediated by exactly such a choice.  By
    default the engine picks the lowest sequence number — the historical
    FIFO order.  A picker installed with {!set_picker} chooses instead;
    {!Sched} wraps this into record/replay-able policies. *)

val set_picker : t -> (step:int -> ready:int -> int) option -> unit
(** [set_picker t (Some f)] routes every same-instant choice through
    [f ~step ~ready], which must return an index in [\[0, ready)] into the
    seq-ordered ready set (out-of-range picks clamp to 0 = FIFO).  [f] is
    only consulted when [ready > 1].  [None] restores the FIFO fast
    path. *)

val set_observer :
  t -> (step:int -> time:int -> ready:int -> pick:int -> unit) option -> unit
(** Decision tap: called at every choice point ([ready > 1]) with the
    engine step, simulated time, ready-set size and the picked index.
    Only consulted when a picker is installed. *)

val steps : t -> int
(** Events fired so far, counting the two each successful {!advance}
    stands for (cancelled events are reaped, not counted). *)

val trace_hash : t -> int64
(** Streaming fingerprint of the fired [(time, seq)] event stream.  Two
    runs have equal hashes iff they executed the same schedule; replay
    asserts bit-for-bit re-execution by comparing this. *)
