(** Seeded deterministic fault injection and the supervision soak harness.

    The security evaluation ({!Scenarios}) shows each attack contained
    once; this module shows the {!Supervisor} surviving {e hundreds} of
    faults in a row under live load, with the containment invariants
    checked at every driver death.  All randomness comes from an explicit
    seed, so a failing soak replays exactly.

    One harness serves both supervised device classes: one fault type
    and plan walker, one world runner, one supervised start per world,
    one durability oracle and one recovery probe.  What stays per class
    is what really differs: the world records, UDP traffic vs the
    crash-consistency workload, and each soak's report. *)

val poll : Engine.t -> every_ns:int -> budget:int -> (unit -> bool) -> bool
(** [poll eng ~every_ns ~budget pred] sleeps [every_ns] at a time until
    [pred ()] holds or [budget] sleeps are spent, and returns the last
    [pred ()].  [pred] is checked before every sleep, so a predicate
    that already holds costs no simulated time.  Must run in a fiber. *)

(** One injectable fault class, mapped onto the supervisor's detection
    signals.  Class-independent:

    - [Crash] — [kill -9] the driver process (exit-hook kick);
    - [Hang] — wedge the driver's main upcall loop ({!Uchan.wedge}); the
      heartbeat ping times out.

    Net ({!all_faults}):

    - [Corrupt_reply] — the next upcall reply slot is overwritten with
      garbage; the kernel worker counts it malformed;
    - [Drop_reply] — the next upcall reply evaporates; the sender hits
      the hang deadline;
    - [Dma_violation] — device-level DMA to an unmapped address; the
      IOMMU faults and attributes it to the device's BDF;
    - [Corrupt_batch] — one frame inside the driver's next multi-frame
      downcall batch is garbled in place; the kernel worker drops exactly
      that frame ([um_malformed_frames] ticks) and delivers its siblings.  The
      only fault class that must {e not} escalate to a restart.

    Storage ({!all_blk_faults}): the device-level classes arm one-shot
    hooks on the emulated NVMe.  None of them produce a direct detection
    signal, so all escalate through the proxy's per-request timeout into
    a full recovery.

    - [Corrupt_completion] — the device flips bits in the next CQE's
      command id;
    - [Drop_completion] — the next completion evaporates;
    - [Drop_flush] — the next flush neither persists nor acks;
    - [Crash_mid_barrier] — stalk an in-flight flush and kill the driver
      at that instant.

    [Dma_violation] and the three NVMe classes need a device hook
    ([?dma_violate] / [?nvme] of {!inject}); without it they are never
    applied. *)
type fault =
  | Crash
  | Hang
  | Corrupt_reply
  | Drop_reply
  | Dma_violation
  | Corrupt_batch
  | Corrupt_completion
  | Drop_completion
  | Drop_flush
  | Crash_mid_barrier

val all_faults : fault list
(** The six net classes, in plan-draw order. *)

val all_blk_faults : fault list
(** The six storage classes, in plan-draw order. *)

val fault_name : fault -> string

val lethal : fault -> bool
(** Whether this class ends in a driver death and restart.  [false] only
    for [Corrupt_batch], which is contained frame-by-frame — use it to
    filter classes before {!measure_recovery}, which needs a recovery to
    observe.  Every storage class is lethal. *)

(** {1 Plan DSL} *)

type injection = { at_ns : int; fault : fault }
type plan = injection list

val random_plan :
  seed:int64 -> duration_ns:int -> n:int -> ?faults:fault list -> unit -> plan
(** [n] injections at uniform times in [\[0, duration_ns)], classes drawn
    uniformly from [faults] (default {!all_faults}), sorted by time.
    Same seed, same plan. *)

type injector_stats = {
  mutable inj_applied : int;
  mutable inj_skipped : int;
  inj_by_class : (string, int) Hashtbl.t;
}

val inject :
  eng:Engine.t ->
  sv:Supervisor.t ->
  ?dma_violate:(unit -> unit) ->
  ?nvme:Nvme_dev.t ->
  fault ->
  bool
(** Apply one fault to the supervisor's current driver generation right
    now.  Returns [false] (not applied) when the supervisor is not
    [Running], the fault has no live target, or the class needs a
    device hook that was not given.  Must run in a fiber
    ([Crash_mid_barrier] sleeps while stalking a flush). *)

val run_plan :
  Kernel.t ->
  sv:Supervisor.t ->
  ?dma_violate:(unit -> unit) ->
  ?nvme:Nvme_dev.t ->
  plan ->
  injector_stats
(** Spawn an injector fiber that walks the plan, sleeping to each
    instant (relative to now) and waiting for the supervisor to return
    to [Running] so every fault lands on a live driver.  Returns the
    (live-updating) stats record immediately; a fault that {!inject}
    does not apply counts as skipped. *)

(** {1 Worlds, the runner and supervised starts}

    The worlds, traffic generator and containment-invariant checker the
    soaks run in, exported so other adversarial campaigns
    ({!Proto_fuzz}), [sudctl] and the benches run under identical
    conditions. *)

type world = {
  eng : Engine.t;
  k : Kernel.t;
  sp : Safe_pci.t;
  medium : Net_medium.t;
  nic : E1000_dev.t;
  bdf : Bus.bdf;
  wire : int ref;  (** frames observed on the medium *)
}

val make_world : unit -> world
(** A booted kernel, one emulated E1000 on a snooped medium, safe-PCI
    initialised. *)

type blk_world = {
  bw_eng : Engine.t;
  bw_k : Kernel.t;
  bw_sp : Safe_pci.t;
  bw_nvme : Nvme_dev.t;
  bw_bdf : Bus.bdf;
}

val make_blk_world : ?capacity:int -> unit -> blk_world
(** A booted kernel with one emulated NVMe ([capacity] in 512-byte
    sectors — the media is sparse, so large devices are free),
    safe-PCI initialised. *)

val secret : string
(** The canary written to a kernel page; containment means no driver
    death may ever have touched it. *)

val soak_policy : max_restarts:int -> Supervisor.policy
(** Fast supervision (1 ms tick, 10 ms hang timeout, sub-ms backoff) so
    multi-hundred-fault campaigns converge in bounded simulated time.
    Warm standby OFF: the soak, the fuzzer and the recovery benches
    measure the cold restart path. *)

val warm_policy : max_restarts:int -> Supervisor.policy
(** [soak_policy] with the warm standby enabled — lethal faults swap to
    the pre-forked generation instead of cold-starting. *)

type invariant_ctx

val install_invariants : world -> Supervisor.t -> secret_addr:int -> invariant_ctx
(** Hook the supervisor's event stream: at every driver death assert the
    kernel secret is intact, the dead generation's grant is revoked, its
    IOMMU domain detached, and no previously-mapped iova still answers
    from the IOTLB.  {!supervise} and {!supervise_blk} install it. *)

val invariant_violations : invariant_ctx -> string list
(** Failures recorded so far, oldest first; must be [[]]. *)

val invariant_deaths : invariant_ctx -> int

val honest_factory : attempt:int -> Driver_api.net_driver
(** The honest E1000 driver, every generation. *)

val honest_blk_factory : attempt:int -> Driver_api.blk_driver
(** The honest NVMe driver, every generation. *)

val supervise :
  scenario:string ->
  policy:Supervisor.policy ->
  world ->
  Supervisor.t * Netdev.t * invariant_ctx
(** The net world's supervised start: plant {!secret} in a kernel page,
    start {!honest_factory} under [policy], install the containment
    invariants and bring the netdev up.  Must run in a fiber; fails
    naming [scenario]. *)

val supervise_blk :
  scenario:string ->
  policy:Supervisor.policy ->
  blk_world ->
  Supervisor.t * Blkdev.t * invariant_ctx
(** The block world's supervised start: as {!supervise}, with
    {!honest_blk_factory}, returning the registered block device. *)

type traffic = {
  mutable tr_offered : int;
  mutable tr_sent : int;
  mutable tr_dropped : int;
  mutable tr_stop : bool;
}

val start_traffic : ?burst:int -> world -> Netdev.t -> gap_ns:int -> traffic
(** Continuous UDP broadcast traffic through the netdev ([burst] sends
    every [gap_ns], default burst 1); set [tr_stop] to end it. *)

val dma_violate : world -> unit -> unit
(** Device-level DMA to an address the driver never mapped — the IOMMU
    must fault and attribute it to the device's BDF. *)

(** {1 Seed plumbing and schedule capture}

    Every harness in this module defaults its seed to
    [Rng.derive ~root:default_root tag], so one printed root value
    reproduces every campaign; the soaks accept a {!Sched.spec} to run
    under an explored or replayed schedule and always report the run's
    schedule fingerprint.  Any invariant violation auto-dumps a
    replayable [traces/<scenario>_0x<seed>.sched.jsonl]. *)

val default_root : int64
(** Root of every derived default seed below. *)

val dseed : string -> int64
(** [dseed tag = Rng.derive ~root:default_root tag]. *)

type sched_summary = {
  ss_policy : string;  (** {!Sched.spec_label} of the run's policy *)
  ss_points : int;  (** same-instant choice points encountered *)
  ss_decisions : Sched.decision list;  (** recorded picks, execution order *)
  ss_steps : int;  (** engine events fired *)
  ss_trace_hash : int64;  (** {!Engine.trace_hash} at the end of the run *)
  ss_metrics_hash : int64;  (** {!Sud_obs.Metrics.snapshot_hash} ditto *)
  ss_divergence : string option;  (** strict-replay mismatch, if any *)
  ss_dump : string option;  (** schedule file written on violation *)
}

val run_recorded :
  scenario:string ->
  seed:int64 ->
  ?sched:Sched.spec ->
  max_ms:int ->
  Kernel.t ->
  (unit -> string list * (sched_summary -> 'a)) ->
  'a
(** {!Kernel.run_main} under [sched] (installed before [body] starts),
    with the run's fingerprint.  [body] returns its violations and a
    report builder; the fingerprint is taken where the runner halted, at
    the instant [body] returned, the schedule dumped to [traces/] if the
    violations are non-empty, and the builder applied to it.  [max_ms]
    is the runner's deadlock bound.  Shared with {!Proto_fuzz}. *)

(** {1 Soak} *)

type soak_report = {
  sr_seed : int64;
  sr_planned : int;
  sr_applied : int;
  sr_skipped : int;
  sr_by_class : (string * int) list;
  sr_detections : int;
  sr_restarts : int;
  sr_deaths : int;  (** [Driver_killed] events observed *)
  sr_state : Supervisor.state;  (** must be [Running] at the end *)
  sr_offered : int;  (** UDP packets the traffic fiber attempted *)
  sr_sent : int;
  sr_dropped : int;
  sr_wire_frames : int;  (** frames observed on the medium *)
  sr_backlog : Netdev.backlog_stats;
  sr_max_outage_ns : int;  (** worst detection → traffic-restored latency *)
  sr_malformed : int;
      (** malformed uchan slots plus corrupt batch frames dropped, summed
          across every driver generation (each generation has fresh
          counters) *)
  sr_corrupt_carried : int;
      (** injected reply and batch-frame corruptions some u2k slot
          actually carried ({!Uchan.corruptions_carried}), summed the
          same way *)
  sr_violations : string list;  (** invariant failures; must be [] *)
  sr_sched : sched_summary;
}

val uncounted_corruption : soak_report -> string option
(** The soak's malformed-count post-check: [Some violation] when a slot
    carried an injected corruption ([sr_corrupt_carried > 0]) yet no slot
    was counted malformed.  A corruption still pending when a later
    reply fault or the driver's death overtook it does not count. *)

val outage_bound_ns : int
(** Any single recovery outage above this is reported as a violation. *)

val soak :
  ?sched:Sched.spec ->
  ?seed:int64 ->
  ?n_faults:int ->
  ?duration_ms:int ->
  ?plan:plan ->
  unit ->
  soak_report
(** Run a supervised honest E1000 with continuous UDP traffic (bursts of
    4, so tx_free downcalls coalesce into multi-frame batch slots) while
    a seeded plan (default 200 faults over 4 s of simulated time) fires
    every fault class at it.  At every driver death the harness asserts:
    the kernel secret page is untouched, the dead generation's grant is
    revoked, the device's IOMMU domain is detached, and no previously
    mapped iova still answers from the IOTLB.  At the end: supervisor
    [Running], backlog accounting exact
    ([offered = queued + dropped + replayed]), every outage bounded, and
    — when any slot carried an injected corruption — at least one slot
    counted malformed over the run ({!uncounted_corruption}). *)

(** {1 Per-class recovery latency (bench)} *)

type recovery_sample = {
  rs_fault : string;
  rs_detect_ns : int;  (** last-healthy instant → detection *)
  rs_outage_ns : int;  (** detection → traffic restored *)
}

val measure_recovery : fault -> recovery_sample
(** Inject exactly one fault of the class into a freshly supervised
    driver under traffic and report the observed latencies. *)

val measure_warm_recovery : fault -> recovery_sample
(** {!measure_recovery} under {!warm_policy}: waits for the parked
    generation to be Ready before injecting, then requires the recovery
    to have taken the warm-swap path. *)

(** {1 Crash loop} *)

type quarantine_report = {
  qr_restarts : int;
  qr_quarantined : bool;
  qr_netdev_removed : bool;
  qr_sysfs_state : string;  (** the device's [sud_state] attribute *)
}

val crash_loop : ?max_restarts:int -> unit -> quarantine_report
(** Kill every fresh driver generation until the restart budget
    (default 3 per window) is exhausted: the supervisor must quarantine
    the device — netdev unregistered, sysfs state ["quarantined"]. *)

(** {1 sud-blk: storage faults and the crash-consistency soak}

    The block soak replaces "traffic keeps flowing" with a stronger
    oracle: {e no acknowledged write is ever lost, and no write is
    observable that was never acknowledged}.  A single synchronous
    workload fiber keeps a per-page [last_acked] ground truth; because
    {!Blkdev.write} blocks until the ack, the array is exact whenever
    the fiber runs, and media is compared against it immediately after
    every successful [fsync] — the one instant the durability contract
    pins everything down.  Every supervised restart forces such a
    check, so the invariant is asserted at every recovery. *)

type blk_soak_report = {
  bsr_seed : int64;
  bsr_planned : int;
  bsr_applied : int;
  bsr_skipped : int;
  bsr_by_class : (string * int) list;
  bsr_detections : int;
  bsr_restarts : int;
  bsr_deaths : int;
  bsr_state : Supervisor.state;  (** must be [Running] at the end *)
  bsr_writes : int;  (** acknowledged page writes *)
  bsr_reads : int;
  bsr_fsyncs : int;
  bsr_verifies : int;  (** full media-vs-last-acked sweeps performed *)
  bsr_io_errors : int;
  bsr_max_outage_ns : int;
  bsr_retained_end : int;  (** unflushed retention after the final fsync; must be 0 *)
  bsr_inflight_end : int;  (** in-flight requests after the final fsync; must be 0 *)
  bsr_by_reason : (string * int) list;
      (** supervisor detection reasons, most frequent first *)
  bsr_violations : string list;  (** must be [] *)
  bsr_sched : sched_summary;
}

val blk_soak :
  ?sched:Sched.spec ->
  ?seed:int64 ->
  ?n_faults:int ->
  ?duration_ms:int ->
  ?plan:plan ->
  unit ->
  blk_soak_report
(** Run a supervised honest NVMe driver under a continuous synchronous
    write/read/fsync workload while a seeded plan (default 200 storage
    faults over 6 s of simulated time, drawn from {!all_blk_faults})
    fires every class at it.  At
    every driver death the containment invariants hold; after every
    recovery and every periodic fsync, media equals the last
    acknowledged write for every page; at the end a final fsync must
    leave zero retained and zero in-flight requests. *)

val measure_blk_recovery : fault -> recovery_sample
(** Inject exactly one storage fault into a freshly supervised NVMe
    under workload and report the observed recovery latencies
    ([rs_fault] is prefixed ["blk_"]). *)

(** {1 Warm standby: upgrades, poison, and the interleaving soak}

    The upgrade soak's two own interleavings target the generation-swap
    machinery itself rather than the datapath, so they are not fault
    classes: a lethal fault racing the upgrade drain, and a poisoned
    standby (the parked generation killed while warm; it must be
    discarded and rebuilt, never swapped in).  Neither produces the
    fault-detection / [Driver_restarted] shape {!measure_blk_recovery}
    waits on. *)

val inject_standby_poison : sv:Supervisor.t -> bool
(** Kill the parked standby generation's process, if one is warm.
    Returns whether the poison was applied.  Detection happens at the
    supervisor's next probe (watchdog tick, [ensure], or the take at
    swap time) — never by installing the corpse. *)

type upgrade_soak_report = {
  usr_seed : int64;
  usr_interleavings : int;
  usr_upgrades : int;       (** live upgrades completed *)
  usr_warm_swaps : int;     (** recoveries served by the warm standby *)
  usr_cold_restarts : int;  (** recoveries that fell back to a cold start *)
  usr_poisoned : int;       (** standby slots discarded as poisoned *)
  usr_writes : int;
  usr_fsyncs : int;
  usr_verifies : int;
  usr_io_errors : int;
  usr_state : Supervisor.state;
  usr_violations : string list;  (** must be [] *)
  usr_sched : sched_summary;
}

val upgrade_soak :
  ?sched:Sched.spec -> ?seed:int64 -> ?interleavings:int -> unit -> upgrade_soak_report
(** Run a warm-standby supervised NVMe under the crash-consistency
    workload while a seeded schedule (default 20 interleavings)
    mixes live upgrades, administrative failovers, lethal faults with a
    warm slot, timeout-escalated device faults, poisoned standbys, and
    crashes racing the upgrade drain.  After every interleaving the
    supervisor must return to Running and media must equal the last
    acknowledged write for every page. *)

val measure_warm_blk_recovery : fault -> recovery_sample
(** {!measure_blk_recovery} with the warm standby enabled: waits for
    the parked generation to be Ready before injecting, then requires
    the recovery to have taken the warm-swap path (fails if it fell
    back to a cold start). *)
