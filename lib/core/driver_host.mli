(** Driver lifecycle management (paper §4.1): start an untrusted driver
    process for a device, kill it like any other process, restart it.

    {!launch} performs the whole §4.1 sequence for any device class:
    find the matching PCI device in sysfs, chown its sud files to the
    driver's UID, spawn the driver process, open the device, set up the
    shared buffer pool and uchan, start the kernel-side proxy and the
    SUD-UML dispatch loop, and wait for the driver to register with its
    class subsystem.

    Must be called from a fiber. *)

type started

val proc : started -> Process.t
val netdev : started -> Netdev.t
val grant : started -> Safe_pci.grant
val chan : started -> Uchan.t
val proxy : started -> Proxy_net.t

val class_of : started -> Proxy_class.instance
(** The proxy behind the class-independent supervision surface — what
    the supervisor holds instead of a [Proxy_net.t]. *)

val uml : started -> Sud_uml.t
val bdf : started -> Bus.bdf

val queues : started -> int
(** Ring pairs on this driver's uchan. *)

val quota : started -> Quota.t option
val epoch : started -> int
(** The uchan generation stamp this instance marshals into (and demands
    of) every message header. *)

val kill : started -> unit
(** kill -9: the process dies, the grant is revoked, the uchan closes,
    the netdev disappears. *)

val restart :
  Kernel.t -> Safe_pci.t -> started -> Driver_api.net_driver -> (started, string) result
(** Kill (if still alive) and start a fresh driver process for the same
    device — the paper's crash-recovery story. *)

val set_memory_limit : started -> bytes:int -> unit
(** setrlimit on the driver process. *)

(** {1 Other device classes} *)

type started_wifi

val wifi_proxy : started_wifi -> Proxy_wifi.t
val wifi_netdev : started_wifi -> Netdev.t
val wifi_proc : started_wifi -> Process.t
val kill_wifi : started_wifi -> unit

type started_audio

val audio_proxy : started_audio -> Proxy_audio.t
val audio_proc : started_audio -> Process.t
val kill_audio : started_audio -> unit

type started_usb

val usb_proxy : started_usb -> Proxy_usb.t
val usb_proc : started_usb -> Process.t
val kill_usb : started_usb -> unit

(** {1 sud-blk: asynchronous multiqueue block} *)

type started_blk

val blk_proc : started_blk -> Process.t
val blk_chan : started_blk -> Uchan.t
val blk_grant : started_blk -> Safe_pci.grant
val blk_proxy : started_blk -> Proxy_blk.t
val blk_class : started_blk -> Proxy_class.instance
val blk_uml : started_blk -> Sud_uml.t
val blk_bdf : started_blk -> Bus.bdf
val blk_blkdev : started_blk -> Blkdev.t
val blk_queues : started_blk -> int
val blk_quota : started_blk -> Quota.t option
val blk_epoch : started_blk -> int
val kill_blk : started_blk -> unit

(** {1 The class-indexed lifecycle API}

    One entry point over every device class.  The GADT index carries
    both the driver type a class consumes and the handle it produces,
    so [launch k sp (net ()) e1000] and [launch k sp (blk ()) nvme]
    type-check against the right driver and yield the right handle —
    net/blk/usb/wifi/audio share one spelling and one option surface. *)

type (_, _) cls =
  | Net : {
      defensive_copy : bool;
      adopt_netdev : Netdev.t option;
      unregister_on_exit : bool option;
    }
      -> (Driver_api.net_driver, started) cls
  | Blk : {
      adopt : Proxy_blk.persist option;
      request_timeout_ns : int option;
    }
      -> (Driver_api.blk_driver, started_blk) cls
  | Wifi : (Driver_api.wifi_driver, started_wifi) cls
  | Audio : (Driver_api.audio_driver, started_audio) cls
  | Usb : {
      bind_storage : Driver_api.usb_dev_handle -> (Driver_api.block_instance, string) result;
      bind_keyboard :
        Driver_api.env -> Driver_api.usb_dev_handle -> Driver_api.input_callbacks -> unit;
    }
      -> (Driver_api.usb_host_driver, started_usb) cls

val net :
  ?defensive_copy:bool ->
  ?adopt_netdev:Netdev.t ->
  ?unregister_on_exit:bool ->
  unit ->
  (Driver_api.net_driver, started) cls
(** Class witness for Ethernet.  [defensive_copy] (default on) is the
    §3.1.2 copy of every received frame out of shared memory; [false]
    reproduces the TOCTOU-vulnerable configuration.  The
    supervisor passes [adopt_netdev] (reuse a surviving netdev instead
    of registering a new one) and [unregister_on_exit:false] (it owns
    the netdev's lifecycle; process death must not tear the interface
    down). *)

val blk :
  ?adopt:Proxy_blk.persist ->
  ?request_timeout_ns:int ->
  unit ->
  (Driver_api.blk_driver, started_blk) cls
(** Class witness for sud-blk: the full net-style sequence with a shared
    pool sized for fully merged 64-sector requests, waiting for the
    driver to register its block device.  The supervisor passes [adopt]
    (the {!Proxy_blk.persist} record carrying tags, in-flight table and
    unflushed retention across generations) so recovery can replay;
    [request_timeout_ns] is {!Proxy_blk.create}'s hung-request
    deadline. *)

val wifi : (Driver_api.wifi_driver, started_wifi) cls
val audio : (Driver_api.audio_driver, started_audio) cls

val usb :
  bind_storage:(Driver_api.usb_dev_handle -> (Driver_api.block_instance, string) result) ->
  bind_keyboard:
    (Driver_api.env -> Driver_api.usb_dev_handle -> Driver_api.input_callbacks -> unit) ->
  (Driver_api.usb_host_driver, started_usb) cls
(** The USB host proxy: block and input surfaces appear as the driver
    process enumerates its bus; use {!Proxy_usb.wait_block}. *)

val launch :
  Kernel.t ->
  Safe_pci.t ->
  ?uid:int ->
  ?name:string ->
  ?bdf:Bus.bdf ->
  ?hang_timeout_ns:int ->
  ?queues:int ->
  ?quota:Quota.t ->
  ?epoch:int ->
  ('d, 'r) cls ->
  'd ->
  ('r, string) result
(** Start an untrusted driver of any class.  Defaults: [uid] 1000,
    [name] the driver's name, device the first sysfs entry its ID table
    matches.  The remaining options are meaningful only for the
    quota-negotiated net and blk datapaths; the lighter classes ignore
    them:

    - [hang_timeout_ns] tunes the uchan's sync-upcall deadline.
    - [queues] is the number of uchan ring pairs (default: the device's
      MSI-X table size, capped at {!Uchan.max_queues}) — the datapath
      width the driver sees through [pd_msix_vectors].
    - With [quota], the driver's whole footprint is charged to the
      ledger: the device grant and its DMA mappings (via
      {!Safe_pci.open_device}), the uchan ring memory (the queue count
      is first {e negotiated} down until the footprint fits the
      remaining budget), and every driver-side notification kick draws a
      token ({!Quota.note_notify}).
    - [epoch] (default 0) is the uchan generation stamp: the channel
      stamps it into every outgoing header and its conformance validator
      rejects ingress frames carrying any other — {!restart} starts the
      replacement at [epoch + 1], so frames replayed from a dead
      generation adjudicate as stale. *)

(** {1 Warm-standby generations}

    A [warm] generation is pre-forked and parked before attach: the
    process is spawned and its epoch-stamped uchan rings are allocated
    and charged to the same per-driver {!Quota.t} ledger as the live
    generation.  The device grant is exclusive per BDF {e and opening
    it resets the device}, so everything device-facing — grant, DMA
    pool, proxy, driver init — waits for [activate_*], which the
    supervisor calls at swap time: the dead generation's kill has
    released the grant and the FLR has left the device in exactly the
    quiesced state a fresh driver expects to initialize against. *)

type warm

val prefork :
  Kernel.t ->
  Safe_pci.t ->
  ?uid:int ->
  ?hang_timeout_ns:int ->
  ?queues:int ->
  ?quota:Quota.t ->
  ?epoch:int ->
  name:string ->
  bdf:Bus.bdf ->
  unit ->
  (warm, string) result
(** Spawn and park a standby generation.  [queues] (default 1) should
    be the live generation's negotiated width — without a grant the
    standby cannot size itself from the MSI-X table. *)

val warm_proc : warm -> Process.t
val warm_chan : warm -> Uchan.t
val warm_epoch : warm -> int
val warm_queues : warm -> int

val discard_warm : warm -> unit
(** Kill the parked process; its exit hooks release the ring charge. *)

val activate_net :
  warm ->
  ?defensive_copy:bool ->
  ?unregister_on_exit:bool ->
  adopt:Netdev.t ->
  Driver_api.net_driver ->
  (started, string) result
(** Finish a parked generation against the freshly reset device: open
    the grant, build the DMA pool, create the proxy {e parked} (the
    driver's registration is recorded, not applied), serve the driver,
    and wait for it to register.  On success the caller swaps the proxy
    in with {!Proxy_class.adopt} and replays via [resume]; on error the
    standby process has been killed (its grant released), so a cold
    start can follow.  [unregister_on_exit] defaults to [false]: a
    standby exists only under a supervisor, which owns the netdev. *)

val activate_blk :
  warm ->
  ?request_timeout_ns:int ->
  adopt:Proxy_blk.persist ->
  Driver_api.blk_driver ->
  (started_blk, string) result
(** Blk counterpart of {!activate_net}: the parked proxy shares (but
    does not touch) the surviving persist record until adopted. *)
