(** Driver lifecycle management (paper §4.1): start an untrusted driver
    process for a device and kill it like any other process.

    {!launch} performs the whole §4.1 sequence for any device class, in
    four steps written once:

    - {e spawn}: find the matching PCI device in sysfs, chown its sud
      files to the driver's UID, spawn the driver process;
    - {e open}: open the device and map the shared buffer pool;
    - {e rings}: negotiate the uchan ring pairs against the quota, charge
      them, and create the channel;
    - {e finish} (per class): start the kernel-side proxy and the
      SUD-UML dispatch loop, and wait for the driver to register with
      its class subsystem.

    Restarting is the administrator's kill followed by another
    [launch] (at [epoch + 1]), or the {!Supervisor}'s job.  A warm
    standby ({!prefork}/{!activate_net}/{!activate_blk}) runs the same
    steps split in two.

    Must be called from a fiber. *)

type ('p, 'd) gen
(** One driver generation: the process, its channel and device grant,
    plus the class part — the class's proxy ['p] and the kernel-facing
    device ['d] it registered. *)

type net = (Proxy_net.t, Netdev.t) gen
type blk = (Proxy_blk.t, Blkdev.t) gen
type wifi = (Proxy_wifi.t, Netdev.t) gen
type audio = (Proxy_audio.t, unit) gen
type usb = (Proxy_usb.t, unit) gen

val proc : (_, _) gen -> Process.t
val chan : (_, _) gen -> Uchan.t
val grant : (_, _) gen -> Safe_pci.grant

val class_of : (_, _) gen -> Proxy_class.instance
(** The proxy behind the class-independent supervision surface. *)

val uml : (_, _) gen -> Sud_uml.t

val queues : (_, _) gen -> int
(** Ring pairs on this driver's uchan. *)

val epoch : (_, _) gen -> int
(** The uchan generation stamp this instance marshals into (and demands
    of) every message header. *)

val proxy : ('p, _) gen -> 'p

val netdev : (_, Netdev.t) gen -> Netdev.t
(** The network device a net or wifi driver registered (or adopted). *)

val blkdev : (_, Blkdev.t) gen -> Blkdev.t

val kill : (_, _) gen -> unit
(** kill -9: the process dies, the grant is revoked, the uchan closes,
    and the class's exit hook runs (an unsupervised netdev disappears;
    a blkdev detaches and parks new requests). *)

val set_memory_limit : (_, _) gen -> bytes:int -> unit
(** setrlimit on the driver process. *)

(** {1 The class-indexed lifecycle API}

    One entry point over every device class.  The GADT index carries
    both the driver type a class consumes and the generation it
    produces, so [launch k sp (net ()) e1000] and [launch k sp (blk ())
    nvme] type-check against the right driver and yield the right
    generation — net/blk/usb/wifi/audio share one spelling and one
    option surface. *)

type (_, _) cls =
  | Net : {
      defensive_copy : bool;
      adopt_netdev : Netdev.t option;
      unregister_on_exit : bool option;
    }
      -> (Driver_api.net_driver, net) cls
  | Blk : {
      adopt : Proxy_blk.persist option;
      request_timeout_ns : int option;
    }
      -> (Driver_api.blk_driver, blk) cls
  | Wifi : (Driver_api.wifi_driver, wifi) cls
  | Audio : (Driver_api.audio_driver, audio) cls
  | Usb : {
      bind_storage : Driver_api.usb_dev_handle -> (Driver_api.block_instance, string) result;
      bind_keyboard :
        Driver_api.env -> Driver_api.usb_dev_handle -> Driver_api.input_callbacks -> unit;
    }
      -> (Driver_api.usb_host_driver, usb) cls

val net :
  ?defensive_copy:bool ->
  ?adopt_netdev:Netdev.t ->
  ?unregister_on_exit:bool ->
  unit ->
  (Driver_api.net_driver, net) cls
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
  (Driver_api.blk_driver, blk) cls
(** Class witness for sud-blk: a shared pool sized for fully merged
    64-sector requests, waiting for the driver to register its block
    device.  The supervisor passes [adopt] (the {!Proxy_blk.persist}
    record carrying tags, in-flight table and unflushed retention across
    generations) so recovery can replay; [request_timeout_ns] is
    {!Proxy_blk.create}'s hung-request deadline. *)

val wifi : (Driver_api.wifi_driver, wifi) cls
val audio : (Driver_api.audio_driver, audio) cls

val usb :
  bind_storage:(Driver_api.usb_dev_handle -> (Driver_api.block_instance, string) result) ->
  bind_keyboard:
    (Driver_api.env -> Driver_api.usb_dev_handle -> Driver_api.input_callbacks -> unit) ->
  (Driver_api.usb_host_driver, usb) cls
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
(** Start an untrusted driver of any class: spawn, open, rings, finish.
    Defaults: [uid] 1000, [name] the driver's name, device the first
    sysfs entry its ID table matches.  Every class honours the rest:

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
      rejects ingress frames carrying any other — relaunch a killed
      driver at [epoch + 1] so frames replayed from the dead generation
      adjudicate as stale. *)

(** {1 Warm-standby generations}

    A [warm] generation has run spawn and rings only: the process is
    spawned and its epoch-stamped uchan rings are allocated and charged
    to the same per-driver {!Quota.t} ledger as the live generation.
    The device grant is exclusive per BDF {e and opening it resets the
    device}, so open and finish wait for [activate_*], which the
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

val discard_warm : warm -> unit
(** Kill the parked process; its exit hooks release the ring charge. *)

val activate_net :
  warm ->
  ?defensive_copy:bool ->
  ?unregister_on_exit:bool ->
  adopt:Netdev.t ->
  Driver_api.net_driver ->
  (net, string) result
(** Open and finish a parked generation against the freshly reset
    device, with the proxy created {e parked} (the driver's registration
    is recorded, not applied).  On success the caller swaps the proxy in
    with {!Proxy_class.adopt} and replays via [resume]; on error the
    standby process has been killed (its grant released), so a cold
    start can follow.  [unregister_on_exit] defaults to [false]: a
    standby exists only under a supervisor, which owns the netdev. *)

val activate_blk :
  warm ->
  ?request_timeout_ns:int ->
  adopt:Proxy_blk.persist ->
  Driver_api.blk_driver ->
  (blk, string) result
(** Blk counterpart of {!activate_net}: the parked proxy shares (but
    does not touch) the surviving persist record until adopted. *)
