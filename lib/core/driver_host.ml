(* The §4.1 driver lifecycle, written once as four steps:

   - spawn: chown the device's sud files and spawn the driver process;
   - open: open the device and map the shared buffer pool;
   - rings: negotiate and charge the uchan rings, create the channel;
   - finish (per class): start the proxy and the SUD-UML dispatch loop,
     and wait for the driver to register.

   A cold start runs all four in that order.  A warm standby runs spawn
   and rings at prefork time and open and finish at activation: it
   cannot open the device while the live generation holds its grant, so
   it sizes its rings before it has one. *)

let ( let* ) = Result.bind

(* A generation before its device is opened: what spawn and rings set up. *)
type warm = {
  k : Kernel.t;
  sp : Safe_pci.t;
  bdf : Bus.bdf;
  name : string;
  proc : Process.t;
  chan : Uchan.t;
  queues : int;
  quota : Quota.t option;
  epoch : int;
}

type ('p, 'd) gen = {
  base : warm;
  grant : Safe_pci.grant;
  inst : Proxy_class.instance;
  uml : Sud_uml.t;
  proxy : 'p;
  dev : 'd;
}

type net = (Proxy_net.t, Netdev.t) gen
type blk = (Proxy_blk.t, Blkdev.t) gen
type wifi = (Proxy_wifi.t, Netdev.t) gen
type audio = (Proxy_audio.t, unit) gen
type usb = (Proxy_usb.t, unit) gen

let proc g = g.base.proc
let chan g = g.base.chan
let grant g = g.grant
let class_of g = g.inst
let uml g = g.uml
let queues g = g.base.queues
let epoch g = g.base.epoch
let proxy g = g.proxy
let netdev g = g.dev
let blkdev g = g.dev
let kill g = Process.kill g.base.proc
let set_memory_limit g ~bytes = Process.setrlimit_memory g.base.proc ~bytes:(Some bytes)

(* A step failing after spawn kills the process; its exit hooks undo
   whatever the earlier steps charged. *)
let or_kill proc what = function
  | Ok v -> Ok v
  | Error e ->
    Process.kill proc;
    Error (what ^ e)

let trace ~name ~attrs =
  if Sud_obs.Trace.on () then
    ignore
      (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"driver" ~name ~attrs ())

let spawn k sp ~span ~attrs ~uid ~name ~bdf =
  trace ~name:span ~attrs:(("driver", name) :: ("bdf", Bus.string_of_bdf bdf) :: attrs);
  Safe_pci.register_device sp bdf;
  Safe_pci.set_owner sp bdf ~uid;
  Process.spawn k.Kernel.procs ~name ~uid

(* Shared pool geometry, [(buffers, buffer size)]. *)
let net_pool = (128, 2048)

(* Block buffers must hold a fully merged request (64 sectors); fewer,
   bigger buffers than the net pool. *)
let blk_pool = (64, 32768)

let open_device sp ?quota ~bdf ~proc (count, buf_size) =
  let* grant = or_kill proc "open device: " (Safe_pci.open_device sp ?quota bdf ~proc) in
  let* region =
    or_kill proc "shared pool: "
      (Safe_pci.alloc_dma grant ~bytes:(Bufpool.region_size ~count ~buf_size) ())
  in
  let pool =
    Bufpool.create
      ~blit_out:region.Driver_api.dma_blit_out ~blit_in:region.Driver_api.dma_blit_in
      ~base_addr:region.Driver_api.dma_addr ~count ~buf_size
  in
  Ok (grant, pool)

(* Quota negotiation: clamp the queue count until the ring footprint fits
   the driver's uchan budget, then charge exactly the negotiated
   footprint (released again on driver exit, so the next generation
   re-charges from a clean ledger). *)
let rings k ?hang_timeout_ns ?quota ~epoch ~name ~proc queues =
  let slots = 256 in
  let queues = max 1 (min queues Uchan.max_queues) in
  let queues, ring_charge =
    match quota with
    | None -> queues, 0
    | Some q ->
      let queues = Quota.negotiate_queues q ~slots ~queues in
      queues, Quota.ring_bytes ~slots ~queues
  in
  let* () =
    or_kill proc "uchan rings: "
      (match quota with Some q -> Quota.charge_uchan q ~bytes:ring_charge | None -> Ok ())
  in
  let chan =
    Uchan.create k ?hang_timeout_ns ~slots ~queues ~epoch
      ~profile:Proxy_proto.conformance_profile ~driver_label:name ()
  in
  (match quota with
   | None -> ()
   | Some q ->
     Uchan.set_notify_hook chan (Some (fun ~queue -> Quota.note_notify q ~queue));
     Process.on_exit proc (fun () -> Quota.release_uchan q ~bytes:ring_charge));
  Process.on_exit proc (fun () ->
      trace ~name:"exit" ~attrs:[ "driver", name ];
      Uchan.close chan);
  Ok (chan, queues)

let ready_ns = 100_000_000

(* The class-independent tail of finish, run once the class's proxy
   exists: the dispatch loop, the class's exit hook, and the wait for
   the driver's registration ([ready] yields the kernel-facing device). *)
let finish w (grant, pool) proxy inst ~on_exit ~serve ~ready ~failed =
  let uml = Sud_uml.create w.k ~proc:w.proc ~grant ~chan:w.chan ~pool in
  Process.on_exit w.proc on_exit;
  ignore (Process.spawn_fiber w.proc ~name:(w.name ^ "-main") (fun () -> serve uml) : Fiber.t);
  match ready () with
  | None ->
    Process.kill w.proc;
    Error failed
  | Some dev -> Ok { base = w; grant; inst; uml; proxy; dev }

(* A parked proxy (warm activation) records the registration instead of
   applying it, so its device is the adopted one. *)
let finish_net ~parked ?adopt ~defensive_copy ~unregister_on_exit drv w (grant, pool) =
  let proxy =
    Proxy_net.create w.k ~chan:w.chan ~grant ~pool ~name:w.name ~defensive_copy ~parked ?adopt ()
  in
  finish w (grant, pool) proxy (Proxy_net.instance proxy)
    ~on_exit:(fun () ->
        (* A supervised device keeps its netdev across driver deaths;
           the supervisor owns (un)registration in that case. *)
        if unregister_on_exit then Proxy_net.unregister proxy)
    ~serve:(fun uml -> Sud_uml.serve_net uml drv)
    ~ready:(fun () ->
        if not parked then Proxy_net.wait_ready proxy ~timeout_ns:ready_ns
        else if Proxy_net.wait_registered proxy ~timeout_ns:ready_ns then adopt
        else None)
    ~failed:"driver did not register a network device"

let finish_blk ~parked ?adopt ?request_timeout_ns drv w (grant, pool) =
  let proxy =
    Proxy_blk.create w.k ~chan:w.chan ~grant ~pool ~name:w.name ?request_timeout_ns ~parked
      ?adopt ()
  in
  finish w (grant, pool) proxy (Proxy_blk.instance proxy)
    ~on_exit:(fun () ->
        (* The blkdev (cache, staging, retention in the persist record)
           survives the driver's death; new requests park in staging
           until a fresh generation resumes. *)
        Proxy_blk.quiesce proxy)
    ~serve:(fun uml -> Sud_uml.serve_blk uml drv)
    ~ready:(fun () ->
        if not parked then Proxy_blk.wait_ready proxy ~timeout_ns:ready_ns
        else if Proxy_blk.wait_registered proxy ~timeout_ns:ready_ns then
          Option.bind adopt Proxy_blk.persist_blkdev
        else None)
    ~failed:"driver did not register a block device"

let finish_wifi drv w (grant, pool) =
  let proxy = Proxy_wifi.create w.k ~chan:w.chan ~grant ~pool ~name:w.name () in
  finish w (grant, pool) proxy (Proxy_wifi.instance proxy)
    ~on_exit:(fun () -> Proxy_net.unregister (Proxy_wifi.net proxy))
    ~serve:(fun uml -> Sud_uml.serve_wifi uml drv)
    ~ready:(fun () -> Proxy_wifi.wait_ready proxy ~timeout_ns:ready_ns)
    ~failed:"wifi driver did not register"

let finish_audio drv w (grant, pool) =
  let proxy = Proxy_audio.create w.k ~chan:w.chan ~grant ~pool ~name:w.name () in
  finish w (grant, pool) proxy (Proxy_audio.instance proxy) ~on_exit:ignore
    ~serve:(fun uml -> Sud_uml.serve_audio uml drv)
    ~ready:(fun () ->
        if Proxy_audio.wait_ready proxy ~timeout_ns:ready_ns then Some () else None)
    ~failed:"audio driver did not register"

(* USB surfaces appear as the driver enumerates its bus: nothing to wait for. *)
let finish_usb ~bind_storage ~bind_keyboard drv w (grant, pool) =
  let proxy = Proxy_usb.create w.k ~chan:w.chan ~grant ~pool ~name:w.name () in
  finish w (grant, pool) proxy (Proxy_usb.instance proxy) ~on_exit:ignore
    ~serve:(fun uml -> Sud_uml.serve_usb uml ~bind_storage ~bind_keyboard drv)
    ~ready:(fun () -> Some ())
    ~failed:"usb driver did not start"

(* ---- the class-indexed lifecycle API ---- *)

(* One entry point for every device class.  The GADT carries both the
   driver type the class consumes and the generation it produces, so
   [launch] is the only spelling callers need. *)
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

let net ?(defensive_copy = true) ?adopt_netdev ?unregister_on_exit () =
  Net { defensive_copy; adopt_netdev; unregister_on_exit }

let blk ?adopt ?request_timeout_ns () = Blk { adopt; request_timeout_ns }
let wifi = Wifi
let audio = Audio
let usb ~bind_storage ~bind_keyboard = Usb { bind_storage; bind_keyboard }

let launch : type d r.
  Kernel.t -> Safe_pci.t -> ?uid:int -> ?name:string -> ?bdf:Bus.bdf ->
  ?hang_timeout_ns:int -> ?queues:int -> ?quota:Quota.t -> ?epoch:int ->
  (d, r) cls -> d -> (r, string) result =
  fun k sp ?(uid = 1000) ?name ?bdf ?hang_timeout_ns ?queues ?quota ?(epoch = 0) cls drv ->
  (* A cold start: spawn, open, rings, then the class's finish.  Every
     class resolves its process name and device the same way: the
     driver's own name, and the first sysfs device its ID table
     matches. *)
  let cold class_name drv_name ids pool finish =
    let name = Option.value ~default:drv_name name in
    let* bdf =
      match bdf with
      | Some b -> Ok b
      | None ->
        (match Sysfs.match_ids k.Kernel.sysfs ~ids with
         | [] -> Error ("no matching PCI device in sysfs for " ^ name)
         | e :: _ -> Ok e.Sysfs.bdf)
    in
    let proc = spawn k sp ~span:"start" ~attrs:[ "class", class_name ] ~uid ~name ~bdf in
    let* grant, pool = open_device sp ?quota ~bdf ~proc pool in
    (* One uchan ring pair per deliverable vector: the device's MSI-X
       table sizes the datapath unless the caller narrows it. *)
    let queues = Option.value queues ~default:(Safe_pci.msix_vectors grant) in
    let* chan, queues = rings k ?hang_timeout_ns ?quota ~epoch ~name ~proc queues in
    finish { k; sp; bdf; name; proc; chan; queues; quota; epoch } (grant, pool)
  in
  match cls with
  | Net { defensive_copy; adopt_netdev; unregister_on_exit } ->
    cold "net" drv.Driver_api.nd_name drv.Driver_api.nd_ids net_pool
      (finish_net ~parked:false ?adopt:adopt_netdev ~defensive_copy
         ~unregister_on_exit:(Option.value ~default:true unregister_on_exit)
         drv)
  | Blk { adopt; request_timeout_ns } ->
    cold "blk" drv.Driver_api.bd_name drv.Driver_api.bd_ids blk_pool
      (finish_blk ~parked:false ?adopt ?request_timeout_ns drv)
  | Wifi -> cold "wifi" drv.Driver_api.wd_name drv.Driver_api.wd_ids net_pool (finish_wifi drv)
  | Audio ->
    cold "audio" drv.Driver_api.ad_name drv.Driver_api.ad_ids net_pool (finish_audio drv)
  | Usb { bind_storage; bind_keyboard } ->
    cold "usb" drv.Driver_api.ud_name drv.Driver_api.ud_ids net_pool
      (finish_usb ~bind_storage ~bind_keyboard drv)

(* ---- warm-standby generations ---- *)

let prefork k sp ?(uid = 1000) ?hang_timeout_ns ?(queues = 1) ?quota ?(epoch = 0) ~name
    ~bdf () =
  let proc = spawn k sp ~span:"prefork" ~attrs:[] ~uid ~name ~bdf in
  let* chan, queues = rings k ?hang_timeout_ns ?quota ~epoch ~name ~proc queues in
  Ok { k; sp; bdf; name; proc; chan; queues; quota; epoch }

let warm_proc w = w.proc
let warm_chan w = w.chan
let discard_warm w = Process.kill w.proc

let activate w pool finish =
  trace ~name:"activate" ~attrs:[ "driver", w.name; "bdf", Bus.string_of_bdf w.bdf ];
  let* opened = open_device w.sp ?quota:w.quota ~bdf:w.bdf ~proc:w.proc pool in
  finish w opened

let activate_net w ?(defensive_copy = true) ?(unregister_on_exit = false) ~adopt drv =
  activate w net_pool
    (finish_net ~parked:true ~adopt ~defensive_copy ~unregister_on_exit drv)

let activate_blk w ?request_timeout_ns ~adopt drv =
  match Proxy_blk.persist_blkdev adopt with
  | None ->
    Process.kill w.proc;
    Error "no surviving block device to adopt"
  | Some _ -> activate w blk_pool (finish_blk ~parked:true ~adopt ?request_timeout_ns drv)
