type started = {
  s_k : Kernel.t;
  s_sp : Safe_pci.t;
  s_bdf : Bus.bdf;
  s_uid : int;
  s_name : string;
  s_defensive : bool;
  s_proc : Process.t;
  s_chan : Uchan.t;
  s_grant : Safe_pci.grant;
  s_proxy : Proxy_net.t;
  s_class : Proxy_class.instance;
  s_uml : Sud_uml.t;
  s_netdev : Netdev.t;
  s_queues : int;
  s_quota : Quota.t option;
  s_epoch : int;
}

let pool_bufs = 128
let pool_buf_size = 2048

let start_net_at k sp ?hang_timeout_ns ?queues ?adopt_netdev ?(unregister_on_exit = true)
    ?quota ?(epoch = 0) ~uid ~defensive_copy ~name ~bdf (drv : Driver_api.net_driver) =
  if Sud_obs.Trace.on () then
    ignore
      (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"driver" ~name:"start"
         ~attrs:[ "driver", name; "bdf", Bus.string_of_bdf bdf ] ());
  Safe_pci.register_device sp bdf;
  Safe_pci.set_owner sp bdf ~uid;
  let proc = Process.spawn k.Kernel.procs ~name ~uid in
  match Safe_pci.open_device sp ?quota bdf ~proc with
  | Error e ->
    Process.kill proc;
    Error ("open device: " ^ e)
  | Ok grant ->
    (match
       Safe_pci.alloc_dma grant
         ~bytes:(Bufpool.region_size ~count:pool_bufs ~buf_size:pool_buf_size)
         ()
     with
     | Error e ->
       Process.kill proc;
       Error ("shared pool: " ^ e)
     | Ok region ->
       let pool =
         Bufpool.create
           ~read:(fun ~off ~len -> region.Driver_api.dma_read ~off ~len)
           ~write:(fun ~off ~data -> region.Driver_api.dma_write ~off data)
           ~base_addr:region.Driver_api.dma_addr ~count:pool_bufs ~buf_size:pool_buf_size
       in
       (* One uchan ring pair per deliverable vector: the device's MSI-X
          table sizes the datapath unless the caller narrows it. *)
       let queues =
         match queues with
         | Some q -> max 1 (min q Uchan.max_queues)
         | None -> max 1 (min (Safe_pci.msix_vectors grant) Uchan.max_queues)
       in
       (* Quota negotiation: clamp the queue count until the ring
          footprint fits the driver's uchan budget, then charge exactly
          the negotiated footprint (released again on driver exit, so a
          restart generation re-charges from a clean ledger). *)
       let slots = 256 in
       let queues, ring_charge =
         match quota with
         | None -> queues, 0
         | Some q ->
           let queues = Quota.negotiate_queues q ~slots ~queues in
           queues, Quota.ring_bytes ~slots ~queues
       in
       (match
          match quota with
          | Some q -> Quota.charge_uchan q ~bytes:ring_charge
          | None -> Ok ()
        with
        | Error e ->
          Process.kill proc;
          Error ("uchan rings: " ^ e)
        | Ok () ->
       let chan =
         Uchan.create k ?hang_timeout_ns ~slots ~queues ~epoch
           ~profile:Proxy_proto.conformance_profile ~driver_label:name ()
       in
       (match quota with
        | None -> ()
        | Some q ->
          Uchan.set_notify_hook chan (Some (fun ~queue -> Quota.note_notify q ~queue));
          Process.on_exit proc (fun () -> Quota.release_uchan q ~bytes:ring_charge));
       let proxy =
         Proxy_net.create k ~chan ~grant ~pool ~name ~defensive_copy ?adopt:adopt_netdev ()
       in
       let uml = Sud_uml.create k ~proc ~grant ~chan ~pool in
       Process.on_exit proc (fun () ->
           if Sud_obs.Trace.on () then
             ignore
               (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"driver"
                  ~name:"exit" ~attrs:[ "driver", name ] ());
           Uchan.close chan;
           (* A supervised device keeps its netdev across driver deaths;
              the supervisor owns (un)registration in that case. *)
           if unregister_on_exit then Proxy_net.unregister proxy);
       ignore
         (Process.spawn_fiber proc ~name:(name ^ "-main") (fun () ->
              Sud_uml.serve_net uml drv)
          : Fiber.t);
       (match Proxy_net.wait_ready proxy ~timeout_ns:100_000_000 with
        | None ->
          Process.kill proc;
          Error "driver did not register a network device"
        | Some dev ->
          Ok
            { s_k = k;
              s_sp = sp;
              s_bdf = bdf;
              s_uid = uid;
              s_name = name;
              s_defensive = defensive_copy;
              s_proc = proc;
              s_chan = chan;
              s_grant = grant;
              s_proxy = proxy;
              s_class = Proxy_net.instance proxy;
              s_uml = uml;
              s_netdev = dev;
              s_queues = queues;
              s_quota = quota;
              s_epoch = epoch })))

let proc s = s.s_proc
let netdev s = s.s_netdev
let grant s = s.s_grant
let chan s = s.s_chan
let proxy s = s.s_proxy
let class_of s = s.s_class
let uml s = s.s_uml
let bdf s = s.s_bdf
let queues s = s.s_queues
let quota s = s.s_quota
let epoch s = s.s_epoch

let kill s = Process.kill s.s_proc

let restart k sp s drv =
  kill s;
  (* Let teardown events (fiber kills, device reset) settle at the current
     instant before re-opening the device. *)
  ignore (Fiber.sleep k.Kernel.eng 1_000 : Fiber.wake);
  (* The quota survives the restart; the epoch does not — the new
     generation's channel stamps (and accepts only) epoch+1, so frames
     replayed from the dead generation adjudicate as [Bad_epoch]. *)
  start_net_at k sp ~queues:s.s_queues ?quota:s.s_quota
    ~epoch:((s.s_epoch + 1) land Msg.max_epoch) ~uid:s.s_uid
    ~defensive_copy:s.s_defensive ~name:s.s_name ~bdf:s.s_bdf drv

let set_memory_limit s ~bytes = Process.setrlimit_memory s.s_proc ~bytes:(Some bytes)

(* ---- generic prelude shared by the lighter class starters ---- *)

let open_with_pool k sp ~uid ~name ~bdf =
  Safe_pci.register_device sp bdf;
  Safe_pci.set_owner sp bdf ~uid;
  let proc = Process.spawn k.Kernel.procs ~name ~uid in
  match Safe_pci.open_device sp bdf ~proc with
  | Error e ->
    Process.kill proc;
    Error ("open device: " ^ e)
  | Ok grant ->
    (match
       Safe_pci.alloc_dma grant
         ~bytes:(Bufpool.region_size ~count:pool_bufs ~buf_size:pool_buf_size)
         ()
     with
     | Error e ->
       Process.kill proc;
       Error ("shared pool: " ^ e)
     | Ok region ->
       let pool =
         Bufpool.create
           ~read:(fun ~off ~len -> region.Driver_api.dma_read ~off ~len)
           ~write:(fun ~off ~data -> region.Driver_api.dma_write ~off data)
           ~base_addr:region.Driver_api.dma_addr ~count:pool_bufs ~buf_size:pool_buf_size
       in
       let queues = max 1 (min (Safe_pci.msix_vectors grant) Uchan.max_queues) in
       let chan =
         Uchan.create k ~queues ~profile:Proxy_proto.conformance_profile
           ~driver_label:name ()
       in
       Ok (proc, grant, pool, chan))

type started_wifi = {
  w_proc : Process.t;
  w_proxy : Proxy_wifi.t;
  w_netdev : Netdev.t;
}

let start_wifi_at k sp ~uid ~name ~bdf (drv : Driver_api.wifi_driver) =
  match open_with_pool k sp ~uid ~name ~bdf with
  | Error e -> Error e
  | Ok (proc, grant, pool, chan) ->
    let proxy = Proxy_wifi.create k ~chan ~grant ~pool ~name () in
    let uml = Sud_uml.create k ~proc ~grant ~chan ~pool in
    Process.on_exit proc (fun () ->
        Uchan.close chan;
        Proxy_net.unregister (Proxy_wifi.net proxy));
    ignore
      (Process.spawn_fiber proc ~name:(name ^ "-main") (fun () -> Sud_uml.serve_wifi uml drv)
       : Fiber.t);
    (match Proxy_wifi.wait_ready proxy ~timeout_ns:100_000_000 with
     | None ->
       Process.kill proc;
       Error "wifi driver did not register"
     | Some dev -> Ok { w_proc = proc; w_proxy = proxy; w_netdev = dev })

let wifi_proxy s = s.w_proxy
let wifi_netdev s = s.w_netdev
let wifi_proc s = s.w_proc
let kill_wifi s = Process.kill s.w_proc

type started_audio = {
  a_proc : Process.t;
  a_proxy : Proxy_audio.t;
}

let start_audio_at k sp ~uid ~name ~bdf (drv : Driver_api.audio_driver) =
  match open_with_pool k sp ~uid ~name ~bdf with
  | Error e -> Error e
  | Ok (proc, grant, pool, chan) ->
    let proxy = Proxy_audio.create k ~chan ~grant ~pool ~name () in
    let uml = Sud_uml.create k ~proc ~grant ~chan ~pool in
    Process.on_exit proc (fun () -> Uchan.close chan);
    ignore
      (Process.spawn_fiber proc ~name:(name ^ "-main") (fun () -> Sud_uml.serve_audio uml drv)
       : Fiber.t);
    if Proxy_audio.wait_ready proxy ~timeout_ns:100_000_000 then
      Ok { a_proc = proc; a_proxy = proxy }
    else begin
      Process.kill proc;
      Error "audio driver did not register"
    end

let audio_proxy s = s.a_proxy
let audio_proc s = s.a_proc
let kill_audio s = Process.kill s.a_proc

type started_usb = {
  u_proc : Process.t;
  u_proxy : Proxy_usb.t;
}

let start_usb_at k sp ~uid ~name ~bdf ~bind_storage ~bind_keyboard
    (drv : Driver_api.usb_host_driver) =
  match open_with_pool k sp ~uid ~name ~bdf with
  | Error e -> Error e
  | Ok (proc, grant, pool, chan) ->
    let proxy = Proxy_usb.create k ~chan ~grant ~pool ~name () in
    let uml = Sud_uml.create k ~proc ~grant ~chan ~pool in
    Process.on_exit proc (fun () -> Uchan.close chan);
    ignore
      (Process.spawn_fiber proc ~name:(name ^ "-main") (fun () ->
           Sud_uml.serve_usb uml ~bind_storage ~bind_keyboard drv)
       : Fiber.t);
    Ok { u_proc = proc; u_proxy = proxy }

let usb_proxy s = s.u_proxy
let usb_proc s = s.u_proc
let kill_usb s = Process.kill s.u_proc

(* ---- sud-blk: asynchronous multiqueue block ---- *)

type started_blk = {
  b_k : Kernel.t;
  b_sp : Safe_pci.t;
  b_bdf : Bus.bdf;
  b_uid : int;
  b_name : string;
  b_proc : Process.t;
  b_chan : Uchan.t;
  b_grant : Safe_pci.grant;
  b_proxy : Proxy_blk.t;
  b_class : Proxy_class.instance;
  b_uml : Sud_uml.t;
  b_blkdev : Blkdev.t;
  b_queues : int;
  b_quota : Quota.t option;
  b_epoch : int;
}

(* Block buffers must hold a fully merged request (64 sectors); fewer,
   bigger buffers than the net pool. *)
let blk_pool_bufs = 64
let blk_pool_buf_size = 32768

let start_blk_at k sp ?hang_timeout_ns ?request_timeout_ns ?queues ?adopt ?quota
    ?(epoch = 0) ~uid ~name ~bdf (drv : Driver_api.blk_driver) =
  if Sud_obs.Trace.on () then
    ignore
      (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"driver" ~name:"start"
         ~attrs:[ "driver", name; "bdf", Bus.string_of_bdf bdf; "class", "blk" ] ());
  Safe_pci.register_device sp bdf;
  Safe_pci.set_owner sp bdf ~uid;
  let proc = Process.spawn k.Kernel.procs ~name ~uid in
  match Safe_pci.open_device sp ?quota bdf ~proc with
  | Error e ->
    Process.kill proc;
    Error ("open device: " ^ e)
  | Ok grant ->
    (match
       Safe_pci.alloc_dma grant
         ~bytes:(Bufpool.region_size ~count:blk_pool_bufs ~buf_size:blk_pool_buf_size)
         ()
     with
     | Error e ->
       Process.kill proc;
       Error ("shared pool: " ^ e)
     | Ok region ->
       let pool =
         Bufpool.create
           ~read:(fun ~off ~len -> region.Driver_api.dma_read ~off ~len)
           ~write:(fun ~off ~data -> region.Driver_api.dma_write ~off data)
           ~base_addr:region.Driver_api.dma_addr ~count:blk_pool_bufs
           ~buf_size:blk_pool_buf_size
       in
       let queues =
         match queues with
         | Some q -> max 1 (min q Uchan.max_queues)
         | None -> max 1 (min (Safe_pci.msix_vectors grant) Uchan.max_queues)
       in
       let slots = 256 in
       let queues, ring_charge =
         match quota with
         | None -> queues, 0
         | Some q ->
           let queues = Quota.negotiate_queues q ~slots ~queues in
           queues, Quota.ring_bytes ~slots ~queues
       in
       (match
          match quota with
          | Some q -> Quota.charge_uchan q ~bytes:ring_charge
          | None -> Ok ()
        with
        | Error e ->
          Process.kill proc;
          Error ("uchan rings: " ^ e)
        | Ok () ->
          let chan =
            Uchan.create k ?hang_timeout_ns ~slots ~queues ~epoch
              ~profile:Proxy_proto.conformance_profile ~driver_label:name ()
          in
          (match quota with
           | None -> ()
           | Some q ->
             Uchan.set_notify_hook chan (Some (fun ~queue -> Quota.note_notify q ~queue));
             Process.on_exit proc (fun () -> Quota.release_uchan q ~bytes:ring_charge));
          let proxy =
            Proxy_blk.create k ~chan ~grant ~pool ~name ?request_timeout_ns ?adopt ()
          in
          let uml = Sud_uml.create k ~proc ~grant ~chan ~pool in
          Process.on_exit proc (fun () ->
              if Sud_obs.Trace.on () then
                ignore
                  (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"driver"
                     ~name:"exit" ~attrs:[ "driver", name ] ());
              Uchan.close chan;
              (* The blkdev (cache, staging, retention in the persist
                 record) survives the driver's death; new requests park
                 in staging until a fresh generation resumes. *)
              Proxy_blk.quiesce proxy);
          ignore
            (Process.spawn_fiber proc ~name:(name ^ "-main") (fun () ->
                 Sud_uml.serve_blk uml drv)
             : Fiber.t);
          (match Proxy_blk.wait_ready proxy ~timeout_ns:100_000_000 with
           | None ->
             Process.kill proc;
             Error "driver did not register a block device"
           | Some bd ->
             Ok
               { b_k = k;
                 b_sp = sp;
                 b_bdf = bdf;
                 b_uid = uid;
                 b_name = name;
                 b_proc = proc;
                 b_chan = chan;
                 b_grant = grant;
                 b_proxy = proxy;
                 b_class = Proxy_blk.instance proxy;
                 b_uml = uml;
                 b_blkdev = bd;
                 b_queues = queues;
                 b_quota = quota;
                 b_epoch = epoch })))

let blk_proc s = s.b_proc
let blk_chan s = s.b_chan
let blk_grant s = s.b_grant
let blk_proxy s = s.b_proxy
let blk_class s = s.b_class
let blk_uml s = s.b_uml
let blk_bdf s = s.b_bdf
let blk_blkdev s = s.b_blkdev
let blk_queues s = s.b_queues
let blk_quota s = s.b_quota
let blk_epoch s = s.b_epoch
let kill_blk s = Process.kill s.b_proc

(* ---- the class-indexed lifecycle API ---- *)

(* One entry point for every device class.  The GADT carries both the
   driver type the class consumes and the handle it produces, so
   [launch] is the only spelling callers need. *)
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
  fun k sp ?(uid = 1000) ?name ?bdf ?hang_timeout_ns ?queues ?quota ?epoch cls drv ->
  (* Every class resolves its process name and device the same way: the
     driver's own name, and the first sysfs device its ID table matches. *)
  let drv_name, ids =
    match cls with
    | Net _ -> drv.Driver_api.nd_name, drv.Driver_api.nd_ids
    | Blk _ -> drv.Driver_api.bd_name, drv.Driver_api.bd_ids
    | Wifi -> drv.Driver_api.wd_name, drv.Driver_api.wd_ids
    | Audio -> drv.Driver_api.ad_name, drv.Driver_api.ad_ids
    | Usb _ -> drv.Driver_api.ud_name, drv.Driver_api.ud_ids
  in
  let name = Option.value ~default:drv_name name in
  let bdf =
    match bdf with
    | Some b -> Ok b
    | None ->
      (match Sysfs.match_ids k.Kernel.sysfs ~ids with
       | [] -> Error ("no matching PCI device in sysfs for " ^ name)
       | e :: _ -> Ok e.Sysfs.bdf)
  in
  match bdf with
  | Error e -> Error e
  | Ok bdf ->
    (match cls with
     | Net { defensive_copy; adopt_netdev; unregister_on_exit } ->
       start_net_at k sp ?hang_timeout_ns ?queues ?adopt_netdev ?unregister_on_exit ?quota
         ?epoch ~uid ~defensive_copy ~name ~bdf drv
     | Blk { adopt; request_timeout_ns } ->
       start_blk_at k sp ?hang_timeout_ns ?request_timeout_ns ?queues ?adopt ?quota ?epoch
         ~uid ~name ~bdf drv
     | Wifi -> start_wifi_at k sp ~uid ~name ~bdf drv
     | Audio -> start_audio_at k sp ~uid ~name ~bdf drv
     | Usb { bind_storage; bind_keyboard } ->
       start_usb_at k sp ~uid ~name ~bdf ~bind_storage ~bind_keyboard drv)

(* ---- warm-standby generations ---- *)

(* A pre-forked generation, parked before attach.  Only what does not
   need the device is set up here: the process, the epoch-stamped uchan
   rings, and their quota charge.  The device grant is exclusive per
   BDF and opening it resets the device, so grant + DMA pool + proxy +
   driver init are deferred to [activate_*] — which runs after the
   dying generation's kill released its grant and the FLR left the
   device in exactly the quiesced state a fresh driver expects. *)
type warm = {
  wm_k : Kernel.t;
  wm_sp : Safe_pci.t;
  wm_bdf : Bus.bdf;
  wm_uid : int;
  wm_name : string;
  wm_proc : Process.t;
  wm_chan : Uchan.t;
  wm_queues : int;
  wm_quota : Quota.t option;
  wm_epoch : int;
}

let prefork k sp ?(uid = 1000) ?hang_timeout_ns ?(queues = 1) ?quota ?(epoch = 0) ~name
    ~bdf () =
  if Sud_obs.Trace.on () then
    ignore
      (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"driver" ~name:"prefork"
         ~attrs:[ "driver", name; "bdf", Bus.string_of_bdf bdf ] ());
  Safe_pci.register_device sp bdf;
  Safe_pci.set_owner sp bdf ~uid;
  let proc = Process.spawn k.Kernel.procs ~name ~uid in
  let slots = 256 in
  let queues = max 1 (min queues Uchan.max_queues) in
  let queues, ring_charge =
    match quota with
    | None -> queues, 0
    | Some q ->
      let queues = Quota.negotiate_queues q ~slots ~queues in
      queues, Quota.ring_bytes ~slots ~queues
  in
  match
    match quota with Some q -> Quota.charge_uchan q ~bytes:ring_charge | None -> Ok ()
  with
  | Error e ->
    Process.kill proc;
    Error ("uchan rings: " ^ e)
  | Ok () ->
    let chan =
      Uchan.create k ?hang_timeout_ns ~slots ~queues ~epoch
        ~profile:Proxy_proto.conformance_profile ~driver_label:name ()
    in
    (match quota with
     | None -> ()
     | Some q ->
       Uchan.set_notify_hook chan (Some (fun ~queue -> Quota.note_notify q ~queue));
       Process.on_exit proc (fun () -> Quota.release_uchan q ~bytes:ring_charge));
    Process.on_exit proc (fun () -> Uchan.close chan);
    Ok
      { wm_k = k;
        wm_sp = sp;
        wm_bdf = bdf;
        wm_uid = uid;
        wm_name = name;
        wm_proc = proc;
        wm_chan = chan;
        wm_queues = queues;
        wm_quota = quota;
        wm_epoch = epoch }

let warm_proc w = w.wm_proc
let warm_chan w = w.wm_chan
let warm_epoch w = w.wm_epoch
let warm_queues w = w.wm_queues
let discard_warm w = Process.kill w.wm_proc

let activate_trace w =
  if Sud_obs.Trace.on () then
    ignore
      (Sud_obs.Trace.emit ~parent:(Sud_obs.Trace.current ()) ~cat:"driver" ~name:"activate"
         ~attrs:[ "driver", w.wm_name; "bdf", Bus.string_of_bdf w.wm_bdf ] ())

let activate_net w ?(defensive_copy = true) ?(unregister_on_exit = false) ~adopt
    (drv : Driver_api.net_driver) =
  let k = w.wm_k and name = w.wm_name and proc = w.wm_proc and chan = w.wm_chan in
  activate_trace w;
  match Safe_pci.open_device w.wm_sp ?quota:w.wm_quota w.wm_bdf ~proc with
  | Error e ->
    Process.kill proc;
    Error ("open device: " ^ e)
  | Ok grant ->
    (match
       Safe_pci.alloc_dma grant
         ~bytes:(Bufpool.region_size ~count:pool_bufs ~buf_size:pool_buf_size)
         ()
     with
     | Error e ->
       Process.kill proc;
       Error ("shared pool: " ^ e)
     | Ok region ->
       let pool =
         Bufpool.create
           ~read:(fun ~off ~len -> region.Driver_api.dma_read ~off ~len)
           ~write:(fun ~off ~data -> region.Driver_api.dma_write ~off data)
           ~base_addr:region.Driver_api.dma_addr ~count:pool_bufs ~buf_size:pool_buf_size
       in
       let proxy =
         Proxy_net.create k ~chan ~grant ~pool ~name ~defensive_copy ~parked:true ~adopt ()
       in
       let uml = Sud_uml.create k ~proc ~grant ~chan ~pool in
       Process.on_exit proc (fun () ->
           if unregister_on_exit then Proxy_net.unregister proxy);
       ignore
         (Process.spawn_fiber proc ~name:(name ^ "-main") (fun () ->
              Sud_uml.serve_net uml drv)
          : Fiber.t);
       if Proxy_net.wait_registered proxy ~timeout_ns:100_000_000 then
         Ok
           { s_k = k;
             s_sp = w.wm_sp;
             s_bdf = w.wm_bdf;
             s_uid = w.wm_uid;
             s_name = name;
             s_defensive = defensive_copy;
             s_proc = proc;
             s_chan = chan;
             s_grant = grant;
             s_proxy = proxy;
             s_class = Proxy_net.instance proxy;
             s_uml = uml;
             s_netdev = adopt;
             s_queues = w.wm_queues;
             s_quota = w.wm_quota;
             s_epoch = w.wm_epoch }
       else begin
         Process.kill proc;
         Error "driver did not register a network device"
       end)

let activate_blk w ?request_timeout_ns ~adopt (drv : Driver_api.blk_driver) =
  let k = w.wm_k and name = w.wm_name and proc = w.wm_proc and chan = w.wm_chan in
  activate_trace w;
  match Proxy_blk.persist_blkdev adopt with
  | None ->
    Process.kill proc;
    Error "no surviving block device to adopt"
  | Some bd ->
    (match Safe_pci.open_device w.wm_sp ?quota:w.wm_quota w.wm_bdf ~proc with
     | Error e ->
       Process.kill proc;
       Error ("open device: " ^ e)
     | Ok grant ->
       (match
          Safe_pci.alloc_dma grant
            ~bytes:(Bufpool.region_size ~count:blk_pool_bufs ~buf_size:blk_pool_buf_size)
            ()
        with
        | Error e ->
          Process.kill proc;
          Error ("shared pool: " ^ e)
        | Ok region ->
          let pool =
            Bufpool.create
              ~read:(fun ~off ~len -> region.Driver_api.dma_read ~off ~len)
              ~write:(fun ~off ~data -> region.Driver_api.dma_write ~off data)
              ~base_addr:region.Driver_api.dma_addr ~count:blk_pool_bufs
              ~buf_size:blk_pool_buf_size
          in
          let proxy =
            Proxy_blk.create k ~chan ~grant ~pool ~name ?request_timeout_ns ~parked:true
              ~adopt ()
          in
          let uml = Sud_uml.create k ~proc ~grant ~chan ~pool in
          Process.on_exit proc (fun () -> Proxy_blk.quiesce proxy);
          ignore
            (Process.spawn_fiber proc ~name:(name ^ "-main") (fun () ->
                 Sud_uml.serve_blk uml drv)
             : Fiber.t);
          if Proxy_blk.wait_registered proxy ~timeout_ns:100_000_000 then
            Ok
              { b_k = k;
                b_sp = w.wm_sp;
                b_bdf = w.wm_bdf;
                b_uid = w.wm_uid;
                b_name = name;
                b_proc = proc;
                b_chan = chan;
                b_grant = grant;
                b_proxy = proxy;
                b_class = Proxy_blk.instance proxy;
                b_uml = uml;
                b_blkdev = bd;
                b_queues = w.wm_queues;
                b_quota = w.wm_quota;
                b_epoch = w.wm_epoch }
          else begin
            Process.kill proc;
            Error "driver did not register a block device"
          end))
