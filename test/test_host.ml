(* The driver host's lifecycle, pinned: one launch per device class and
   one warm handover, each on a fresh engine, hold the engine's step
   count and trace hash.  Any change to which events a launch schedules,
   or in what order, moves these. *)

open Helpers

(* Boot one device at the root ports; a kernel fiber runs [Safe_pci.init]
   and [body], then idles 20 ms; the engine runs to 50 ms. *)
let pin_run setup body =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let bdf = setup k in
  let finished = ref false in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"pin-main" (fun () ->
         let sp = Safe_pci.init k in
         body k sp bdf;
         ignore (Fiber.sleep eng 20_000_000 : Fiber.wake);
         finished := true)
     : Fiber.t);
  Engine.run ~max_time:50_000_000 eng;
  if not !finished then Alcotest.fail "pin run did not finish";
  (Engine.steps eng, Engine.trace_hash eng)

let e1000 (k : Kernel.t) =
  let medium = Net_medium.create k.Kernel.eng () in
  Kernel.attach_pci k (E1000_dev.device (E1000_dev.create k.Kernel.eng ~mac:mac_a ~medium ()))

let nvme (k : Kernel.t) = Kernel.attach_pci k (Nvme_dev.device (Nvme_dev.create k.Kernel.eng ()))

let wifi (k : Kernel.t) =
  let air = Net_medium.create k.Kernel.eng () in
  let dev =
    Wifi_dev.create k.Kernel.eng ~mac:mac_a ~medium:air
      ~bss_list:[ { Wifi_dev.bssid = 0x1A; ssid = "csail"; signal_dbm = -40 } ] ()
  in
  Kernel.attach_pci k (Wifi_dev.device dev)

let hda (k : Kernel.t) = Kernel.attach_pci k (Hda_dev.device (Hda_dev.create k.Kernel.eng ()))

let ehci (k : Kernel.t) =
  let hci = Usb_hci_dev.create k.Kernel.eng ~ports:1 () in
  Usb_hci_dev.plug hci ~port:0 (Usb_device.storage ~name:"stick" ~blocks:16);
  Kernel.attach_pci k (Usb_hci_dev.device hci)

let launched what r = ignore (ok_or_fail ("launch " ^ what) r)

let check_pin what (steps, hash) (steps', hash') =
  Alcotest.(check int) (what ^ " steps") steps steps';
  Alcotest.(check int64) (what ^ " trace hash") hash hash'

let test_launch_pins () =
  check_pin "net" (62, 0x9b87c7cfe5d70536L)
    (pin_run e1000 (fun k sp _ ->
         launched "net" (Driver_host.launch k sp (Driver_host.net ()) E1000.driver)));
  check_pin "blk" (130, 0x21843efcb18700d4L)
    (pin_run nvme (fun k sp _ ->
         launched "blk" (Driver_host.launch k sp (Driver_host.blk ()) Nvme.driver)));
  check_pin "wifi" (52, 0x6f3c03c63d8590e4L)
    (pin_run wifi (fun k sp _ ->
         launched "wifi" (Driver_host.launch k sp Driver_host.wifi Iwl.driver)));
  check_pin "audio" (48, 0x7b8a695c9d4c143bL)
    (pin_run hda (fun k sp _ ->
         launched "audio" (Driver_host.launch k sp Driver_host.audio Hda.driver)));
  check_pin "usb" (484, 0x08e2ceacdb0511daL)
    (pin_run ehci (fun k sp _ ->
         launched "usb"
           (Driver_host.launch k sp
              (Driver_host.usb ~bind_storage:Ehci.bind_storage
                 ~bind_keyboard:Ehci.poll_keyboard)
              Ehci.driver)))

(* A warm handover by hand: the supervisor's swap without the
   supervisor.  The standby is pre-forked at the live width and epoch+1,
   the live generation is killed, and the standby activates against the
   surviving netdev and resumes. *)
let test_warm_handover_pin () =
  check_pin "net warm handover" (121, 0x8787ecd5b6a86af0L)
    (pin_run e1000 (fun k sp bdf ->
         let s =
           ok_or_fail "launch"
             (Driver_host.launch k sp (Driver_host.net ~unregister_on_exit:false ()) E1000.driver)
         in
         let w =
           ok_or_fail "prefork"
             (Driver_host.prefork k sp ~queues:(Driver_host.queues s) ~epoch:1 ~name:"e1000"
                ~bdf ())
         in
         Driver_host.kill s;
         ignore (Fiber.sleep k.Kernel.eng 1_000 : Fiber.wake);
         let s2 =
           ok_or_fail "activate"
             (Driver_host.activate_net w ~adopt:(Driver_host.netdev s) E1000.driver)
         in
         Proxy_class.resume (Driver_host.class_of s2)))

(* The rings step is shared by every class, so a wifi launch honours the
   quota and the epoch exactly like net and blk. *)
let test_wifi_quota_epoch () =
  run_in_kernel wifi (fun k _ ->
      let sp = Safe_pci.init k in
      let q = Quota.create k.Kernel.eng ~name:"iwl" () in
      let s =
        ok_or_fail "launch wifi"
          (Driver_host.launch k sp ~quota:q ~epoch:3 Driver_host.wifi Iwl.driver)
      in
      Alcotest.(check int) "ring bytes charged"
        (Quota.ring_bytes ~slots:256 ~queues:(Driver_host.queues s))
        (Quota.uchan_bytes q);
      Alcotest.(check int) "grant charged" 1 (Quota.grants q);
      Alcotest.(check int) "generation epoch" 3 (Driver_host.epoch s);
      Alcotest.(check int) "chan stamps epoch 3" 3 (Uchan.epoch (Driver_host.chan s));
      Driver_host.kill s;
      Alcotest.(check int) "ring bytes released" 0 (Quota.uchan_bytes q))

(* Cold and warm generations leave the same trace: every death of a
   live generation closes with a driver/exit span, and every
   driver/start span names its class. *)
let test_traced_warm_failover () =
  let module T = Sud_obs.Trace in
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
        T.set_enabled false;
        T.reset ())
    (fun () ->
       T.reset ();
       let scenario = "traced warm failover" in
       let w = Fault_inject.make_world () in
       let eng = w.Fault_inject.eng in
       Kernel.run_main w.Fault_inject.k ~name:scenario ~max_ms:1_000 (fun () ->
           let sv, _, _ =
             Fault_inject.supervise ~scenario ~policy:(Fault_inject.warm_policy ~max_restarts:10) w
           in
           let deaths = ref 0 in
           Supervisor.on_event sv (function
               | Supervisor.Driver_killed -> incr deaths
               | _ -> ());
           for _ = 1 to 2 do
             Alcotest.(check bool) "standby ready" true
               (Fault_inject.poll eng ~every_ns:1_000_000 ~budget:200 (fun () ->
                    Supervisor.standby_status sv = Standby.Ready));
             Alcotest.(check bool) "crash applied" true
               (Fault_inject.inject ~eng ~sv Fault_inject.Crash);
             ignore (Fiber.sleep eng 20_000_000 : Fiber.wake)
           done;
           Alcotest.(check int) "two deaths" 2 !deaths;
           Alcotest.(check int) "both recoveries warm" 2 (Supervisor.warm_swaps sv);
           let driver name = List.filter (fun s -> s.T.sp_cat = "driver" && s.T.sp_name = name) in
           let spans = T.spans () in
           Alcotest.(check int) "one exit span per death" !deaths
             (List.length (driver "exit" spans));
           let starts = driver "start" spans in
           Alcotest.(check bool) "a start span" true (starts <> []);
           List.iter
             (fun s ->
                Alcotest.(check bool) "start span carries class" true
                  (List.mem_assoc "class" s.T.sp_attrs))
             starts;
           Supervisor.stop sv))

let suite =
  [ Alcotest.test_case "launch pins: one per class" `Quick test_launch_pins;
    Alcotest.test_case "warm handover pin" `Quick test_warm_handover_pin;
    Alcotest.test_case "wifi launch honours quota and epoch" `Quick test_wifi_quota_epoch;
    Alcotest.test_case "traced warm failover: exit span per death" `Quick
      test_traced_warm_failover ]
