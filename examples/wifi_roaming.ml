(* 802.11 management through the wireless proxy: scan, associate, change
   bitrate from a non-preemptable context (the mirrored-state trick of
   §3.1.1), and survive a firmware-initiated roam.

     dune exec examples/wifi_roaming.exe *)

let bsses =
  [ { Wifi_dev.bssid = 0x1A; ssid = "csail"; signal_dbm = -42 };
    { Wifi_dev.bssid = 0x2B; ssid = "stata-guest"; signal_dbm = -61 };
    { Wifi_dev.bssid = 0x3C; ssid = "MIT"; signal_dbm = -55 } ]

let () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let air = Net_medium.create eng ~rate_bps:54_000_000 ~latency_ns:100_000 () in
  let wifi =
    Wifi_dev.create eng ~mac:(Skbuff.Mac.of_string "02:24:d7:aa:bb:cc") ~medium:air
      ~bss_list:bsses ()
  in
  let bdf = Kernel.attach_pci k (Wifi_dev.device wifi) in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"main" (fun () ->
         let sp = Safe_pci.init k in
         let s =
           match Driver_host.launch k sp Driver_host.wifi ~bdf Iwl.driver with
           | Ok s -> s
           | Error e -> failwith e
         in
         let proxy = Driver_host.proxy s in
         (match Netstack.ifconfig_up k.Kernel.net (Driver_host.netdev s) with
          | Ok () -> print_endline "wlan0 up (iwlagn running as an untrusted process)"
          | Error e -> failwith e);
         Printf.printf "supported bitrates (mirrored, no upcall): %s Mb/s\n"
           (String.concat ", " (List.map string_of_int (Proxy_wifi.bitrates proxy)));
         (match Proxy_wifi.scan proxy with
          | Ok bssids ->
            Printf.printf "scan found %d BSSes:" (List.length bssids);
            List.iter (fun b -> Printf.printf " %02x" b) bssids;
            print_newline ()
          | Error e -> failwith ("scan: " ^ e));
         (match Proxy_wifi.associate proxy ~bssid:0x1A with
          | Ok () -> print_endline "associated with 1a (\"csail\")"
          | Error e -> failwith ("associate: " ^ e));
         ignore (Fiber.sleep eng 5_000_000 : Fiber.wake);
         Printf.printf "carrier: %b\n" (Netdev.carrier (Driver_host.netdev s));
         (* The kernel enables a faster rate while holding a spinlock: the
            proxy must not block here (paper §3.1.1). *)
         Preempt.with_atomic k.Kernel.preempt (fun () ->
             print_endline "enabling 54 Mb/s from atomic context (async upcall)...";
             Proxy_wifi.set_rate proxy 5);
         ignore (Fiber.sleep eng 5_000_000 : Fiber.wake);
         Printf.printf "device now at %d Mb/s\n" (Wifi_dev.current_rate wifi);
         (* Firmware roams on its own; the BSS change flows back as a
            downcall and updates the kernel's mirror. *)
         print_endline "firmware roams to 3c (\"MIT\")...";
         Wifi_dev.roam wifi ~bssid:0x3C;
         ignore (Fiber.sleep eng 5_000_000 : Fiber.wake);
         (match Proxy_wifi.current_bss proxy with
          | Some _ -> Printf.printf "kernel mirror saw the BSS change (associated: %02x)\n"
                        (match Wifi_dev.associated wifi with Some b -> b | None -> 0)
          | None -> print_endline "mirror did not update"))
     : Fiber.t);
  Engine.run ~max_time:3_000_000_000 eng
