(* Unit and property tests for the kernel layer: processes, preemption,
   IRQs, sk_buffs, netdev, the network stack. *)

open Helpers

let with_kernel fn =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  fn eng k

(* ---- klog ---- *)

let test_klog () =
  with_kernel (fun _ k ->
      Klog.printk k.Kernel.klog Klog.Warn "disk %d on fire" 3;
      Alcotest.(check int) "match" 1 (List.length (Klog.matching k.Kernel.klog "on fire"));
      Alcotest.(check int) "no match" 0 (List.length (Klog.matching k.Kernel.klog "water")))

(* ---- processes ---- *)

let test_process_identity () =
  with_kernel (fun _ k ->
      let p1 = Process.spawn k.Kernel.procs ~name:"drv1" ~uid:1000 in
      let p2 = Process.spawn k.Kernel.procs ~name:"drv2" ~uid:1001 in
      Alcotest.(check bool) "distinct pids" true (Process.pid p1 <> Process.pid p2);
      Alcotest.(check int) "kernel is pid 0" 0
        (Process.pid (Process.kernel_process k.Kernel.procs));
      Alcotest.(check bool) "find" true (Process.find k.Kernel.procs ~pid:(Process.pid p1) <> None))

let test_process_kill () =
  with_kernel (fun eng k ->
      let p = Process.spawn k.Kernel.procs ~name:"victim" ~uid:1 in
      let progressed = ref 0 in
      let exited = ref false in
      Process.on_exit p (fun () -> exited := true);
      ignore
        (Process.spawn_fiber p (fun () ->
             for _ = 1 to 100 do
               ignore (Fiber.sleep eng 1000 : Fiber.wake);
               incr progressed
             done)
         : Fiber.t);
      ignore (Engine.schedule_after eng 5_500 (fun () -> Process.kill p) : Engine.handle);
      Engine.run eng;
      Alcotest.(check bool) "stopped early" true (!progressed < 100);
      Alcotest.(check bool) "exit hook ran" true !exited;
      Alcotest.(check bool) "dead" false (Process.is_alive p);
      Process.kill p (* idempotent *))

let test_process_current () =
  with_kernel (fun eng k ->
      let p = Process.spawn k.Kernel.procs ~name:"me" ~uid:7 in
      let seen = ref "" in
      ignore
        (Process.spawn_fiber p (fun () -> seen := Process.name (Process.current k.Kernel.procs))
         : Fiber.t);
      Engine.run eng;
      Alcotest.(check string) "current process resolves" "me" !seen)

let test_rlimit () =
  with_kernel (fun _ k ->
      let p = Process.spawn k.Kernel.procs ~name:"pig" ~uid:1 in
      Process.setrlimit_memory p ~bytes:(Some 10_000);
      Process.charge_memory p ~bytes:8_000;
      Alcotest.check_raises "limit enforced"
        (Process.Rlimit_exceeded "pig: RLIMIT 8000 + 8000 > 10000") (fun () ->
            Process.charge_memory p ~bytes:8_000);
      Process.uncharge_memory p ~bytes:8_000;
      Process.charge_memory p ~bytes:8_000;
      Alcotest.(check int) "usage tracked" 8_000 (Process.memory_used p))

(* ---- preempt ---- *)

let test_preempt_tracking () =
  with_kernel (fun _ k ->
      Kernel.run_main k ~name:"t" ~max_ms:10_000 (fun () ->
          let pr = k.Kernel.preempt in
          Alcotest.(check bool) "not atomic initially" false (Preempt.in_atomic pr);
          Preempt.with_atomic pr (fun () ->
              Alcotest.(check bool) "atomic inside" true (Preempt.in_atomic pr);
              Alcotest.check_raises "sleep forbidden"
                (Preempt.Sleeping_in_atomic "nap") (fun () ->
                    Preempt.assert_may_sleep pr "nap"));
          Alcotest.(check bool) "restored" false (Preempt.in_atomic pr);
          Preempt.assert_may_sleep pr "ok now"))

let test_spinlock () =
  with_kernel (fun _ k ->
      Kernel.run_main k ~name:"t" ~max_ms:10_000 (fun () ->
          let pr = k.Kernel.preempt in
          let l = Preempt.Spinlock.create pr in
          Preempt.Spinlock.with_lock l (fun () ->
              Alcotest.(check bool) "held" true (Preempt.Spinlock.held l);
              Alcotest.(check bool) "atomic while held" true (Preempt.in_atomic pr));
          Alcotest.(check bool) "released" false (Preempt.Spinlock.held l)))

(* ---- irq ---- *)

let test_irq_dispatch () =
  with_kernel (fun _ k ->
      let irq = k.Kernel.irq in
      let v = (Irq.alloc_vectors irq ~n:1).(0) in
      let hits = ref 0 in
      (match
         Irq.request_irqs irq ~vectors:[| v |] ~name:"t" (fun ~queue:_ ~source:_ -> incr hits)
       with
       | Ok () -> ()
       | Error e -> Alcotest.fail e);
      Irq.deliver irq ~source:0 ~vector:v;
      Irq.deliver irq ~source:0 ~vector:v;
      Alcotest.(check int) "handler ran" 2 !hits;
      Alcotest.(check int) "per-vector count" 2 (Irq.count irq ~vector:v);
      Irq.deliver irq ~source:0 ~vector:(v + 1);
      Alcotest.(check int) "spurious counted" 1 (Sud_obs.Metrics.get (Irq.metrics irq).Irq.qm_spurious);
      Alcotest.(check bool) "double request rejected" true
        (Result.is_error
           (Irq.request_irqs irq ~vectors:[| v |] ~name:"t2" (fun ~queue:_ ~source:_ -> ()))))

let test_irq_vector_recycling () =
  (* MSI carries the vector in data[7:0], so the allocator must recycle
     freed vectors instead of growing past 255 — a driver supervised
     through hundreds of restart generations would otherwise end up with
     vectors that alias old freed ones after bus truncation (lost IRQs,
     spurious-after-free storms). *)
  with_kernel (fun _ k ->
      let irq = k.Kernel.irq in
      let first = Irq.alloc_vectors irq ~n:4 in
      (match
         Irq.request_irqs irq ~vectors:first ~name:"gen0" (fun ~queue:_ ~source:_ -> ())
       with
       | Ok () -> ()
       | Error e -> Alcotest.fail e);
      Irq.free_irqs irq ~vectors:first;
      for _gen = 1 to 500 do
        let vs = Irq.alloc_vectors irq ~n:4 in
        Array.iter
          (fun v ->
             if v >= 256 then
               Alcotest.failf "vector %d escapes the 8-bit MSI data field" v)
          vs;
        (match
           Irq.request_irqs irq ~vectors:vs ~name:"gen" (fun ~queue:_ ~source:_ -> ())
         with
         | Ok () -> ()
         | Error e -> Alcotest.fail e);
        Irq.free_irqs irq ~vectors:vs
      done;
      (* Freed-then-recycled lowest-first: the original block comes back. *)
      let again = Irq.alloc_vectors irq ~n:4 in
      Alcotest.(check (array int)) "lowest vectors reused" first again)

let test_irq_handler_atomic () =
  with_kernel (fun _ k ->
      let v = (Irq.alloc_vectors k.Kernel.irq ~n:1).(0) in
      let was_atomic = ref false in
      (match
         Irq.request_irqs k.Kernel.irq ~vectors:[| v |] ~name:"t" (fun ~queue:_ ~source:_ ->
             was_atomic := Preempt.in_atomic k.Kernel.preempt)
       with
       | Ok () -> ()
       | Error e -> Alcotest.fail e);
      Irq.deliver k.Kernel.irq ~source:0 ~vector:v;
      Alcotest.(check bool) "top half runs atomically" true !was_atomic)

(* ---- skbuff ---- *)

let test_checksum_known () =
  (* RFC 1071 example bytes. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "rfc1071" (lnot 0xddf2 land 0xffff) (Skbuff.checksum b)

let test_mac_parse () =
  let m = Skbuff.Mac.of_string "52:54:00:ab:cd:ef" in
  Alcotest.(check string) "roundtrip" "52:54:00:ab:cd:ef"
    (Format.asprintf "%a" Skbuff.Mac.pp m);
  Alcotest.(check bool) "broadcast differs" false (Skbuff.Mac.equal m Skbuff.Mac.broadcast)

let test_skb_copy_clears_sharing () =
  let skb = Skbuff.of_bytes (Bytes.of_string "data") in
  skb.Skbuff.shared_with_driver <- true;
  skb.Skbuff.refresh <- Some (fun () -> Bytes.of_string "evil");
  let c = Skbuff.copy skb in
  Alcotest.(check bool) "private" false c.Skbuff.shared_with_driver;
  Alcotest.(check bool) "no refresh hook" true (c.Skbuff.refresh = None)

(* ---- netdev ---- *)

let null_ops =
  { Netdev.ndo_open = (fun () -> Ok ());
    ndo_stop = ignore;
    ndo_start_xmit = (fun ~queue:_ _ -> Netdev.Xmit_ok);
    ndo_do_ioctl = (fun ~cmd:_ ~arg:_ -> Ok 0) }

let test_netdev_state () =
  let d = Netdev.create ~name:"eth9" ~mac:(Bytes.make 6 '\x02') ~ops:null_ops () in
  Alcotest.(check bool) "down initially" false (Netdev.is_up d);
  Alcotest.(check bool) "no carrier" false (Netdev.carrier d);
  Netdev.netif_carrier_on d;
  Alcotest.(check bool) "carrier on" true (Netdev.carrier d);
  Netdev.netif_stop_subqueue d ~queue:0;
  Alcotest.(check bool) "stopped" true (Netdev.subqueue_stopped d ~queue:0);
  Netdev.netif_wake_subqueue d ~queue:0;
  Alcotest.(check bool) "woken" false (Netdev.subqueue_stopped d ~queue:0)

let test_netdev_rx_before_registration () =
  let d = Netdev.create ~name:"eth9" ~mac:(Bytes.make 6 '\x02') ~ops:null_ops () in
  Netdev.netif_rx d (Skbuff.of_bytes (Bytes.make 64 'x'));
  Alcotest.(check int) "dropped, not crashed" 1 (Netdev.stats d).Netdev.rx_dropped

(* ---- netstack behaviours through real drivers ---- *)

let test_bad_checksum_dropped () =
  run_in_kernel setup_duo (fun k duo ->
      let dev_a = up_native ~name:"eth0" k duo.bdf_a in
      let dev_b = up_native ~name:"eth1" k duo.bdf_b in
      let sock = Netstack.udp_bind k.Kernel.net dev_b ~port:9 in
      ignore sock;
      (* Hand-craft a frame with a corrupted checksum and inject it at the
         driver level on B's side. *)
      let payload = Bytes.make 10 'p' in
      let p = Bytes.create (9 + 10) in
      Bytes.set p 0 '\001';
      Bytes.set_uint16_be p 1 1234;
      Bytes.set_uint16_be p 3 9;
      Bytes.set_uint16_be p 5 10;
      Bytes.set_uint16_be p 7 (Skbuff.checksum payload lxor 0xFFFF);  (* wrong *)
      Bytes.blit payload 0 p 9 10;
      let frame = Bytes.create (14 + Bytes.length p) in
      Bytes.blit (Netdev.mac dev_b) 0 frame 0 6;
      Bytes.blit (Netdev.mac dev_a) 0 frame 6 6;
      Bytes.set_uint16_be frame 12 0x0800;
      Bytes.blit p 0 frame 14 (Bytes.length p);
      let drops_before = Netstack.csum_drops k.Kernel.net in
      Netdev.netif_rx dev_b (Skbuff.of_bytes frame);
      ignore (Fiber.sleep k.Kernel.eng 5_000_000 : Fiber.wake);
      Alcotest.(check int) "checksum drop counted" (drops_before + 1)
        (Netstack.csum_drops k.Kernel.net);
      Alcotest.(check bool) "klog complained" true
        (Klog.matching k.Kernel.klog "bad checksum" <> []))

let test_firewall_drops () =
  run_in_kernel setup_duo (fun k duo ->
      let dev_a = up_native ~name:"eth0" k duo.bdf_a in
      let dev_b = up_native ~name:"eth1" k duo.bdf_b in
      Netstack.set_firewall k.Kernel.net
        (Some
           (fun skb ->
              if Skbuff.length skb > 0 && Bytes.index_opt skb.Skbuff.data 'X' <> None then
                Netstack.Drop
              else Netstack.Accept));
      let sa = Netstack.udp_bind k.Kernel.net dev_a ~port:1000 in
      let sb = Netstack.udp_bind k.Kernel.net dev_b ~port:9 in
      ignore
        (Netstack.udp_sendto k.Kernel.net sa ~dst:(Netdev.mac dev_b) ~dst_port:9
           (Bytes.of_string "okay")
         : [ `Sent | `Dropped ]);
      ignore
        (Netstack.udp_sendto k.Kernel.net sa ~dst:(Netdev.mac dev_b) ~dst_port:9
           (Bytes.of_string "maXicious")
         : [ `Sent | `Dropped ]);
      ignore (Fiber.sleep k.Kernel.eng 10_000_000 : Fiber.wake);
      Alcotest.(check int) "only the clean packet delivered" 1 (Netstack.udp_pending sb);
      Alcotest.(check int) "firewall counted the drop" 1 (Netstack.firewall_drops k.Kernel.net))

let test_udp_unknown_port_dropped () =
  run_in_kernel setup_duo (fun k duo ->
      let dev_a = up_native ~name:"eth0" k duo.bdf_a in
      let dev_b = up_native ~name:"eth1" k duo.bdf_b in
      let sa = Netstack.udp_bind k.Kernel.net dev_a ~port:1000 in
      ignore
        (Netstack.udp_sendto k.Kernel.net sa ~dst:(Netdev.mac dev_b) ~dst_port:4242
           (Bytes.of_string "hello?")
         : [ `Sent | `Dropped ]);
      ignore (Fiber.sleep k.Kernel.eng 5_000_000 : Fiber.wake);
      Alcotest.(check bool) "counted as rx_dropped" true
        ((Netdev.stats dev_b).Netdev.rx_dropped >= 1))

let test_udp_bind_conflict () =
  run_in_kernel setup_duo (fun k duo ->
      let dev_a = up_native ~name:"eth0" k duo.bdf_a in
      ignore (Netstack.udp_bind k.Kernel.net dev_a ~port:53 : Netstack.udp_socket);
      Alcotest.check_raises "port in use" (Invalid_argument "udp_bind: port in use")
        (fun () -> ignore (Netstack.udp_bind k.Kernel.net dev_a ~port:53 : Netstack.udp_socket)))

let test_stream_fin () =
  run_in_kernel setup_duo (fun k duo ->
      let dev_a = up_native ~name:"eth0" k duo.bdf_a in
      let dev_b = up_native ~name:"eth1" k duo.bdf_b in
      let got = ref [] in
      let closed = ref false in
      ignore
        (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"srv" (fun () ->
             let st = Netstack.stream_listen k.Kernel.net dev_b ~port:80 in
             let rec drain () =
               match Netstack.stream_recv k.Kernel.net st with
               | Some b ->
                 got := Bytes.to_string b :: !got;
                 drain ()
               | None -> closed := true
             in
             drain ())
         : Fiber.t);
      let st =
        ok_or_fail "connect"
          (Netstack.stream_connect k.Kernel.net dev_a ~dst:(Netdev.mac dev_b) ~dst_port:80
             ~src_port:5000)
      in
      ok_or_fail "send" (Netstack.stream_send k.Kernel.net st (Bytes.of_string "request"));
      Netstack.stream_close k.Kernel.net st;
      ignore (Fiber.sleep k.Kernel.eng 10_000_000 : Fiber.wake);
      Alcotest.(check (list string)) "data then FIN" [ "request" ] (List.rev !got);
      Alcotest.(check bool) "recv returned None after FIN" true !closed)

let test_stream_connect_timeout () =
  run_in_kernel setup_duo (fun k duo ->
      let dev_a = up_native ~name:"eth0" k duo.bdf_a in
      (* Nobody listens on the peer. *)
      match
        Netstack.stream_connect k.Kernel.net dev_a ~dst:mac_b ~dst_port:81 ~src_port:5001
      with
      | Ok _ -> Alcotest.fail "connect should time out"
      | Error e -> Alcotest.(check string) "timeout error" "connect: timed out" e)

let test_ifconfig_down_stops_traffic () =
  run_in_kernel setup_duo (fun k duo ->
      let dev_a = up_native ~name:"eth0" k duo.bdf_a in
      let dev_b = up_native ~name:"eth1" k duo.bdf_b in
      let sb = Netstack.udp_bind k.Kernel.net dev_b ~port:9 in
      Netstack.ifconfig_down k.Kernel.net dev_b;
      let sa = Netstack.udp_bind k.Kernel.net dev_a ~port:1000 in
      ignore
        (Netstack.udp_sendto k.Kernel.net sa ~dst:(Netdev.mac dev_b) ~dst_port:9
           (Bytes.of_string "anyone home?")
         : [ `Sent | `Dropped ]);
      ignore (Fiber.sleep k.Kernel.eng 10_000_000 : Fiber.wake);
      Alcotest.(check int) "nothing delivered after down" 0 (Netstack.udp_pending sb))

(* ---- property tests ---- *)

let qcheck_cases =
  [ QCheck.Test.make ~name:"checksum detects single-bit flips" ~count:200
      QCheck.(pair (string_of_size Gen.(int_range 2 200)) (int_bound 1000))
      (fun (s, pos) ->
         QCheck.assume (String.length s > 0);
         let b = Bytes.of_string s in
         let orig = Skbuff.checksum b in
         let i = pos mod Bytes.length b in
         Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
         Skbuff.checksum b <> orig);
    QCheck.Test.make ~name:"udp payload roundtrip through full stack" ~count:12
      QCheck.(string_of_size Gen.(int_range 1 1200))
      (fun payload ->
         let delivered =
           run_in_kernel setup_duo (fun k duo ->
               let dev_a = up_native ~name:"eth0" k duo.bdf_a in
               let dev_b = up_native ~name:"eth1" k duo.bdf_b in
               let sa = Netstack.udp_bind k.Kernel.net dev_a ~port:1 in
               let sb = Netstack.udp_bind k.Kernel.net dev_b ~port:2 in
               ignore
                 (Netstack.udp_sendto k.Kernel.net sa ~dst:(Netdev.mac dev_b) ~dst_port:2
                    (Bytes.of_string payload)
                  : [ `Sent | `Dropped ]);
               match Netstack.udp_recv k.Kernel.net sb with
               | Some (d, _) -> Bytes.to_string d
               | None -> "")
         in
         delivered = payload);
    (* The word-at-a-time checksum is a pure speedup: differentially test
       it against the byte-pair oracle over random buffers and ranges. *)
    QCheck.Test.make ~name:"checksum_sub_words = checksum_sub (oracle)" ~count:500
      QCheck.(triple (string_of_size Gen.(int_range 0 300)) small_nat small_nat)
      (fun (s, a, b) ->
         let buf = Bytes.of_string s in
         let n = Bytes.length buf in
         let off = if n = 0 then 0 else a mod (n + 1) in
         let len = min b (n - off) in
         Skbuff.checksum_sub_words buf ~off ~len = Skbuff.checksum_sub buf ~off ~len);
    (* The fused pass must be observationally identical to the two-pass
       copy-then-checksum it replaces, and the fusion must not reopen the
       TOCTOU window: mutating src after the call changes neither the
       copied bytes nor the returned verdict. *)
    QCheck.Test.make ~name:"copy_and_checksum = blit;checksum and is TOCTOU-safe"
      ~count:300
      QCheck.(triple (string_of_size Gen.(int_range 1 300)) small_nat small_nat)
      (fun (s, a, flip) ->
         let n = String.length s in
         let src = Bytes.of_string s in
         let src_off = a mod n in
         let len = n - src_off in
         let dst_off = 3 in
         let dst = Bytes.make (dst_off + len) '\xAA' in
         let verdict = Skbuff.copy_and_checksum ~src ~src_off ~dst ~dst_off ~len in
         let two_pass_dst = Bytes.make (dst_off + len) '\xAA' in
         Bytes.blit src src_off two_pass_dst dst_off len;
         let two_pass = Skbuff.checksum_sub two_pass_dst ~off:dst_off ~len in
         let copied_before = Bytes.copy dst in
         (* TOCTOU: the driver scribbles on src after the fused call. *)
         let i = flip mod n in
         Bytes.set src i (Char.chr (Char.code (Bytes.get src i) lxor 0xFF));
         verdict = two_pass
         && Bytes.equal dst copied_before
         && Skbuff.checksum_sub dst ~off:dst_off ~len = verdict) ]

let suite =
  [ Alcotest.test_case "klog: printk + matching" `Quick test_klog;
    Alcotest.test_case "process: identity" `Quick test_process_identity;
    Alcotest.test_case "process: kill" `Quick test_process_kill;
    Alcotest.test_case "process: current" `Quick test_process_current;
    Alcotest.test_case "process: rlimit" `Quick test_rlimit;
    Alcotest.test_case "preempt: context tracking" `Quick test_preempt_tracking;
    Alcotest.test_case "preempt: spinlock" `Quick test_spinlock;
    Alcotest.test_case "irq: dispatch + counters" `Quick test_irq_dispatch;
    Alcotest.test_case "irq: vector space is bounded and recycled" `Quick
      test_irq_vector_recycling;
    Alcotest.test_case "irq: handlers are atomic" `Quick test_irq_handler_atomic;
    Alcotest.test_case "skbuff: checksum vector" `Quick test_checksum_known;
    Alcotest.test_case "skbuff: mac parse" `Quick test_mac_parse;
    Alcotest.test_case "skbuff: copy clears sharing" `Quick test_skb_copy_clears_sharing;
    Alcotest.test_case "netdev: state machine" `Quick test_netdev_state;
    Alcotest.test_case "netdev: early rx dropped" `Quick test_netdev_rx_before_registration;
    Alcotest.test_case "netstack: bad checksum dropped" `Quick test_bad_checksum_dropped;
    Alcotest.test_case "netstack: firewall" `Quick test_firewall_drops;
    Alcotest.test_case "netstack: unknown port" `Quick test_udp_unknown_port_dropped;
    Alcotest.test_case "netstack: bind conflict" `Quick test_udp_bind_conflict;
    Alcotest.test_case "netstack: stream FIN" `Quick test_stream_fin;
    Alcotest.test_case "netstack: connect timeout" `Quick test_stream_connect_timeout;
    Alcotest.test_case "netstack: ifconfig down" `Quick test_ifconfig_down_stops_traffic ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
