(* sudctl — command-line front end to the SUD reproduction.

   Commands are noun-verb: the noun names the subsystem, the verb the
   operation.  Anything that can fail lives in the Ctl library so the
   test suite drives the same code paths; this file only parses
   arguments and formats output.

     sudctl security [--attack NAME]    run attack scenarios
     sudctl netperf [--test NAME]       run Figure 8 benchmarks
     sudctl mappings                    print Figure 9
     sudctl files                       print Figure 6
     sudctl protocol                    print Figure 7
     sudctl metrics [--json]            run a workload, dump /sys/kernel/sud_metrics
     sudctl blk status                  boot a supervised NVMe, probe it, print
                                        the whole-stack status snapshot
     sudctl driver list                 list supervised drivers and their standbys
     sudctl driver status               one driver's generation machinery
     sudctl driver upgrade              zero-loss live upgrade to the warm standby
     sudctl driver failover             forced failover through the fault path
     sudctl trace smoke [--out FILE]    traced DMA-violation recovery, verify the
                                        causal span chain in the JSONL export
     sudctl check list                  list sud-check scenarios and canaries
     sudctl check explore SCENARIO      hunt for failing schedules, dump + shrink
     sudctl check replay FILE           re-execute a recorded schedule bit-for-bit
     sudctl check shrink FILE           ddmin a saved failing schedule *)

open Cmdliner

let run_security attack =
  let all = Scenarios.all () in
  let chosen =
    match attack with
    | None -> all
    | Some name ->
      List.filter
        (fun o ->
           let lower = String.lowercase_ascii o.Scenarios.attack in
           let pat = String.lowercase_ascii name in
           let n = String.length lower and m = String.length pat in
           let rec scan i = i + m <= n && (String.sub lower i m = pat || scan (i + 1)) in
           m > 0 && scan 0)
        all
  in
  if chosen = [] then begin
    Printf.eprintf "no attack matches %s\n"
      (match attack with Some a -> a | None -> "");
    exit 1
  end;
  List.iter
    (fun o ->
       Printf.printf "%-44s %-36s %s\n    %s\n" o.Scenarios.attack o.Scenarios.config
         (if o.Scenarios.contained then "contained" else "NOT CONTAINED")
         o.Scenarios.evidence)
    chosen

let run_netperf test =
  let benches =
    [ ("tcp_stream", ("TCP_STREAM", fun m -> Netperf.tcp_stream m));
      ("udp_tx", ("UDP_STREAM TX", fun m -> Netperf.udp_stream_tx m));
      ("udp_rx", ("UDP_STREAM RX", fun m -> Netperf.udp_stream_rx m));
      ("udp_rr", ("UDP_RR", fun m -> Netperf.udp_rr m)) ]
  in
  let chosen =
    match test with
    | None -> benches
    | Some t ->
      (match List.assoc_opt t benches with
       | Some b -> [ (t, b) ]
       | None ->
         Printf.eprintf "unknown test %s (tcp_stream|udp_tx|udp_rx|udp_rr)\n" t;
         exit 1)
  in
  List.iter
    (fun (_, (name, bench)) ->
       List.iter
         (fun mode ->
            let r = bench mode in
            Printf.printf "%-16s %-18s %10.0f %-14s %5.1f%% CPU (%d samples)\n" name
              (Netperf.mode_name mode) r.Netperf.throughput r.Netperf.units r.Netperf.cpu_pct
              r.Netperf.samples)
         [ Netperf.Kernel_driver; Netperf.Sud_driver ])
    chosen

let run_mappings () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let medium = Net_medium.create eng () in
  let nic = E1000_dev.create eng ~mac:(Bytes.make 6 '\x02') ~medium () in
  let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"m" (fun () ->
         let sp = Safe_pci.init k in
         match Driver_host.launch k sp ~bdf (Driver_host.net ()) E1000.driver with
         | Error e -> prerr_endline e
         | Ok s ->
           Printf.printf "%-12s %-12s %-10s %s\n" "IOVA" "Phys" "Size" "Writable";
           List.iter
             (fun (iova, phys, len, w) ->
                Printf.printf "0x%08X   0x%08X   %-10s %b\n" iova phys
                  (Printf.sprintf "%dK" (len / 1024)) w)
             (Safe_pci.iommu_mappings (Driver_host.grant s)))
     : Fiber.t);
  Engine.run ~max_time:1_000_000_000 eng

let run_files () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let medium = Net_medium.create eng () in
  let nic = E1000_dev.create eng ~mac:(Bytes.make 6 '\x02') ~medium () in
  let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
  let sp = Safe_pci.init k in
  Safe_pci.register_device sp bdf;
  List.iter print_endline (Safe_pci.device_files sp bdf)

(* Boot a machine, echo UDP through two full driver stacks (one SUD, one
   native) so every subsystem has something to count, then read the
   registry back the way an administrator would: through sysfs. *)
let run_metrics json =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let medium = Net_medium.create eng () in
  let nic_a = E1000_dev.create eng ~mac:(Skbuff.Mac.of_string "52:54:00:00:00:0a") ~medium () in
  let nic_b = E1000_dev.create eng ~mac:(Skbuff.Mac.of_string "52:54:00:00:00:0b") ~medium () in
  let bdf_a = Kernel.attach_pci k (E1000_dev.device nic_a) in
  let bdf_b = Kernel.attach_pci k (E1000_dev.device nic_b) in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"main" (fun () ->
         let sp = Safe_pci.init k in
         let started =
           match Driver_host.launch k sp ~bdf:bdf_a ~name:"eth0" (Driver_host.net ()) E1000.driver with
           | Ok s -> s
           | Error e -> failwith e
         in
         let eth0 = Driver_host.netdev started in
         (match Netstack.ifconfig_up k.Kernel.net eth0 with
          | Ok () -> ()
          | Error e -> failwith e);
         let eth1 =
           match Native_net.attach ~name:"eth1" k E1000.driver bdf_b with
           | Ok d -> d
           | Error e -> failwith e
         in
         ignore (Netstack.ifconfig_up k.Kernel.net eth1 : (unit, string) result);
         let server = Netstack.udp_bind k.Kernel.net eth1 ~port:7 in
         ignore
           (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"echo" (fun () ->
                let rec loop () =
                  match Netstack.udp_recv k.Kernel.net server with
                  | Some (data, (src, sport)) ->
                    ignore
                      (Netstack.udp_sendto k.Kernel.net server ~dst:src ~dst_port:sport data
                       : [ `Sent | `Dropped ]);
                    loop ()
                  | None -> ()
                in
                loop ())
            : Fiber.t);
         let client = Netstack.udp_bind k.Kernel.net eth0 ~port:9999 in
         for i = 1 to 20 do
           ignore
             (Netstack.udp_sendto k.Kernel.net client ~dst:(Netdev.mac eth1) ~dst_port:7
                (Bytes.of_string (Printf.sprintf "ping %d" i))
              : [ `Sent | `Dropped ]);
           ignore (Netstack.udp_recv k.Kernel.net client : (bytes * (bytes * int)) option)
         done;
         let path =
           if json then "/sys/kernel/sud_metrics.json" else "/sys/kernel/sud_metrics"
         in
         match Sysfs.read_file k.Kernel.sysfs ~path with
         | Some body -> print_string body
         | None -> failwith (path ^ ": no such sysfs node"))
     : Fiber.t);
  Engine.run ~max_time:2_000_000_000 eng

(* The observability layer's end-to-end check; the work is
   Ctl.trace_smoke, this just formats the report. *)
let run_trace_smoke out =
  let r = Ctl.trace_smoke ~out in
  Printf.printf "fault %s: detected in %d us, outage %d us\n" r.Ctl.ts_fault
    r.Ctl.ts_detect_us r.Ctl.ts_outage_us;
  Printf.printf "%d spans exported to %s, %d parsed back\n" r.Ctl.ts_exported
    r.Ctl.ts_out r.Ctl.ts_parsed;
  Printf.printf "causal chain %s: %s\n"
    (String.concat " -> " (List.map (fun (c, nm) -> c ^ "/" ^ nm) r.Ctl.ts_chain))
    (if r.Ctl.ts_chain_found then "found" else "MISSING");
  if not r.Ctl.ts_chain_found then exit 1

(* Whole-stack storage snapshot: supervisor, proxy, block layer, device. *)
let run_blk_status () =
  let s = Ctl.blk_status () in
  Printf.printf "%s: %d sectors, supervisor %s (%d restarts, %d detections)\n"
    s.Ctl.bs_name s.Ctl.bs_capacity_sectors s.Ctl.bs_state s.Ctl.bs_restarts
    s.Ctl.bs_detections;
  Printf.printf "proxy: %d in flight, %d retained for replay\n" s.Ctl.bs_inflight
    s.Ctl.bs_retained;
  Printf.printf "cache: %d hits, %d misses, %d merges, %d flush barriers\n"
    s.Ctl.bs_cache_hits s.Ctl.bs_cache_misses s.Ctl.bs_merges s.Ctl.bs_flush_barriers;
  Printf.printf "device: %s\n" s.Ctl.bs_qp_summary;
  Printf.printf "%s\n" s.Ctl.bs_inflight_summary;
  Printf.printf "probe: %d writes ok, %d reads ok, %d io errors\n" s.Ctl.bs_writes_ok
    s.Ctl.bs_reads_ok s.Ctl.bs_io_errors;
  if s.Ctl.bs_io_errors > 0 || s.Ctl.bs_state <> "running" then exit 1

let run_driver_list () =
  let rows = Ctl.driver_list () in
  Printf.printf "%-8s %-6s %-12s %-10s %9s %9s\n" "NAME" "CLASS" "STATE" "STANDBY"
    "RESTARTS" "UPGRADES";
  List.iter
    (fun r ->
       Printf.printf "%-8s %-6s %-12s %-10s %9d %9d\n" r.Ctl.dv_name r.Ctl.dv_class
         r.Ctl.dv_state r.Ctl.dv_standby r.Ctl.dv_restarts r.Ctl.dv_upgrades)
    rows;
  if List.exists (fun r -> r.Ctl.dv_state <> "running") rows then exit 1

let run_driver_status () =
  let s = Ctl.driver_status () in
  Printf.printf "%s (%s): supervisor %s, sud_state %S\n" s.Ctl.ds_name s.Ctl.ds_class
    s.Ctl.ds_state s.Ctl.ds_sysfs_state;
  Printf.printf "standby: %s (%d warmed, %d poisoned)\n" s.Ctl.ds_standby s.Ctl.ds_warmed
    s.Ctl.ds_poisoned;
  Printf.printf "restarts: %d (%d warm swaps)   upgrades: %d   detections: %d\n"
    s.Ctl.ds_restarts s.Ctl.ds_warm_swaps s.Ctl.ds_upgrades s.Ctl.ds_detections;
  if s.Ctl.ds_state <> "running" || s.Ctl.ds_standby <> "ready" then exit 1

let print_swap s =
  (match s.Ctl.sw_error with
   | None -> Printf.printf "%s: done in %d us\n" s.Ctl.sw_op s.Ctl.sw_outage_us
   | Some e -> Printf.printf "%s: FAILED: %s\n" s.Ctl.sw_op e);
  Printf.printf "warm swaps: %d   upgrades: %d   state %s, sud_state %S\n"
    s.Ctl.sw_warm_swaps s.Ctl.sw_upgrades s.Ctl.sw_state s.Ctl.sw_sysfs_state;
  Printf.printf "probe: %d pre-swap pages intact, %d I/O errors\n" s.Ctl.sw_pages_intact
    s.Ctl.sw_io_errors;
  if not (s.Ctl.sw_ok && s.Ctl.sw_io_errors = 0 && s.Ctl.sw_state = "running") then
    exit 1

let run_driver_upgrade () = print_swap (Ctl.driver_upgrade ())
let run_driver_failover () = print_swap (Ctl.driver_failover ())

let run_protocol () =
  Printf.printf "%-22s %-10s %s\n" "Call" "Direction" "Description";
  List.iter
    (fun (n, d, desc) -> Printf.printf "%-22s %-10s %s\n" n d desc)
    Proxy_proto.figure7_sample

(* sudctl check {list,explore,replay,shrink} *)

let run_check_list () =
  Printf.printf "%-22s %-7s %s\n" "SCENARIO" "CANARY" "DESCRIPTION";
  List.iter
    (fun (name, descr, canary) ->
       Printf.printf "%-22s %-7s %s\n" name (if canary then "yes" else "") descr)
    (Ctl.check_scenarios ())

let print_shrink (sh : Check.shrink_report) =
  Printf.printf "shrink: %d -> %d decisions (ratio %.2f) in %d runs, %s\n"
    sh.Check.sh_orig_events sh.sh_min_events sh.sh_ratio sh.sh_tests
    (if sh.sh_still_fails then "still fails" else "NO LONGER FAILS");
  Option.iter (Printf.printf "minimized repro: %s\n") sh.sh_out

let run_check_explore scenario mode budget seed =
  match Ctl.check_explore ~scenario ~mode ~budget ~root_seed:seed () with
  | Error e -> prerr_endline ("sudctl check explore: " ^ e); exit 1
  | Ok h ->
    let ex = h.Check.hr_explore in
    Printf.printf "%s: %s explore, root seed 0x%Lx, %d runs, %d choice points, %.2fs\n"
      ex.Explore.ex_scenario ex.ex_mode seed ex.ex_runs ex.ex_points ex.ex_elapsed_s;
    if not ex.ex_fifo_clean then begin
      Printf.printf "FIFO baseline already fails — not a schedule bug\n";
      exit 1
    end;
    (match ex.ex_found with
     | None -> Printf.printf "no failing schedule found within the budget\n"
     | Some fd ->
       Printf.printf "found on run %d under %s:\n" fd.Explore.fd_run
         (Sched.spec_label fd.fd_spec);
       List.iter (Printf.printf "  violation: %s\n") fd.fd_outcome.Scenario.oc_failures;
       Option.iter (Printf.printf "schedule dumped: %s\n") h.hr_orig_file;
       Option.iter print_shrink h.hr_shrink)

let run_check_replay file times =
  match Ctl.check_replay ~file ~times () with
  | Error e -> prerr_endline ("sudctl check replay: " ^ e); exit 1
  | Ok r ->
    Printf.printf "%s: scenario %s, %d reruns, recorded trace hash 0x%Lx\n" r.Check.rp_file
      r.rp_scenario r.rp_times r.rp_expected_hash;
    List.iteri (fun i h -> Printf.printf "  rerun %d: trace hash 0x%Lx\n" (i + 1) h)
      r.rp_hashes;
    Printf.printf "trace %s, metrics %s\n"
      (if r.rp_trace_ok then "bit-for-bit" else "DIVERGED")
      (if r.rp_metrics_equal then "stable" else "UNSTABLE");
    if not r.rp_ok then exit 1

let run_check_shrink file =
  match Ctl.check_shrink ~file () with
  | Error e -> prerr_endline ("sudctl check shrink: " ^ e); exit 1
  | Ok sh ->
    Printf.printf "%s:\n" sh.Check.sh_scenario;
    print_shrink sh;
    if not sh.sh_still_fails then exit 1

let attack_arg =
  Arg.(value & opt (some string) None & info [ "attack" ] ~docv:"NAME"
         ~doc:"Run only attacks whose name contains $(docv).")

let test_arg =
  Arg.(value & opt (some string) None & info [ "test" ] ~docv:"NAME"
         ~doc:"One of tcp_stream, udp_tx, udp_rx, udp_rr.")

let security_cmd =
  Cmd.v (Cmd.info "security" ~doc:"Run the 5.2 attack scenarios")
    Term.(const run_security $ attack_arg)

let netperf_cmd =
  Cmd.v (Cmd.info "netperf" ~doc:"Run the Figure 8 benchmarks")
    Term.(const run_netperf $ test_arg)

let mappings_cmd =
  Cmd.v (Cmd.info "mappings" ~doc:"Print the e1000 driver's IOMMU mappings (Figure 9)")
    Term.(const run_mappings $ const ())

let files_cmd =
  Cmd.v (Cmd.info "files" ~doc:"Print the sud device files (Figure 6)")
    Term.(const run_files $ const ())

let protocol_cmd =
  Cmd.v (Cmd.info "protocol" ~doc:"Print the upcall/downcall table (Figure 7)")
    Term.(const run_protocol $ const ())

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Dump the machine-readable registry snapshot.")

let out_arg =
  Arg.(value & opt string "traces/trace_smoke.jsonl" & info [ "out" ] ~docv:"FILE"
         ~doc:"Where to write the exported span JSONL.")

let metrics_cmd =
  Cmd.v (Cmd.info "metrics" ~doc:"Run a workload and read /sys/kernel/sud_metrics")
    Term.(const run_metrics $ json_arg)

let blk_cmd =
  Cmd.group (Cmd.info "blk" ~doc:"Storage (sud-blk) administration")
    [ Cmd.v
        (Cmd.info "status"
           ~doc:"Boot a supervised NVMe, probe it, print the stack-wide status")
        Term.(const run_blk_status $ const ()) ]

let driver_cmd =
  Cmd.group (Cmd.info "driver" ~doc:"Driver generation lifecycle")
    [ Cmd.v
        (Cmd.info "list" ~doc:"List supervised drivers with their standby state")
        Term.(const run_driver_list $ const ());
      Cmd.v
        (Cmd.info "status"
           ~doc:"Show one driver's generation machinery: standby, swaps, upgrades")
        Term.(const run_driver_status $ const ());
      Cmd.v
        (Cmd.info "upgrade"
           ~doc:"Live-upgrade a supervised NVMe to its warm standby with zero loss")
        Term.(const run_driver_upgrade $ const ());
      Cmd.v
        (Cmd.info "failover"
           ~doc:"Force a failover through the real fault path (the fire drill)")
        Term.(const run_driver_failover $ const ()) ]

let trace_cmd =
  Cmd.group (Cmd.info "trace" ~doc:"Causal-trace operations")
    [ Cmd.v
        (Cmd.info "smoke"
           ~doc:"Trace an injected DMA violation end to end and verify the span chain")
        Term.(const run_trace_smoke $ out_arg) ]

let scenario_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO"
         ~doc:"Scenario name; see $(b,sudctl check list).")

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"A sud-sched/1 schedule file (JSONL).")

let mode_arg =
  Arg.(value & opt string "random" & info [ "mode" ] ~docv:"MODE"
         ~doc:"Exploration mode: $(b,random) or $(b,bounded).")

let budget_arg =
  Arg.(value & opt int 200 & info [ "budget" ] ~docv:"N"
         ~doc:"Maximum schedules to try.")

let times_arg =
  Arg.(value & opt int 3 & info [ "times" ] ~docv:"N" ~doc:"Number of reruns.")

let seed_conv =
  Arg.conv
    ( (fun s ->
        match Int64.of_string_opt s with
        | Some v -> Ok v
        | None -> Error (`Msg (Printf.sprintf "%S is not an int64 seed" s))),
      fun ppf v -> Format.fprintf ppf "0x%Lx" v )

let seed_arg =
  Arg.(value & opt seed_conv Fault_inject.default_root & info [ "seed" ] ~docv:"SEED"
         ~doc:"Root seed (accepts 0x-prefixed hex).")

let check_cmd =
  Cmd.group (Cmd.info "check" ~doc:"Schedule exploration, record/replay, shrinking")
    [ Cmd.v
        (Cmd.info "list" ~doc:"List sud-check scenarios (canaries carry seeded bugs)")
        Term.(const run_check_list $ const ());
      Cmd.v
        (Cmd.info "explore"
           ~doc:"Hunt for failing schedules; dump the first hit under traces/ and ddmin it")
        Term.(const run_check_explore $ scenario_arg $ mode_arg $ budget_arg $ seed_arg);
      Cmd.v
        (Cmd.info "replay" ~doc:"Re-execute a recorded schedule and assert bit-for-bit replay")
        Term.(const run_check_replay $ file_arg $ times_arg);
      Cmd.v
        (Cmd.info "shrink" ~doc:"Delta-debug a saved failing schedule to a minimal repro")
        Term.(const run_check_shrink $ file_arg) ]

let () =
  let info = Cmd.info "sudctl" ~version:"1.0" ~doc:"Drive the SUD reproduction" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ security_cmd; netperf_cmd; mappings_cmd; files_cmd; protocol_cmd;
            metrics_cmd; blk_cmd; driver_cmd; trace_cmd; check_cmd ]))
