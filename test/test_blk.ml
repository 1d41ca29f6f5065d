(* sud-blk: the block datapath end to end — hosted NVMe driver, kernel
   block layer, proxy, and the crash-consistent recovery machinery. *)

open Helpers

type bw = {
  nvme : Nvme_dev.t;
  bdf : Bus.bdf;
  sp : Safe_pci.t;
}

let setup_nvme (k : Kernel.t) =
  let nvme = Nvme_dev.create k.Kernel.eng () in
  let bdf = Kernel.attach_pci k (Nvme_dev.device nvme) in
  let sp = Safe_pci.init k in
  { nvme; bdf; sp }

let page ~seed =
  Bytes.init Blkdev.page_size (fun i -> Char.chr ((seed * 31 + i) land 0xff))

let sector_of_page data s = Bytes.sub data (s * Blkdev.sector_size) Blkdev.sector_size

let check_media_page nvme ~lba data what =
  for s = 0 to Blkdev.page_sectors - 1 do
    match Nvme_dev.media_sector nvme ~lba:(lba + s) with
    | None -> Alcotest.failf "%s: sector %d never persisted" what (lba + s)
    | Some sec ->
      Alcotest.(check string)
        (Printf.sprintf "%s: sector %d" what (lba + s))
        (Bytes.to_string (sector_of_page data s))
        (Bytes.to_string sec)
  done

(* Hosted driver registers; write -> cache, fsync -> media, read back. *)
let test_smoke () =
  run_in_kernel setup_nvme (fun k w ->
      let s = ok_or_fail "start_blk" (Driver_host.launch k w.sp (Driver_host.blk ()) ~bdf:w.bdf Nvme.driver) in
      let bd = Driver_host.blkdev s in
      Alcotest.(check int) "capacity" (Nvme_dev.capacity w.nvme) (Blkdev.capacity bd);
      Alcotest.(check bool) "registered in the kernel table" true
        (Blkdev.find k.Kernel.blk "nvme" <> None);
      let data = page ~seed:1 in
      ok_or_fail "write" (Blkdev.write bd ~lba:0 data ());
      Alcotest.(check bool) "not durable before fsync" true
        (Nvme_dev.media_sector w.nvme ~lba:0 = None);
      ok_or_fail "fsync" (Blkdev.fsync bd ());
      check_media_page w.nvme ~lba:0 data "after fsync";
      let rd = ok_or_fail "read" (Blkdev.read bd ~lba:0 ~sectors:Blkdev.page_sectors ()) in
      Alcotest.(check string) "read back" (Bytes.to_string data) (Bytes.to_string rd);
      (* A cold read (uncached page) round-trips through the driver. *)
      let data2 = page ~seed:2 in
      ok_or_fail "write 2" (Blkdev.write bd ~lba:8 data2 ());
      ok_or_fail "fsync 2" (Blkdev.fsync bd ());
      let rd2 = ok_or_fail "read 2" (Blkdev.read bd ~lba:8 ~sectors:Blkdev.page_sectors ()) in
      Alcotest.(check string) "read back 2" (Bytes.to_string data2) (Bytes.to_string rd2);
      Driver_host.kill s)

(* FUA write-through: durable without any flush. *)
let test_fua () =
  run_in_kernel setup_nvme (fun k w ->
      let s = ok_or_fail "start_blk" (Driver_host.launch k w.sp (Driver_host.blk ()) ~bdf:w.bdf Nvme.driver) in
      let bd = Driver_host.blkdev s in
      let data = page ~seed:7 in
      ok_or_fail "write_fua" (Blkdev.write_fua bd ~lba:16 data ());
      check_media_page w.nvme ~lba:16 data "after FUA";
      Alcotest.(check int) "fua reached the device" 1 (Nvme_dev.fua_writes w.nvme);
      Driver_host.kill s)

let blk_policy =
  { Supervisor.default_policy with
    Supervisor.tick_ns = 1_000_000;
    hang_timeout_ns = 10_000_000;
    backoff_initial_ns = 500_000;
    backoff_max_ns = 10_000_000;
    max_restarts = 100 }

let nvme_factory ~attempt:_ = Nvme.driver

(* Supervised kill: acked-but-unflushed writes survive the crash via
   replay — the device write cache is volatile and reset drops it, so
   only the proxy's retention can bring the data back. *)
let test_crash_replay () =
  run_in_kernel setup_nvme (fun k w ->
      let sv =
        ok_or_fail "start_blk supervised"
          (Supervisor.start_blk k w.sp ~policy:blk_policy ~bdf:w.bdf nvme_factory)
      in
      let bd = Option.get (Supervisor.blkdev sv) in
      let data = page ~seed:3 in
      ok_or_fail "write" (Blkdev.write bd ~lba:0 data ());
      ok_or_fail "fsync" (Blkdev.fsync bd ());
      (* A second write, acked but NOT flushed: lives only in the device's
         volatile cache and the proxy's retention. *)
      let data2 = page ~seed:4 in
      ok_or_fail "write unflushed" (Blkdev.write bd ~lba:0 data2 ());
      Alcotest.(check bool) "write is cached, not durable" true
        (Nvme_dev.media_sector w.nvme ~lba:0 <> None);
      (* Crash the driver: FLR drops the device cache. *)
      (match Supervisor.proc sv with
       | Some p -> Process.kill p
       | None -> Alcotest.fail "no driver process");
      if
        not
          (Fault_inject.poll k.Kernel.eng ~every_ns:1_000_000 ~budget:1_000 (fun () ->
               (Supervisor.stats sv).Supervisor.st_restarts >= 1
               && Supervisor.state sv = Supervisor.Running))
      then Alcotest.fail "no recovery";
      (* The acked write must survive: fsync through the fresh generation,
         then the media is the ground truth. *)
      ok_or_fail "fsync after recovery" (Blkdev.fsync bd ());
      check_media_page w.nvme ~lba:0 data2 "acked write after crash";
      let rd = ok_or_fail "read" (Blkdev.read bd ~lba:0 ~sectors:Blkdev.page_sectors ()) in
      Alcotest.(check string) "cache agrees" (Bytes.to_string data2) (Bytes.to_string rd);
      Supervisor.stop sv)

(* A dropped flush must never fake durability: the fsync blocks, the
   request timeout escalates, and the post-recovery replay makes the
   data durable before fsync returns. *)
let test_dropped_flush () =
  run_in_kernel setup_nvme (fun k w ->
      let sv =
        ok_or_fail "start_blk supervised"
          (Supervisor.start_blk k w.sp ~policy:blk_policy ~bdf:w.bdf nvme_factory)
      in
      let bd = Option.get (Supervisor.blkdev sv) in
      let data = page ~seed:5 in
      ok_or_fail "write" (Blkdev.write bd ~lba:24 data ());
      Nvme_dev.inject_drop_flush w.nvme;
      ok_or_fail "fsync rides out the recovery" (Blkdev.fsync bd ());
      check_media_page w.nvme ~lba:24 data "after dropped flush";
      Alcotest.(check bool) "a recovery happened" true
        ((Supervisor.stats sv).Supervisor.st_restarts >= 1);
      Supervisor.stop sv)

(* A corrupted completion id cannot fake durability either: the true
   victim stays in flight, blocks retention drops (flush-covering rule)
   and escalates by timeout; replay restores everything. *)
let test_corrupt_completion () =
  run_in_kernel setup_nvme (fun k w ->
      let sv =
        ok_or_fail "start_blk supervised"
          (Supervisor.start_blk k w.sp ~policy:blk_policy ~bdf:w.bdf nvme_factory)
      in
      let bd = Option.get (Supervisor.blkdev sv) in
      Nvme_dev.inject_corrupt_completion w.nvme ~mask:0x15;
      let data = page ~seed:6 in
      ok_or_fail "write" (Blkdev.write bd ~lba:32 data ());
      ok_or_fail "fsync" (Blkdev.fsync bd ());
      check_media_page w.nvme ~lba:32 data "after corrupt completion";
      Supervisor.stop sv)

(* Cold recovery latency per storage class, pinned exactly: the three
   device-level classes escalate through the request timeout and all
   end in the same restart path. *)
let test_recovery_pins () =
  List.iter
    (fun (fault, detect, outage) ->
       let s = Fault_inject.measure_blk_recovery fault in
       Alcotest.(check int) (s.Fault_inject.rs_fault ^ " detect ns") detect
         s.Fault_inject.rs_detect_ns;
       Alcotest.(check int) (s.Fault_inject.rs_fault ^ " outage ns") outage
         s.Fault_inject.rs_outage_ns)
    Fault_inject.
      [ (Crash, 947_232, 614_704);
        (Hang, 11_000_470, 610_744);
        (Corrupt_completion, 1_000_000, 610_744);
        (Drop_completion, 1_000_000, 610_744);
        (Drop_flush, 1_000_000, 610_744);
        (Crash_mid_barrier, 947_232, 614_704) ]

(* A bare block device whose fake issuer completes each request
   [delay r] ns after it is issued; [Some 0] completes it inside the
   issue call, [None] never. *)
let fake_blkdev eng ~delay =
  let bd = Blkdev.create ~eng ~name:"fake" ~queue_depth:64 ~capacity:(1 lsl 20) () in
  Blkdev.attach bd (fun r ->
      match delay r with
      | None -> ()
      | Some 0 -> Blkdev.complete r ~status:0
      | Some d ->
        ignore
          (Engine.schedule_after eng d (fun () -> Blkdev.complete r ~status:0)
           : Engine.handle));
  bd

(* Suspensions the calling fiber goes through while [f] runs. *)
let parks_of f =
  let e0 = Fiber.epoch (Fiber.self ()) in
  let v = f () in
  (v, Fiber.epoch (Fiber.self ()) - e0)

(* 16 fibers issue 256 cold reads to a device that serves one request
   at a time, in issue order: a completion wakes only the fiber whose
   batch it finished, so each fiber parks exactly once per read, and
   the device holds one timer for all of them instead of one per park. *)
let test_no_herd () =
  let eng = Engine.create () in
  let busy_until = ref 0 in
  let serial _ =
    busy_until := max !busy_until (Engine.now eng) + 1_000;
    Some (!busy_until - Engine.now eng)
  in
  let bd = fake_blkdev eng ~delay:serial in
  let fibers = 16 and per = 16 in
  let parks = Array.make fibers 0 and finished = ref 0 and pending = ref (-1) in
  for i = 0 to fibers - 1 do
    ignore
      (Fiber.spawn eng (fun () ->
           for j = 0 to per - 1 do
             let lba = ((j * fibers) + i) * Blkdev.page_sectors in
             let r, n =
               parks_of (fun () -> Blkdev.read bd ~lba ~sectors:Blkdev.page_sectors ())
             in
             ignore (ok_or_fail "read" r : bytes);
             parks.(i) <- parks.(i) + n
           done;
           incr finished;
           if !finished = fibers then begin
             pending := Engine.pending eng;
             Engine.halt eng
           end)
       : Fiber.t)
  done;
  Engine.run eng;
  Alcotest.(check int) "every fiber finished" fibers !finished;
  Array.iteri
    (fun i n -> Alcotest.(check int) (Printf.sprintf "fiber %d parks" i) per n)
    parks;
  Alcotest.(check bool) (Printf.sprintf "pending events %d <= 2" !pending) true
    (!pending <= 2);
  Alcotest.(check int) "no waiter left parked" 0 (Blkdev.parked_waiters bd)

(* What happens to one waiter of the timeout oracle: its read completes
   [d] ns after issue, never, or it is interrupted or killed [k] ns
   after issue (its read then lands late, at [2k]). *)
type fate = Completes of int | Never | Interrupt of int | Kill of int

let pp_fate = function
  | Completes d -> Printf.sprintf "completes@%d" d
  | Never -> "never"
  | Interrupt k -> Printf.sprintf "interrupt@%d" k
  | Kill k -> Printf.sprintf "kill@%d" k

(* (start, timeout_ns, fate); a completion never ties a deadline, and an
   interrupt or kill comes strictly between parking and the deadline. *)
let gen_waiter =
  let open QCheck.Gen in
  let* start = int_range 0 50_000 in
  let* timeout = oneof [ int_range 1 1_000; int_range 1_000 200_000 ] in
  let* kind = int_bound 5 and* d = int_range 0 300_000 and* k = int_range 1 300_000 in
  let d = if d = timeout then d + 1 else d in
  let fate =
    match kind with
    | 0 | 1 | 2 -> Completes d
    | 3 -> Never
    | _ ->
      if timeout < 2 then Never
      else
        let k = 1 + (k mod (timeout - 1)) in
        if kind = 4 then Interrupt k else Kill k
  in
  return (start, timeout, fate)

let arb_waiters =
  QCheck.make
    ~print:
      QCheck.Print.(
        list (fun (s, t, f) -> Printf.sprintf "start=%d timeout=%d %s" s t (pp_fate f)))
    QCheck.Gen.(list_size (int_range 1 12) gen_waiter)

(* Each waiter's read: [Ok] at the instant its batch completes if that
   comes first (without parking if it completed inside the issue call),
   otherwise "block io timed out" at exactly start + timeout_ns — also
   when a later waiter's shorter deadline falls before an earlier
   waiter's longer one.  An interrupt fails the read at that instant;
   a kill leaves nothing parked behind. *)
let timeout_oracle =
  QCheck.Test.make ~name:"blkdev waits: completion, deadline, interrupt, kill" ~count:300
    arb_waiters
    (fun ws ->
       let ws = Array.of_list ws in
       let eng = Engine.create () in
       let fate_of_page r = let _, _, f = ws.(r.Blkdev.rq_lba / Blkdev.page_sectors) in f in
       let bd =
         fake_blkdev eng ~delay:(fun r ->
             match fate_of_page r with
             | Completes d -> Some d
             | Never -> None
             | Interrupt k | Kill k -> Some (k * 2))
       in
       let got = Array.make (Array.length ws) None in
       Array.iteri
         (fun i (start, timeout_ns, fate) ->
            let f =
              Fiber.spawn eng (fun () ->
                  ignore (Fiber.sleep eng start : Fiber.wake);
                  let r, parks =
                    parks_of (fun () ->
                        Blkdev.read bd ~timeout_ns ~lba:(i * Blkdev.page_sectors)
                          ~sectors:Blkdev.page_sectors ())
                  in
                  got.(i) <- Some (Result.map (fun _ -> ()) r, Engine.now eng, parks))
            in
            match fate with
            | Interrupt k ->
              ignore
                (Engine.schedule_after eng (start + k) (fun () ->
                     ignore (Fiber.interrupt f : bool))
                 : Engine.handle)
            | Kill k ->
              ignore (Engine.schedule_after eng (start + k) (fun () -> Fiber.kill f)
                      : Engine.handle)
            | Completes _ | Never -> ())
         ws;
       Engine.run eng;
       let timed_out = Error "block io timed out" in
       let expect (start, timeout, fate) =
         match fate with
         | Completes 0 -> Some (Ok (), start, 0)
         | Completes d when d < timeout -> Some (Ok (), start + d, 1)
         | Completes _ | Never -> Some (timed_out, start + timeout, 1)
         | Interrupt k -> Some (timed_out, start + k, 1)
         | Kill _ -> None
       in
       Array.for_all2 (fun w g -> expect w = g) ws got
       && Blkdev.parked_waiters bd = 0)

let suite =
  [ Alcotest.test_case "sud-blk: hosted nvme serves write/fsync/read" `Quick test_smoke;
    Alcotest.test_case "sud-blk: FUA is write-through" `Quick test_fua;
    Alcotest.test_case "sud-blk: crash replay keeps acked writes" `Quick test_crash_replay;
    Alcotest.test_case "sud-blk: dropped flush cannot fake durability" `Quick
      test_dropped_flush;
    Alcotest.test_case "sud-blk: corrupt completion cannot fake durability" `Quick
      test_corrupt_completion;
    Alcotest.test_case "sud-blk: cold recovery latency pins" `Quick test_recovery_pins;
    Alcotest.test_case "blkdev: a completion wakes only its own waiter" `Quick test_no_herd;
    QCheck_alcotest.to_alcotest timeout_oracle ]
