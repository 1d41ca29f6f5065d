(* Seeded deterministic fault injection against a supervised driver, and
   the soak harness that exercises the supervisor's detect → contain →
   recover loop hundreds of times under live load while checking the
   containment invariants at every driver death.  One harness serves the
   net and the block class alike: one fault type and plan walker, one
   world runner, one supervised start per world, one durability oracle
   and one recovery probe. *)

let ms = 1_000_000

let sleep eng ns = ignore (Fiber.sleep eng ns : Fiber.wake)

(* Sleep [every_ns] at a time until [pred] holds or [budget] sleeps are
   spent.  Must run in a fiber. *)
let poll eng ~every_ns ~budget pred =
  let rec go left = pred () || (left > 0 && (sleep eng every_ns; go (left - 1))) in
  go budget

(* ---- fault classes and the plan DSL ---- *)

type fault =
  | Crash
  | Hang
  | Corrupt_reply
  | Drop_reply
  | Dma_violation
  | Corrupt_batch
  | Corrupt_completion     (* device flips bits in the next CQE's command id *)
  | Drop_completion        (* the next completion evaporates *)
  | Drop_flush             (* the next flush neither persists nor acks *)
  | Crash_mid_barrier      (* kill the driver while a flush is in flight *)

let all_faults = [ Crash; Hang; Corrupt_reply; Drop_reply; Dma_violation; Corrupt_batch ]

let all_blk_faults =
  [ Crash; Hang; Corrupt_completion; Drop_completion; Drop_flush; Crash_mid_barrier ]

let fault_name = function
  | Crash -> "crash"
  | Hang -> "hang"
  | Corrupt_reply -> "corrupt_reply"
  | Drop_reply -> "drop_reply"
  | Dma_violation -> "dma_violation"
  | Corrupt_batch -> "corrupt_batch"
  | Corrupt_completion -> "corrupt_completion"
  | Drop_completion -> "drop_completion"
  | Drop_flush -> "drop_flush"
  | Crash_mid_barrier -> "crash_mid_barrier"

(* A corrupt batch frame is contained in place — the kernel drops that one
   frame and delivers its siblings; nothing escalates to a restart, so
   there is no recovery latency to measure for it.  The storage classes
   without a direct detection signal escalate through the proxy's
   per-request timeout, so they end in a restart too. *)
let lethal = function
  | Crash | Hang | Corrupt_reply | Drop_reply | Dma_violation | Corrupt_completion
  | Drop_completion | Drop_flush | Crash_mid_barrier -> true
  | Corrupt_batch -> false

type injection = { at_ns : int; fault : fault }
type plan = injection list

let random_plan ~seed ~duration_ns ~n ?(faults = all_faults) () =
  if n < 0 || duration_ns <= 0 then invalid_arg "Fault_inject.random_plan";
  let rng = Rng.create ~seed in
  let arr = Array.of_list faults in
  List.init n (fun _ ->
      { at_ns = Rng.int rng duration_ns; fault = arr.(Rng.int rng (Array.length arr)) })
  |> List.sort (fun a b -> compare a.at_ns b.at_ns)

type injector_stats = {
  mutable inj_applied : int;
  mutable inj_skipped : int;
  inj_by_class : (string, int) Hashtbl.t;
}

let by_class faults st =
  List.map
    (fun f -> (fault_name f, Option.value ~default:0 (Hashtbl.find_opt st.inj_by_class (fault_name f))))
    faults

let kill_driver sv =
  match Supervisor.proc sv with
  | Some p when Process.is_alive p ->
    Process.kill p;
    true
  | Some _ | None -> false

let on_chan sv f =
  match Supervisor.chan sv with
  | Some chan when not (Uchan.is_closed chan) ->
    f chan;
    true
  | Some _ | None -> false

(* A device-level class needs its device hook; a world without one
   cannot apply it. *)
let on_hook hook f =
  match hook with
  | Some h ->
    f h;
    true
  | None -> false

(* Apply one fault to the supervisor's current driver generation.
   Injections only make sense against a Running driver; while the
   supervisor is mid-recovery there is nothing to sabotage.  The NVMe
   classes arm a one-shot hook that fires on the next matching command —
   the continuous workload guarantees one arrives. *)
let inject ~eng ~sv ?dma_violate ?nvme fault =
  Supervisor.state sv = Supervisor.Running
  &&
  match fault with
  | Crash -> kill_driver sv
  | Hang -> on_chan sv Uchan.wedge
  | Corrupt_reply -> on_chan sv (fun c -> Uchan.inject_corrupt_replies c 1)
  | Drop_reply -> on_chan sv (fun c -> Uchan.inject_drop_replies c 1)
  | Dma_violation -> on_hook dma_violate (fun f -> f ())
  | Corrupt_batch ->
    (* Garble one frame inside the next multi-frame downcall batch the
       driver flushes.  The kernel must drop exactly that frame
       (um_malformed_frames ticks) and deliver its siblings —
       containment without a restart. *)
    on_chan sv (fun c -> Uchan.inject_corrupt_batch_frames c 1)
  | Corrupt_completion -> on_hook nvme (fun d -> Nvme_dev.inject_corrupt_completion d ~mask:0x15)
  | Drop_completion -> on_hook nvme Nvme_dev.inject_drop_completion
  | Drop_flush -> on_hook nvme Nvme_dev.inject_drop_flush
  | Crash_mid_barrier ->
    (match Supervisor.current_blk sv with
     | None -> false
     | Some s ->
       let proxy = Driver_host.proxy s in
       (* Wait (bounded) for a flush barrier to be on the wire, then
          kill: the nastiest instant for durability bookkeeping.  If
          none shows up the kill still lands — it degrades to Crash. *)
       ignore
         (poll eng ~every_ns:100_000 ~budget:200 (fun () -> Proxy_blk.inflight_flush proxy)
          : bool);
       kill_driver sv)

(* Walk a plan in order, sleeping to each injection instant (relative to
   the fiber's start).  After injecting, wait for the supervisor to come
   back to Running before the next one so every planned fault lands on a
   live driver (injections against a recovering driver are no-ops). *)
let run_plan k ~sv ?dma_violate ?nvme plan =
  let eng = k.Kernel.eng in
  let t0 = Engine.now eng in
  let stats = { inj_applied = 0; inj_skipped = 0; inj_by_class = Hashtbl.create 8 } in
  (* "Running" alone is not enough: between a driver death and the
     supervisor's next tick the state still reads Running while the
     target is already gone, and a fault landing in that window would
     find nothing to sabotage.  Wait for a generation that is actually
     alive. *)
  let target_live () =
    match Supervisor.state sv with
    | Supervisor.Running ->
      (match Supervisor.proc sv with
       | Some p -> Process.is_alive p
       | None -> false)
    | Supervisor.Recovering -> false
    | _ -> true (* quarantined: no recovery coming; let inject skip *)
  in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"fault-injector"
       (fun () ->
          List.iter
            (fun { at_ns; fault } ->
               let dt = t0 + at_ns - Engine.now eng in
               if dt > 0 then sleep eng dt;
               ignore (poll eng ~every_ns:ms ~budget:1_000 target_live : bool);
               if inject ~eng ~sv ?dma_violate ?nvme fault then begin
                 stats.inj_applied <- stats.inj_applied + 1;
                 let n = fault_name fault in
                 Hashtbl.replace stats.inj_by_class n
                   (1 + Option.value ~default:0 (Hashtbl.find_opt stats.inj_by_class n))
               end
               else stats.inj_skipped <- stats.inj_skipped + 1)
            plan)
     : Fiber.t);
  stats

(* ---- the worlds and the runner ---- *)

type world = {
  eng : Engine.t;
  k : Kernel.t;
  sp : Safe_pci.t;
  medium : Net_medium.t;
  nic : E1000_dev.t;
  bdf : Bus.bdf;
  wire : int ref;          (* frames observed on the medium *)
}

let make_world () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let medium = Net_medium.create eng () in
  let wire = ref 0 in
  ignore (Net_medium.attach medium ~name:"snoop" ~rx:(fun _ -> incr wire) : Net_medium.port);
  let nic = E1000_dev.create eng ~mac:(Bytes.of_string "\x02\x00\x00\x00\x00\x01") ~medium () in
  let bdf = Kernel.attach_pci k (E1000_dev.device nic) in
  let sp = Safe_pci.init k in
  { eng; k; sp; medium; nic; bdf; wire }

type blk_world = {
  bw_eng : Engine.t;
  bw_k : Kernel.t;
  bw_sp : Safe_pci.t;
  bw_nvme : Nvme_dev.t;
  bw_bdf : Bus.bdf;
}

let make_blk_world ?capacity () =
  let eng = Engine.create () in
  let k = Kernel.boot eng in
  let nvme = Nvme_dev.create eng ?capacity () in
  let bdf = Kernel.attach_pci k (Nvme_dev.device nvme) in
  let sp = Safe_pci.init k in
  { bw_eng = eng; bw_k = k; bw_sp = sp; bw_nvme = nvme; bw_bdf = bdf }

(* ---- seed plumbing and schedule capture ---- *)

(* Every harness default seed below derives from this one root, so a
   single printed value reproduces the whole campaign; callers with
   their own root (bench, sud-check) pass explicit ?seed instead. *)
let default_root = 0x5D_D01_7E57L

let dseed tag = Rng.derive ~root:default_root tag

type sched_summary = {
  ss_policy : string;
  ss_points : int;
  ss_decisions : Sched.decision list;
  ss_steps : int;
  ss_trace_hash : int64;
  ss_metrics_hash : int64;
  ss_divergence : string option;
  ss_dump : string option;
}

(* [Kernel.run_main] under an optional scheduler, with the run's
   fingerprint: [body] returns its violations and the report to build
   around the fingerprint, which is taken at the instant [body] returns
   (the runner halts the engine there).  A run that violated an
   invariant also dumps a replayable schedule file under traces/, so the
   failure is a repro, not an anecdote. *)
let run_recorded ~scenario ~seed ?sched ~max_ms k body =
  let eng = k.Kernel.eng in
  let spec = Option.value ~default:Sched.Fifo sched in
  let rec_ = Option.map (fun s -> Sched.install eng s) sched in
  let violations, report = Kernel.run_main k ~name:scenario ~max_ms body in
  let r =
    match rec_ with
    | Some r -> r
    | None -> { Sched.rec_rev = []; rec_points = 0; rec_divergence = None }
  in
  let steps = Engine.steps eng in
  let trace_hash = Engine.trace_hash eng in
  let metrics_hash = Sud_obs.Metrics.snapshot_hash () in
  let dump =
    if violations = [] then None
    else begin
      (try if not (Sys.file_exists "traces") then Sys.mkdir "traces" 0o755
       with Sys_error _ -> ());
      let path = Printf.sprintf "traces/%s_0x%Lx.sched.jsonl" scenario seed in
      match
        Sched.save ~path
          (Sched.file_of ~scenario ~seed ~spec ~trace_hash ~metrics_hash ~steps r)
      with
      | () -> Some path
      | exception Sys_error _ -> None
    end
  in
  report
    { ss_policy = Sched.spec_label spec;
      ss_points = r.Sched.rec_points;
      ss_decisions = Sched.decisions r;
      ss_steps = steps;
      ss_trace_hash = trace_hash;
      ss_metrics_hash = metrics_hash;
      ss_divergence = r.Sched.rec_divergence;
      ss_dump = dump }

(* ---- supervision under the containment invariants ---- *)

let secret = "SOAK-SECRET-0xFEEDFACE"

(* Fast supervision policy so a multi-hundred-fault soak converges in
   bounded simulated time. *)
let soak_policy ~max_restarts =
  { Supervisor.default_policy with
    Supervisor.tick_ns = 1_000_000;
    hang_timeout_ns = 10_000_000;
    backoff_initial_ns = 500_000;
    backoff_max_ns = 10_000_000;
    max_restarts;
    restart_window_ns = 2_000_000_000;
    backlog_limit = 128;
    (* The soak and the fuzzer measure the *cold* recovery path — its
       backoff, its backlog window, its per-class outage baselines
       ([recovery.outage_ns] in bench/baseline.json).  Warm standby is
       exercised by its own harnesses ([warm_policy], [upgrade_soak],
       sud-bench/8). *)
    standby = false }

(* The same aggressive watchdog with the warm standby on: lethal faults
   swap to the pre-forked generation instead of cold-starting. *)
let warm_policy ~max_restarts = { (soak_policy ~max_restarts) with Supervisor.standby = true }

(* Containment invariants, checked at every driver death.  The snapshot
   is taken at Fault_detected (the dying generation is still current);
   the checks run at Driver_killed (process dead, grant revoked, device
   reset). *)
type invariant_ctx = {
  iv_k : Kernel.t;
  iv_bdf : Bus.bdf;
  iv_secret_addr : int;
  mutable iv_snapshot : (Safe_pci.grant * int list) option;  (* grant, mapped iovas *)
  mutable iv_violations : string list;
  mutable iv_deaths : int;
}

let violate ctx fmt =
  Printf.ksprintf (fun s -> ctx.iv_violations <- s :: ctx.iv_violations) fmt

let invariant_violations ctx = List.rev ctx.iv_violations
let invariant_deaths ctx = ctx.iv_deaths

(* Class-independent: the same containment contract holds whether the
   supervised device is a NIC or an NVMe. *)
let install_invariants_for ~k ~bdf sv ~secret_addr =
  let ctx =
    { iv_k = k;
      iv_bdf = bdf;
      iv_secret_addr = secret_addr;
      iv_snapshot = None;
      iv_violations = [];
      iv_deaths = 0 }
  in
  Supervisor.on_event sv (function
      | Supervisor.Fault_detected _ ->
        (match Supervisor.grant sv with
         | Some g ->
           let iovas =
             List.concat_map
               (fun (iova, _phys, len, _w) ->
                  List.init (len / Bus.page_size) (fun i -> iova + (i * Bus.page_size)))
               (Safe_pci.iommu_mappings g)
           in
           ctx.iv_snapshot <- Some (g, iovas)
         | None -> ctx.iv_snapshot <- None)
      | Supervisor.Driver_killed ->
        ctx.iv_deaths <- ctx.iv_deaths + 1;
        let iommu = k.Kernel.iommu in
        (* Kernel memory is untouched by anything the dying driver did. *)
        let now =
          Phys_mem.read k.Kernel.mem ~addr:ctx.iv_secret_addr ~len:(String.length secret)
        in
        if Bytes.to_string now <> secret then
          violate ctx "death %d: kernel secret page corrupted" ctx.iv_deaths;
        (* The dead generation's grant is revoked and its IOMMU domain
           detached. *)
        (match ctx.iv_snapshot with
         | None -> violate ctx "death %d: no grant snapshot at detection time" ctx.iv_deaths
         | Some (g, iovas) ->
           if Safe_pci.grant_alive g then
             violate ctx "death %d: grant still alive after driver death" ctx.iv_deaths;
           if Iommu.domain_of iommu ~source:bdf <> None then
             violate ctx "death %d: IOMMU domain still attached" ctx.iv_deaths;
           (* No stale IOTLB entry: probing any previously-mapped iova must
              not answer from the cache.  (With the domain detached the
              probe reports passthrough [`Bypass]; a [`Hit] here would be
              the stale-translation containment hole.) *)
           List.iter
             (fun iova ->
                match Iommu.translate_info iommu ~source:bdf ~addr:iova ~dir:Bus.Dma_read with
                | _, `Hit ->
                  violate ctx "death %d: stale IOTLB entry for iova 0x%x" ctx.iv_deaths iova
                | _, (`Walk | `Bypass) -> ())
             iovas;
           ctx.iv_snapshot <- None)
      | Supervisor.Driver_restarted _ | Supervisor.Driver_quarantined _ -> ());
  ctx

let install_invariants w sv ~secret_addr =
  install_invariants_for ~k:w.k ~bdf:w.bdf sv ~secret_addr

let plant_secret k =
  let addr = Phys_mem.alloc_pages k.Kernel.mem ~pages:1 in
  Phys_mem.write k.Kernel.mem ~addr (Bytes.of_string secret);
  addr

let started ~scenario = function
  | Ok sv -> sv
  | Error e -> failwith (scenario ^ ": supervised start failed: " ^ e)

let honest_factory ~attempt:_ = E1000.driver
let honest_blk_factory ~attempt:_ = Nvme.driver

let supervise ~scenario ~policy w =
  let secret_addr = plant_secret w.k in
  let sv = started ~scenario (Supervisor.start w.k w.sp ~policy ~bdf:w.bdf honest_factory) in
  let ctx = install_invariants w sv ~secret_addr in
  let dev = Supervisor.netdev sv in
  (match Netstack.ifconfig_up w.k.Kernel.net dev with
   | Ok () -> ()
   | Error e -> failwith (scenario ^ ": ifconfig up: " ^ e));
  (sv, dev, ctx)

let supervise_blk ~scenario ~policy w =
  let k = w.bw_k in
  let secret_addr = plant_secret k in
  let sv =
    started ~scenario (Supervisor.start_blk k w.bw_sp ~policy ~bdf:w.bw_bdf honest_blk_factory)
  in
  let ctx = install_invariants_for ~k ~bdf:w.bw_bdf sv ~secret_addr in
  match Supervisor.blkdev sv with
  | Some bd -> (sv, bd, ctx)
  | None -> failwith (scenario ^ ": no blkdev after start")

(* An outage longer than this (simulated time) means recovery is not
   "bounded" in any useful sense: with a 10 ms hang timeout, a 1 ms tick
   and sub-ms backoff, healthy recoveries complete well under it. *)
let outage_bound_ns = 500_000_000

(* The worst recovery outage so far; any above the bound is a violation. *)
let watch_outages sv ctx =
  let worst = ref 0 in
  Supervisor.on_event sv (function
      | Supervisor.Driver_restarted { outage_ns; _ } ->
        if outage_ns > !worst then worst := outage_ns;
        if outage_ns > outage_bound_ns then
          violate ctx "recovery outage %d ms exceeds bound" (outage_ns / 1_000_000)
      | _ -> ());
  worst

let state_name = function
  | Supervisor.Running -> "running"
  | Supervisor.Recovering -> "recovering"
  | Supervisor.Quarantined -> "quarantined"
  | Supervisor.Stopped -> "stopped"

let check_running ~scenario ctx sv =
  if Supervisor.state sv <> Supervisor.Running then
    violate ctx "%s ended with supervisor %s, expected Running" scenario
      (state_name (Supervisor.state sv))

let check_deaths ctx sv =
  let detections = (Supervisor.stats sv).Supervisor.st_detections in
  if ctx.iv_deaths <> detections then
    violate ctx "detections %d but deaths %d" detections ctx.iv_deaths

(* ---- net: live UDP traffic ---- *)

(* Continuous netperf-style UDP traffic through the supervised netdev. *)
type traffic = {
  mutable tr_offered : int;
  mutable tr_sent : int;
  mutable tr_dropped : int;
  mutable tr_stop : bool;
}

let start_traffic ?(burst = 1) w dev ~gap_ns =
  let tr = { tr_offered = 0; tr_sent = 0; tr_dropped = 0; tr_stop = false } in
  let sock = Netstack.udp_bind w.k.Kernel.net dev ~port:7000 in
  ignore
    (Process.spawn_fiber (Process.kernel_process w.k.Kernel.procs) ~name:"traffic" (fun () ->
         let payload = Bytes.make 128 'x' in
         let send () =
           tr.tr_offered <- tr.tr_offered + 1;
           match
             Netstack.udp_sendto w.k.Kernel.net sock ~dst:Skbuff.Mac.broadcast
               ~dst_port:7000 payload
           with
           | `Sent -> tr.tr_sent <- tr.tr_sent + 1
           | `Dropped -> tr.tr_dropped <- tr.tr_dropped + 1
         in
         let rec loop () =
           if not tr.tr_stop then begin
             for _ = 1 to burst do send () done;
             sleep w.eng gap_ns;
             loop ()
           end
         in
         loop ())
     : Fiber.t);
  tr

let dma_violate w () =
  (* Device-level DMA to an address the driver never mapped: the IOMMU
     must fault and attribute it to this device's BDF. *)
  ignore (Device.dma_read (E1000_dev.device w.nic) ~addr:0x6000 ~len:64 : (bytes, Bus.fault) result)

(* ---- the net soak ---- *)

type soak_report = {
  sr_seed : int64;
  sr_planned : int;
  sr_applied : int;
  sr_skipped : int;
  sr_by_class : (string * int) list;
  sr_detections : int;
  sr_restarts : int;
  sr_deaths : int;
  sr_state : Supervisor.state;
  sr_offered : int;
  sr_sent : int;
  sr_dropped : int;
  sr_wire_frames : int;
  sr_backlog : Netdev.backlog_stats;
  sr_max_outage_ns : int;
  sr_malformed : int;
  sr_corrupt_carried : int;
  sr_violations : string list;
  sr_sched : sched_summary;
}

(* Counted only once a slot carried it: an injected corruption that a
   dropped reply overtook, or that died with its driver, has nothing for
   the kernel to count.  The message keeps its "corruptions applied"
   prefix, which perfbench's fault-explore note filter matches. *)
let uncounted ~carried ~malformed =
  if carried > 0 && malformed = 0 then
    Some
      (Printf.sprintf "corruptions applied (%d carried by a slot) but no slot was ever counted malformed"
         carried)
  else None

let uncounted_corruption r = uncounted ~carried:r.sr_corrupt_carried ~malformed:r.sr_malformed

let soak ?sched ?seed ?(n_faults = 200) ?(duration_ms = 4_000) ?plan () =
  let seed = match seed with Some s -> s | None -> dseed "soak" in
  let w = make_world () in
  run_recorded ~scenario:"soak" ~seed ?sched ~max_ms:30_000 w.k (fun () ->
      let sv, dev, ctx = supervise ~scenario:"soak" ~policy:(soak_policy ~max_restarts:max_int) w in
      let max_outage = watch_outages sv ctx in
      (* um_malformed and the carried-corruption count live on the uchan,
         and every driver generation gets a fresh uchan: fold the dying
         generation's counts in at detection time (its chan is still
         current), and the final generation's at the end. *)
      let malformed = ref 0 and carried = ref 0 in
      let fold_chan () =
        match Supervisor.chan sv with
        | Some c when not (Uchan.is_closed c) ->
          let um = Uchan.metrics c in
          malformed :=
            !malformed + Sud_obs.Metrics.get um.Uchan.um_malformed
            + Sud_obs.Metrics.get um.Uchan.um_malformed_frames;
          carried := !carried + Uchan.corruptions_carried c
        | Some _ | None -> ()
      in
      Supervisor.on_event sv (function
          | Supervisor.Fault_detected _ -> fold_chan ()
          | _ -> ());
      (* Bursts of 4 at the same average rate as before: back-to-back sends
         are what makes the driver's tx_free downcalls coalesce into
         multi-frame batch slots, so Corrupt_batch injections have an
         actual batch to garble. *)
      let tr = start_traffic ~burst:4 w dev ~gap_ns:800_000 in
      let plan =
        match plan with
        | Some p -> p
        | None -> random_plan ~seed ~duration_ns:(duration_ms * ms) ~n:n_faults ()
      in
      let stats = run_plan w.k ~sv ~dma_violate:(dma_violate w) plan in
      (* Let the plan run out, then let the last recovery settle. *)
      sleep w.eng ((duration_ms + 200) * ms);
      ignore
        (poll w.eng ~every_ns:(10 * ms) ~budget:200 (fun () ->
             Supervisor.state sv <> Supervisor.Recovering)
         : bool);
      tr.tr_stop <- true;
      sleep w.eng (10 * ms);
      (* Post-soak invariants. *)
      let st = Supervisor.stats sv in
      check_running ~scenario:"soak" ctx sv;
      let bl =
        let nm = Netdev.metrics dev in
        { Netdev.bl_offered = Sud_obs.Metrics.get nm.Netdev.nm_bl_offered;
          bl_queued = Sud_obs.Metrics.gauge_value nm.Netdev.nm_bl_queued;
          bl_dropped = Sud_obs.Metrics.get nm.Netdev.nm_bl_dropped;
          bl_replayed = Sud_obs.Metrics.get nm.Netdev.nm_bl_replayed }
      in
      if bl.Netdev.bl_offered <> bl.Netdev.bl_queued + bl.Netdev.bl_dropped + bl.Netdev.bl_replayed
      then
        violate ctx "backlog accounting broken: offered %d <> queued %d + dropped %d + replayed %d"
          bl.Netdev.bl_offered bl.Netdev.bl_queued bl.Netdev.bl_dropped bl.Netdev.bl_replayed;
      check_deaths ctx sv;
      fold_chan ();
      Option.iter (violate ctx "%s") (uncounted ~carried:!carried ~malformed:!malformed);
      let violations = invariant_violations ctx in
      ( violations,
        fun sr_sched ->
          { sr_seed = seed;
            sr_planned = List.length plan;
            sr_applied = stats.inj_applied;
            sr_skipped = stats.inj_skipped;
            sr_by_class = by_class all_faults stats;
            sr_detections = st.Supervisor.st_detections;
            sr_restarts = st.Supervisor.st_restarts;
            sr_deaths = ctx.iv_deaths;
            sr_state = Supervisor.state sv;
            sr_offered = tr.tr_offered;
            sr_sent = tr.tr_sent;
            sr_dropped = tr.tr_dropped;
            sr_wire_frames = !(w.wire);
            sr_backlog = bl;
            sr_max_outage_ns = !max_outage;
            sr_malformed = !malformed;
            sr_corrupt_carried = !carried;
            sr_violations = violations;
            sr_sched } ))

(* ---- single-fault recovery latency, for the bench harness ---- *)

type recovery_sample = {
  rs_fault : string;
  rs_detect_ns : int;
  rs_outage_ns : int;
}

(* The one recovery probe, run with the workload already going: settle
   5 ms, (warm: wait for the parked standby), apply [inject_once], and
   wait up to 2 s for the first restart. *)
let probe ~scenario ~warm ~label eng sv inject_once =
  let restored = ref None in
  Supervisor.on_event sv (function
      | Supervisor.Driver_restarted { outage_ns; _ } when !restored = None ->
        restored := Some outage_ns
      | _ -> ());
  sleep eng (5 * ms);
  (* The whole point of the warm probe is the warm path: never inject
     before the standby is parked and Ready. *)
  if warm
     && not
          (poll eng ~every_ns:ms ~budget:2_000 (fun () ->
               Supervisor.standby_status sv = Standby.Ready))
  then failwith (scenario ^ ": standby never became Ready");
  if not (inject_once ()) then failwith (scenario ^ ": injection not applied: " ^ label);
  ignore (poll eng ~every_ns:ms ~budget:2_000 (fun () -> !restored <> None) : bool);
  let st = Supervisor.stats sv in
  match !restored with
  | None -> failwith (scenario ^ ": no recovery observed for " ^ label)
  | Some outage ->
    if warm && Supervisor.warm_swaps sv = 0 then
      failwith (scenario ^ ": recovery for " ^ label ^ " took the cold path");
    { rs_fault = label;
      rs_detect_ns = st.Supervisor.st_last_detect_latency_ns;
      rs_outage_ns = outage }

let measure_net ~scenario ~warm fault =
  let w = make_world () in
  Kernel.run_main w.k ~name:scenario ~max_ms:30_000 (fun () ->
      let policy = (if warm then warm_policy else soak_policy) ~max_restarts:10 in
      let sv, dev, _ = supervise ~scenario ~policy w in
      let tr = start_traffic w dev ~gap_ns:200_000 in
      let s =
        probe ~scenario ~warm ~label:(fault_name fault) w.eng sv (fun () ->
            inject ~eng:w.eng ~sv ~dma_violate:(dma_violate w) fault)
      in
      tr.tr_stop <- true;
      s)

let measure_recovery = measure_net ~scenario:"measure_recovery" ~warm:false
let measure_warm_recovery = measure_net ~scenario:"measure_warm_recovery" ~warm:true

(* ---- forced crash-loop: the restart budget must quarantine ---- *)

type quarantine_report = {
  qr_restarts : int;
  qr_quarantined : bool;
  qr_netdev_removed : bool;
  qr_sysfs_state : string;
}

let crash_loop ?(max_restarts = 3) () =
  let scenario = "crash_loop" in
  let w = make_world () in
  Kernel.run_main w.k ~name:scenario ~max_ms:30_000 (fun () ->
      let sv, dev, _ = supervise ~scenario ~policy:(soak_policy ~max_restarts) w in
      let quarantined () = Supervisor.state sv = Supervisor.Quarantined in
      (* Kill every fresh generation as soon as it comes up. *)
      ignore
        (Process.spawn_fiber (Process.kernel_process w.k.Kernel.procs) ~name:"crash-looper"
           (fun () ->
              let rec loop () =
                if not (quarantined ()) then begin
                  ignore (inject ~eng:w.eng ~sv Crash : bool);
                  sleep w.eng (2 * ms);
                  loop ()
                end
              in
              loop ())
         : Fiber.t);
      ignore (poll w.eng ~every_ns:(10 * ms) ~budget:1_000 quarantined : bool);
      let st = Supervisor.stats sv in
      let sysfs_state =
        match Sysfs.find_bdf w.k.Kernel.sysfs w.bdf with
        | Some e -> Option.value ~default:"" (Sysfs.attr e "sud_state")
        | None -> ""
      in
      { qr_restarts = st.Supervisor.st_restarts;
        qr_quarantined = quarantined ();
        qr_netdev_removed = Netstack.find_netdev w.k.Kernel.net (Netdev.name dev) = None;
        qr_sysfs_state = sysfs_state })

(* ---- the crash-consistency oracle ----

   One synchronous workload fiber writes patterned full pages.  Because
   Blkdev.write blocks until the cache accepts (and the queue acks) the
   page, the fiber's [wl_last_acked] array is, at every instant it runs,
   exactly the set of acknowledged writes.  Media may only be compared
   against it at one kind of instant: immediately after an [fsync]
   returns Ok, when everything acknowledged is durable by contract and
   nothing newer has been issued (single writer).  Every supervised
   restart forces such a check, so "no acked write lost, no unacked
   write visible" is asserted at every recovery. *)

let io_timeout_ns = 5_000_000_000

let blk_soak_pages = 64

type blk_load = {
  wl_ctx : invariant_ctx;
  wl_bd : Blkdev.t;
  wl_nvme : Nvme_dev.t;
  wl_last_acked : bytes option array;  (* per page: the last write seen acked *)
  mutable wl_writes : int;
  mutable wl_reads : int;
  mutable wl_fsyncs : int;
  mutable wl_verifies : int;
  mutable wl_io_errors : int;
  mutable wl_check_pending : bool;   (* set on Driver_restarted *)
  mutable wl_stop : bool;
  mutable wl_done : bool;
}

let new_load w sv ctx bd =
  let load =
    { wl_ctx = ctx; wl_bd = bd; wl_nvme = w.bw_nvme;
      wl_last_acked = Array.make blk_soak_pages None;
      wl_writes = 0; wl_reads = 0; wl_fsyncs = 0; wl_verifies = 0; wl_io_errors = 0;
      wl_check_pending = false; wl_stop = false; wl_done = false }
  in
  Supervisor.on_event sv (function
      | Supervisor.Driver_restarted _ -> load.wl_check_pending <- true
      | _ -> ());
  load

let pattern page gen =
  Bytes.init Blkdev.page_size (fun i -> Char.chr ((page * 131 + gen * 31 + i) land 0xff))

let verify_media load why =
  load.wl_verifies <- load.wl_verifies + 1;
  Array.iteri
    (fun page data ->
       match data with
       | None -> ()
       | Some data ->
         let lba0 = page * Blkdev.page_sectors in
         for s = 0 to Blkdev.page_sectors - 1 do
           let expect = Bytes.sub data (s * Blkdev.sector_size) Blkdev.sector_size in
           match Nvme_dev.media_sector load.wl_nvme ~lba:(lba0 + s) with
           | None ->
             violate load.wl_ctx "%s: acked write to sector %d lost (never on media)" why
               (lba0 + s)
           | Some got ->
             if not (Bytes.equal got expect) then
               violate load.wl_ctx "%s: media mismatch at sector %d" why (lba0 + s)
         done)
    load.wl_last_acked

let fsync_and_verify load why =
  match Blkdev.fsync load.wl_bd ~timeout_ns:io_timeout_ns () with
  | Ok () ->
    load.wl_fsyncs <- load.wl_fsyncs + 1;
    verify_media load why
  | Error e ->
    load.wl_io_errors <- load.wl_io_errors + 1;
    violate load.wl_ctx "%s: fsync failed: %s" why e

(* Spawn the single writer.  Each round runs a pending post-recovery
   check, writes one patterned page to a random page, then the soak's
   own [step gen], 50 µs apart. *)
let start_load k load ~rng step =
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:"blk-load" (fun () ->
         let gen = ref 0 in
         while not load.wl_stop do
           if load.wl_check_pending then begin
             load.wl_check_pending <- false;
             fsync_and_verify load "post-recovery check"
           end;
           incr gen;
           let page = Rng.int rng blk_soak_pages in
           let data = pattern page !gen in
           (match
              Blkdev.write load.wl_bd ~timeout_ns:io_timeout_ns
                ~lba:(page * Blkdev.page_sectors) data ()
            with
            | Ok () ->
              load.wl_writes <- load.wl_writes + 1;
              load.wl_last_acked.(page) <- Some data
            | Error e ->
              load.wl_io_errors <- load.wl_io_errors + 1;
              violate load.wl_ctx "write to page %d failed: %s" page e);
           step !gen;
           sleep k.Kernel.eng 50_000
         done;
         load.wl_done <- true)
     : Fiber.t)

(* Stop and join the writer, then the end-of-soak barrier: everything
   acked must be durable. *)
let stop_load eng load =
  load.wl_stop <- true;
  ignore (poll eng ~every_ns:(10 * ms) ~budget:1_000 (fun () -> load.wl_done) : bool);
  fsync_and_verify load "final check"

(* ---- the block soak ---- *)

type blk_soak_report = {
  bsr_seed : int64;
  bsr_planned : int;
  bsr_applied : int;
  bsr_skipped : int;
  bsr_by_class : (string * int) list;
  bsr_detections : int;
  bsr_restarts : int;
  bsr_deaths : int;
  bsr_state : Supervisor.state;
  bsr_writes : int;
  bsr_reads : int;
  bsr_fsyncs : int;
  bsr_verifies : int;
  bsr_io_errors : int;
  bsr_max_outage_ns : int;
  bsr_retained_end : int;
  bsr_inflight_end : int;
  bsr_by_reason : (string * int) list;
  bsr_violations : string list;
  bsr_sched : sched_summary;
}

let blk_soak ?sched ?seed ?(n_faults = 200) ?(duration_ms = 6_000) ?plan () =
  let seed = match seed with Some s -> s | None -> dseed "blk-soak" in
  let w = make_blk_world () in
  run_recorded ~scenario:"blk-soak" ~seed ?sched ~max_ms:120_000 w.bw_k (fun () ->
      let k = w.bw_k and eng = w.bw_eng in
      let sv, bd, ctx =
        supervise_blk ~scenario:"blk-soak" ~policy:(soak_policy ~max_restarts:max_int) w
      in
      let max_outage = watch_outages sv ctx in
      let load = new_load w sv ctx bd in
      let reasons = Hashtbl.create 8 in
      Supervisor.on_event sv (function
          | Supervisor.Fault_detected reason ->
            Hashtbl.replace reasons reason
              (1 + Option.value ~default:0 (Hashtbl.find_opt reasons reason))
          | _ -> ());
      let rng = Rng.create ~seed:(Int64.add seed 1L) in
      start_load k load ~rng (fun gen ->
          (* Read-back: the cache must agree with the last ack. *)
          if gen mod 4 = 0 then begin
            let rp = Rng.int rng blk_soak_pages in
            match load.wl_last_acked.(rp) with
            | None -> ()
            | Some expect ->
              (match
                 Blkdev.read bd ~timeout_ns:io_timeout_ns ~lba:(rp * Blkdev.page_sectors)
                   ~sectors:Blkdev.page_sectors ()
               with
               | Ok got ->
                 load.wl_reads <- load.wl_reads + 1;
                 if not (Bytes.equal got expect) then
                   violate ctx "read of page %d disagrees with last acked write" rp
               | Error e ->
                 load.wl_io_errors <- load.wl_io_errors + 1;
                 violate ctx "read of page %d failed: %s" rp e)
          end;
          if gen mod 6 = 0 then fsync_and_verify load "periodic check");
      let plan =
        match plan with
        | Some p -> p
        | None ->
          random_plan ~seed ~duration_ns:(duration_ms * ms) ~n:n_faults ~faults:all_blk_faults ()
      in
      let stats = run_plan k ~sv ~nvme:w.bw_nvme plan in
      sleep eng ((duration_ms + 200) * ms);
      ignore
        (poll eng ~every_ns:(10 * ms) ~budget:200 (fun () ->
             Supervisor.state sv <> Supervisor.Recovering)
         : bool);
      (* The final check must also leave the proxy's retention fully
         drained. *)
      stop_load eng load;
      let retained, inflight =
        match Supervisor.current_blk sv with
        | Some s ->
          let p = Driver_host.proxy s in
          (Proxy_blk.retained p, Proxy_blk.inflight p)
        | None -> (-1, -1)
      in
      if retained <> 0 then
        violate ctx "final fsync left %d writes retained (flush did not cover)" retained;
      if inflight <> 0 then begin
        violate ctx "%d requests still in flight after final fsync" inflight;
        match Supervisor.current_blk sv with
        | Some s -> violate ctx "stuck:\n%s" (Proxy_blk.inflight_summary (Driver_host.proxy s))
        | None -> ()
      end;
      let st = Supervisor.stats sv in
      check_running ~scenario:"blk-soak" ctx sv;
      check_deaths ctx sv;
      let violations = invariant_violations ctx in
      ( violations,
        fun bsr_sched ->
          { bsr_seed = seed;
            bsr_planned = List.length plan;
            bsr_applied = stats.inj_applied;
            bsr_skipped = stats.inj_skipped;
            bsr_by_class = by_class all_blk_faults stats;
            bsr_detections = st.Supervisor.st_detections;
            bsr_restarts = st.Supervisor.st_restarts;
            bsr_deaths = ctx.iv_deaths;
            bsr_state = Supervisor.state sv;
            bsr_writes = load.wl_writes;
            bsr_reads = load.wl_reads;
            bsr_fsyncs = load.wl_fsyncs;
            bsr_verifies = load.wl_verifies;
            bsr_io_errors = load.wl_io_errors;
            bsr_max_outage_ns = !max_outage;
            bsr_retained_end = retained;
            bsr_inflight_end = inflight;
            bsr_by_reason =
              Hashtbl.fold (fun r n acc -> (r, n) :: acc) reasons []
              |> List.sort (fun (ra, a) (rb, b) ->
                     (* count desc, then name: hash order must not pick the
                        tie-break winner or reports differ across replays. *)
                     match compare b a with 0 -> compare ra rb | c -> c);
            bsr_violations = violations;
            bsr_sched } ))

(* ---- single-fault blk recovery latency, cold and warm ---- *)

let measure_blk ~scenario ~warm fault =
  let w = make_blk_world () in
  let eng = w.bw_eng in
  (* Injection at 5 ms, recovery waited on for at most ~2 s: 10 s of
     simulated time is ample before the run counts as stuck. *)
  Kernel.run_main w.bw_k ~name:scenario ~max_ms:10_000 (fun () ->
      let policy = (if warm then warm_policy else soak_policy) ~max_restarts:10 in
      let sv, bd, _ = supervise_blk ~scenario ~policy w in
      let stop = ref false in
      ignore
        (Process.spawn_fiber (Process.kernel_process w.bw_k.Kernel.procs) ~name:"blk-load"
           (fun () ->
              let gen = ref 0 in
              while not !stop do
                incr gen;
                let page = !gen mod 8 in
                let data = Bytes.make Blkdev.page_size (Char.chr (!gen land 0xff)) in
                ignore
                  (Blkdev.write bd ~timeout_ns:io_timeout_ns
                     ~lba:(page * Blkdev.page_sectors) data ()
                   : (unit, string) result);
                if !gen mod 4 = 0 then
                  ignore (Blkdev.fsync bd ~timeout_ns:io_timeout_ns () : (unit, string) result);
                sleep eng 50_000
              done)
         : Fiber.t);
      let s =
        probe ~scenario ~warm ~label:("blk_" ^ fault_name fault) eng sv (fun () ->
            inject ~eng ~sv ~nvme:w.bw_nvme fault)
      in
      stop := true;
      s)

let measure_blk_recovery = measure_blk ~scenario:"measure_blk_recovery" ~warm:false
let measure_warm_blk_recovery = measure_blk ~scenario:"measure_warm_blk_recovery" ~warm:true

(* ---- warm standby: upgrades, poison, and the interleaving soak ---- *)

let inject_standby_poison ~sv =
  match Supervisor.standby_proc sv with
  | Some p when Process.is_alive p ->
    Process.kill p;
    true
  | Some _ | None -> false

type upgrade_soak_report = {
  usr_seed : int64;
  usr_interleavings : int;
  usr_upgrades : int;
  usr_warm_swaps : int;
  usr_cold_restarts : int;
  usr_poisoned : int;
  usr_writes : int;
  usr_fsyncs : int;
  usr_verifies : int;
  usr_io_errors : int;
  usr_state : Supervisor.state;
  usr_violations : string list;
  usr_sched : sched_summary;
}

let upgrade_soak ?sched ?seed ?(interleavings = 20) () =
  let seed = match seed with Some s -> s | None -> dseed "upgrade-soak" in
  let w = make_blk_world () in
  run_recorded ~scenario:"upgrade-soak" ~seed ?sched ~max_ms:180_000 w.bw_k (fun () ->
      let k = w.bw_k and eng = w.bw_eng in
      let sv, bd, ctx =
        supervise_blk ~scenario:"upgrade-soak" ~policy:(warm_policy ~max_restarts:max_int) w
      in
      let load = new_load w sv ctx bd in
      let rng = Rng.create ~seed in
      start_load k load ~rng (fun gen ->
          if gen mod 6 = 0 then
            match Blkdev.fsync bd ~timeout_ns:io_timeout_ns () with
            | Ok () -> load.wl_fsyncs <- load.wl_fsyncs + 1
            | Error e ->
              load.wl_io_errors <- load.wl_io_errors + 1;
              violate ctx "periodic fsync failed: %s" e);
      (* Bounded wait for the warm slot; the watchdog's [ensure] keeps
         re-warming, so Ready is eventually reached unless quarantined. *)
      let standby_ready () =
        ignore
          (poll eng ~every_ns:ms ~budget:2_000 (fun () ->
               Supervisor.standby_status sv = Standby.Ready)
           : bool)
      in
      let crash () = ignore (inject ~eng ~sv ~nvme:w.bw_nvme Crash : bool) in
      (* Let the first writes land and the first standby warm up. *)
      sleep eng (5 * ms);
      for i = 1 to interleavings do
        (match Rng.int rng 6 with
         | 0 ->
           (* Plain live upgrade: zero-loss swap to the standby. *)
           standby_ready ();
           (match Supervisor.upgrade sv with
            | Ok () -> ()
            | Error e -> violate ctx "interleaving %d: upgrade failed: %s" i e)
         | 1 ->
           (* Administrative failover: the fire drill through recover. *)
           (match Supervisor.failover sv with
            | Ok () -> ()
            | Error e -> violate ctx "interleaving %d: failover failed: %s" i e)
         | 2 ->
           (* A lethal fault while the standby is warm: the swap path. *)
           standby_ready ();
           crash ()
         | 3 ->
           (* A device-level fault that escalates through the request
              timeout — recovery with retained-write replay. *)
           let f =
             match Rng.int rng 3 with
             | 0 -> Corrupt_completion
             | 1 -> Drop_completion
             | _ -> Drop_flush
           in
           ignore (inject ~eng ~sv ~nvme:w.bw_nvme f : bool)
         | 4 ->
           (* Standby poisoned: kill the parked generation, then upgrade.
              The poisoned slot must be discarded and rebuilt, never
              swapped in. *)
           standby_ready ();
           let _, poisoned0 = Supervisor.standby_stats sv in
           if inject_standby_poison ~sv then begin
             (match Supervisor.upgrade sv with
              | Ok () -> ()
              | Error e ->
                violate ctx "interleaving %d: upgrade after poison failed: %s" i e);
             let _, poisoned1 = Supervisor.standby_stats sv in
             if poisoned1 <= poisoned0 then
               violate ctx
                 "interleaving %d: poisoned standby was never detected as poisoned" i
           end
         | _ ->
           (* Upgrade during fault: a crash racing the upgrade drain.
              Either order is a legal interleaving — the upgrade may
              fail ("driver not running" or double failover), but acked
              writes must survive regardless. *)
           standby_ready ();
           let delay_ns = 200_000 + Rng.int rng 3_000_000 in
           ignore
             (Process.spawn_fiber (Process.kernel_process k.Kernel.procs)
                ~name:"upgrade-crasher" (fun () ->
                    sleep eng delay_ns;
                    crash ())
              : Fiber.t);
           ignore (Supervisor.upgrade sv : (unit, string) result));
        let running () = Supervisor.state sv = Supervisor.Running in
        if not (poll eng ~every_ns:ms ~budget:5_000 running) then
          violate ctx "interleaving %d: supervisor not Running afterwards" i
        else begin
          (* The media sweep must not race the writer: hand the check to
             the load fiber (the only mutator of [wl_last_acked]), exactly
             like the post-recovery checks. *)
          load.wl_check_pending <- true;
          ignore
            (poll eng ~every_ns:ms ~budget:2_000 (fun () -> not load.wl_check_pending) : bool)
        end
      done;
      stop_load eng load;
      let st = Supervisor.stats sv in
      check_running ~scenario:"upgrade-soak" ctx sv;
      let _, poisoned = Supervisor.standby_stats sv in
      let violations = invariant_violations ctx in
      ( violations,
        fun usr_sched ->
          { usr_seed = seed;
            usr_interleavings = interleavings;
            usr_upgrades = st.Supervisor.st_upgrades;
            usr_warm_swaps = st.Supervisor.st_warm_swaps;
            usr_cold_restarts = st.Supervisor.st_restarts - st.Supervisor.st_warm_swaps;
            usr_poisoned = poisoned;
            usr_writes = load.wl_writes;
            usr_fsyncs = load.wl_fsyncs;
            usr_verifies = load.wl_verifies;
            usr_io_errors = load.wl_io_errors;
            usr_state = Supervisor.state sv;
            usr_violations = violations;
            usr_sched } ))
