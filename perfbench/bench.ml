(* perfbench: the end-to-end and per-layer benchmark of the SUD simulator.

     dune exec perfbench/bench.exe -- --workload net-udp-rx --seed 1 --seconds 10 --trace 0

   Four workloads, all on the SUD-hosted (untrusted) driver:

     net-udp-rx      peer floods the DUT's e1000 with 64-byte datagrams (open loop)
     net-tcp-stream  peer streams 16 KiB sends into the DUT (closed loop, ACK-clocked)
     blk-mixed       16 closed-loop workers on the supervised NVMe: cold reads + FUA writes
     fault-explore   seeded-random schedules of the sud-check mini-soak body

   Every measured phase is a fixed span of simulated time (or a fixed
   number of schedules) derived from --seconds alone, so two commits
   simulate exactly the same work.  The benchmark drives the system only
   through public calls and reads counters only from the handles of the
   machine under test (the DUT), never from the process-global metrics
   registry (see NOTES.md).

   --trace 0 prints the end-to-end metrics; --trace 1 repeats the run
   with the benchmark's spans and the Sud_obs trace points on, runs the
   net workloads once more with the in-kernel driver, and prints the
   per-layer metrics.  The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  The exit code is
   nonzero when any output check, the CPU ledger closure or a
   determinism check fails. *)

let die fmt =
  Printf.ksprintf
    (fun s ->
       prerr_endline ("perfbench: " ^ s);
       exit 2)
    fmt

(* ---- command line: every flag is checked, nothing is ignored ---- *)

let workload_names = [ "net-udp-rx"; "net-tcp-stream"; "blk-mixed"; "fault-explore" ]

let usage =
  "usage: bench.exe --workload (" ^ String.concat "|" workload_names
  ^ ") [--seed N] [--seconds N] [--trace 0|1]"

type args = { workload : string; seed : int; seconds : int; trace : bool }

let parse_args argv =
  let int_arg flag v lo hi =
    match int_of_string_opt v with
    | Some n when n >= lo && n <= hi -> n
    | _ -> die "%s expects an integer in [%d, %d], got %S\n%s" flag lo hi v usage
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest ->
      if List.mem v workload_names then go { a with workload = v } rest
      else die "unknown workload %S\n%s" v usage
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v 0 max_int } rest
    | "--seconds" :: v :: rest -> go { a with seconds = int_arg "--seconds" v 1 600 } rest
    | "--trace" :: v :: rest -> go { a with trace = int_arg "--trace" v 0 1 = 1 } rest
    | x :: _ -> die "unknown or incomplete argument %S\n%s" x usage
  in
  let a =
    go { workload = ""; seed = 1; seconds = 10; trace = false } (List.tl (Array.to_list argv))
  in
  if a.workload = "" then die "--workload is required\n%s" usage;
  a

(* ---- small helpers ---- *)

module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)

  let sorted v =
    let s = Array.sub v.a 0 v.n in
    Array.sort compare s;
    s
end

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Host time is the process's CPU time (getrusage, microsecond
   resolution): the simulator is one single-threaded process, so this is
   its wall time minus whatever the OS gave to other processes. *)
let host_now = Sys.time

(* The speed of a shared virtual machine drifts by tens of percent from
   one minute to the next, which no amount of repetition averages away.
   Every host-time figure is therefore scaled to a nominal machine
   speed: a fixed reference workload, which shares no code with the
   system under test, is timed right before and right after each
   measured region, and the region's time is multiplied by
   [reference_nominal_s] over the reference's recent median time. *)
let reference_nominal_s = 0.006

let reference_table : (int, int list) Hashtbl.t = Hashtbl.create 4096
let reference_array = Array.make (1 lsl 19) 0

(* Two parts, summed: hashing, small allocations and closures like the
   engine's hot path, and random reads and writes over a 4 MiB array
   like its cache misses.  On a 2-vCPU Xeon (2.1 GHz) VM the sum tracked
   the simulator's speed better than either part alone: over six
   net-tcp-stream runs the scaled rate ranged 5% (7% and 10% for the
   parts), the raw rate 60%. *)
let reference () =
  let t0 = host_now () in
  let acc = ref [] in
  for i = 0 to 20_000 do
    let k = i * 7919 land 65535 in
    Hashtbl.replace reference_table k
      (i :: (match Hashtbl.find_opt reference_table k with Some (x :: _) -> [ x ] | _ -> []));
    acc := (fun x -> x + i) :: (if i land 63 = 0 then [] else !acc);
    let a = Array.make 8 i in
    ignore (Sys.opaque_identity (Array.fold_left ( + ) 0 a + (List.hd !acc) 1))
  done;
  let sum = ref 0 and mask = Array.length reference_array - 1 in
  for i = 0 to 300_000 do
    let j = i * 104729 land mask in
    sum := !sum + reference_array.(j);
    reference_array.(j) <- i
  done;
  ignore (Sys.opaque_identity !sum);
  host_now () -. t0

(* The last five reference times.  Their median is the speed estimate:
   it ignores a sample cut short by an interruption, yet follows the
   drift within a second or so. *)
let recent_references = Queue.create ()

let sample_reference () =
  Queue.add (reference ()) recent_references;
  if Queue.length recent_references > 5 then ignore (Queue.pop recent_references : float)

(* Scale factor for the region that just ended: call [sample_reference]
   before it and [speed] right after. *)
let speed () =
  sample_reference ();
  reference_nominal_s /. median (List.of_seq (Queue.to_seq recent_references))

(* Stateless 63-bit mixer: payload patterns are a pure function of
   (seed, stream, index), so the checker recomputes them. *)
let mix x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x3fb5d329728ea185 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x1b873593 in
  x lxor (x lsr 33)

let seed_jitter seed tag bound = mix (seed + (tag * 0x9E3779B1)) land max_int mod bound

(* ---- spans: the benchmark's own, kept in memory, written at the end ---- *)

type bspan = {
  b_id : int;
  b_parent : int;
  b_name : string;
  b_host0 : float;
  b_host1 : float;
  b_sim0 : int;
  b_sim1 : int;
}

let tracing = ref false
let bspans : bspan list ref = ref []
let bspan_last = ref 0
let bspan_current = ref 0

let record_span ~parent ~name ~host0 ~sim0 ~sim1 =
  incr bspan_last;
  bspans :=
    { b_id = !bspan_last;
      b_parent = parent;
      b_name = name;
      b_host0 = host0;
      b_host1 = host_now ();
      b_sim0 = sim0;
      b_sim1 = sim1 }
    :: !bspans

(* [span ~clock name f] runs [f] under a span named [name]; spans opened
   inside it take it as parent.  No-op unless the traced pass is on. *)
let span ?(clock = fun () -> 0) name f =
  if not !tracing then f ()
  else begin
    let parent = !bspan_current in
    incr bspan_last;
    let id = !bspan_last in
    let host0 = host_now () and sim0 = clock () in
    bspan_current := id;
    let r = Fun.protect ~finally:(fun () -> bspan_current := parent) f in
    bspans :=
      { b_id = id; b_parent = parent; b_name = name; b_host0 = host0; b_host1 = host_now ();
        b_sim0 = sim0; b_sim1 = clock () }
      :: !bspans;
    r
  end

(* Sud_obs trace points: counted per (category, name) after every slice,
   so the bounded ring never overflows between drains. *)
let trace_counts : (string, int) Hashtbl.t = Hashtbl.create 64
let trace_dropped = ref 0

let drain_trace () =
  if !tracing then begin
    List.iter
      (fun (sp : Sud_obs.Trace.span) ->
         let key = sp.Sud_obs.Trace.sp_cat ^ "/" ^ sp.sp_name in
         Hashtbl.replace trace_counts key
           (1 + Option.value ~default:0 (Hashtbl.find_opt trace_counts key)))
      (Sud_obs.Trace.spans ());
    trace_dropped := !trace_dropped + Sud_obs.Trace.dropped ();
    Sud_obs.Trace.reset ()
  end

let set_tracing on =
  tracing := on;
  Sud_obs.Trace.set_enabled on;
  if on then Sud_obs.Trace.set_capacity (1 lsl 18)

(* ---- counters read from the DUT's own handles ---- *)

type handles = {
  h_eng : Engine.t;
  h_cpu : Cpu.t;
  h_iommu : Iommu.t;
  h_chan : Uchan.t option;
  h_grant : Safe_pci.grant option;
  h_nic : E1000_dev.t option;
  h_blk : Blkdev.t option;
}

type probe = {
  p_sim : int;
  p_steps : int;
  p_busy : int;
  p_labels : (string * int) list;
  p_hits : int;
  p_misses : int;
  p_msgs : int;
  p_notify : int;
  p_rpc : int array;
  p_irqs : int;
  p_landed : int;
  p_bhits : int;
  p_bmisses : int;
  p_merges : int;
  p_minor : float;
  p_major : int;
}

let zero_probe =
  { p_sim = 0; p_steps = 0; p_busy = 0; p_labels = []; p_hits = 0; p_misses = 0; p_msgs = 0;
    p_notify = 0; p_rpc = Array.make 64 0; p_irqs = 0; p_landed = 0; p_bhits = 0;
    p_bmisses = 0; p_merges = 0; p_minor = 0.0; p_major = 0 }

let probe h =
  let module M = Sud_obs.Metrics in
  let im = Iommu.metrics h.h_iommu in
  let msgs, notify, rpc =
    match h.h_chan with
    | Some c ->
      let um = Uchan.metrics c in
      (M.get um.Uchan.um_up + M.get um.um_down, M.get um.um_notify, M.hist_buckets um.um_rpc_ns)
    | None -> (0, 0, Array.make 64 0)
  in
  let landed =
    match h.h_nic with
    | Some nic ->
      let q = match h.h_grant with Some g -> max 1 (Safe_pci.grant_num_vectors g) | None -> 1 in
      List.fold_left (fun acc queue -> acc + E1000_dev.rx_queue_frames nic ~queue) 0
        (List.init q Fun.id)
    | None -> 0
  in
  let bhits, bmisses, merges, _ =
    match h.h_blk with Some bd -> Blkdev.metrics bd | None -> (0, 0, 0, 0)
  in
  let gc = Gc.quick_stat () in
  { p_sim = Engine.now h.h_eng;
    p_steps = Engine.steps h.h_eng;
    p_busy = Cpu.busy_ns h.h_cpu;
    p_labels = Cpu.labels h.h_cpu;
    p_hits = M.gauge_value im.Iommu.im_hits;
    p_misses = M.gauge_value im.Iommu.im_misses;
    p_msgs = msgs;
    p_notify = notify;
    p_rpc = rpc;
    p_irqs = (match h.h_grant with Some g -> Safe_pci.grant_irqs_delivered g | None -> 0);
    p_landed = landed;
    p_bhits = bhits;
    p_bmisses = bmisses;
    p_merges = merges;
    p_minor = gc.Gc.minor_words;
    p_major = gc.Gc.major_collections }

let merge_labels f a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map
    (fun k ->
       let get l = Option.value ~default:0 (List.assoc_opt k l) in
       (k, f (get a) (get b)))
    keys

(* Counter deltas between two probes; [combine] adds deltas of separate
   worlds (fault-explore boots one per schedule). *)
let delta p0 p1 =
  { p_sim = p1.p_sim - p0.p_sim;
    p_steps = p1.p_steps - p0.p_steps;
    p_busy = p1.p_busy - p0.p_busy;
    p_labels = merge_labels (fun a b -> b - a) p0.p_labels p1.p_labels;
    p_hits = p1.p_hits - p0.p_hits;
    p_misses = p1.p_misses - p0.p_misses;
    p_msgs = p1.p_msgs - p0.p_msgs;
    p_notify = p1.p_notify - p0.p_notify;
    p_rpc = Array.init 64 (fun i -> p1.p_rpc.(i) - p0.p_rpc.(i));
    p_irqs = p1.p_irqs - p0.p_irqs;
    p_landed = p1.p_landed - p0.p_landed;
    p_bhits = p1.p_bhits - p0.p_bhits;
    p_bmisses = p1.p_bmisses - p0.p_bmisses;
    p_merges = p1.p_merges - p0.p_merges;
    p_minor = p1.p_minor -. p0.p_minor;
    p_major = p1.p_major - p0.p_major }

let combine a b =
  { p_sim = a.p_sim + b.p_sim;
    p_steps = a.p_steps + b.p_steps;
    p_busy = a.p_busy + b.p_busy;
    p_labels = merge_labels ( + ) a.p_labels b.p_labels;
    p_hits = a.p_hits + b.p_hits;
    p_misses = a.p_misses + b.p_misses;
    p_msgs = a.p_msgs + b.p_msgs;
    p_notify = a.p_notify + b.p_notify;
    p_rpc = Array.init 64 (fun i -> a.p_rpc.(i) + b.p_rpc.(i));
    p_irqs = a.p_irqs + b.p_irqs;
    p_landed = a.p_landed + b.p_landed;
    p_bhits = a.p_bhits + b.p_bhits;
    p_bmisses = a.p_bmisses + b.p_bmisses;
    p_merges = a.p_merges + b.p_merges;
    p_minor = a.p_minor +. b.p_minor;
    p_major = a.p_major + b.p_major }

(* ---- the CPU ledger: every busy ns of the DUT in exactly one layer ---- *)

type ledger = { driver : int; kernel : int; sud : int; iommu : int; irq : int }

let kernel_driver_label = "kernel:" ^ E1000.driver.Driver_api.nd_name

(* [proc:<name>] is the SUD driver process (or, for the in-kernel twin,
   [kernel:e1000] the in-kernel driver); [proc:kernel] and any other
   [kernel:*] charge is kernel work. *)
let category label =
  if label = "proc:kernel" then `Kernel
  else if label = kernel_driver_label || String.starts_with ~prefix:"proc:" label then `Driver
  else if label = "kernel:sud" then `Sud
  else if label = "hw:iommu" then `Iommu
  else if String.starts_with ~prefix:"kernel:irq:" label then `Irq
  else `Kernel

let ledger_of d =
  List.fold_left
    (fun l (label, ns) ->
       match category label with
       | `Driver -> { l with driver = l.driver + ns }
       | `Kernel -> { l with kernel = l.kernel + ns }
       | `Sud -> { l with sud = l.sud + ns }
       | `Iommu -> { l with iommu = l.iommu + ns }
       | `Irq -> { l with irq = l.irq + ns })
    { driver = 0; kernel = 0; sud = 0; iommu = 0; irq = 0 }
    d.p_labels

let ledger_total l = l.driver + l.kernel + l.sud + l.iommu + l.irq

let ledger_rows ~ops l =
  let per ns = ratio ns ops in
  [ ("cpu.driver_ns_per_op", per l.driver);
    ("cpu.kernel_ns_per_op", per l.kernel);
    ("cpu.sud_ns_per_op", per l.sud);
    ("cpu.iommu_ns_per_op", per l.iommu);
    ("cpu.irq_ns_per_op", per l.irq) ]

(* Log2-bucketed uchan RPC histogram: report the bucket's midpoint. *)
let hist_pct buckets p =
  let total = Array.fold_left ( + ) 0 buckets in
  if total = 0 then 0.0
  else begin
    let target = int_of_float (ceil (p *. float_of_int total)) in
    let rec find i acc =
      let acc = acc + buckets.(i) in
      if acc >= target || i = 63 then i else find (i + 1) acc
    in
    let i = find 0 0 in
    1.5 *. Float.pow 2.0 (float_of_int i) /. 1e3
  end

let layer_rows ~ops ~host_s d =
  let translations = d.p_hits + d.p_misses in
  [ ("engine.events_per_op", ratio d.p_steps ops);
    ("engine.host_ns_per_event", if d.p_steps = 0 then 0.0 else host_s *. 1e9 /. float_of_int d.p_steps);
    ("gc.minor_words_per_event",
     if d.p_steps = 0 then 0.0 else d.p_minor /. float_of_int d.p_steps);
    ("gc.major_collections", float_of_int d.p_major) ]
  @ ledger_rows ~ops (ledger_of d)
  @ [ ("iommu.iotlb_hit_ratio", ratio d.p_hits translations);
      ("iommu.translations_per_op", ratio translations ops);
      ("uchan.msgs_per_op", ratio d.p_msgs ops);
      ("uchan.msgs_per_notify", ratio d.p_msgs d.p_notify);
      ("uchan.rpc_p50_us", hist_pct d.p_rpc 0.50);
      ("uchan.rpc_p99_us", hist_pct d.p_rpc 0.99);
      ("safe_pci.irqs_per_op", ratio d.p_irqs ops);
      ("e1000_dev.rx_landed_per_delivered", ratio d.p_landed ops);
      ("blkdev.cache_hit_ratio", ratio d.p_bhits (d.p_bhits + d.p_bmisses));
      ("blkdev.merges_per_op", ratio d.p_merges ops) ]

(* ---- what one measured pass of a workload yields ---- *)

type pass = {
  ops : int;  (** ops completed in the measured phase *)
  attempted : int;  (** ops checked over the whole pass *)
  failed : int;
  work : float;  (** units of [sim_rate] completed in the measured phase *)
  sim_ns : int;  (** simulated span the rate is taken over *)
  lat : int array;  (** per-op simulated latency samples, sorted *)
  outage_ns : int;
  host_rates : float list;  (** ops per host second, per slice or schedule *)
  host_s : float;  (** host seconds of the measured phase *)
  setup : float list;  (** host seconds of each setup repetition *)
  boot : float list;
  launch : float list;
  warmup : float list;
  counters : probe;  (** counter deltas over the measured phase *)
  extra : (string * float) list;  (** workload-specific layer rows *)
  fingerprints : string list;  (** one per round or FIFO baseline; must all be equal *)
  notes : string list;
}

(* sim_rate is in thousands of work units per simulated second: datagrams
   (= kpps), 16 KiB chunks, I/Os (= kIOPS), or frames carried to the wire
   through the faults. *)
let sim_metrics p =
  let sim_s = float_of_int p.sim_ns /. 1e9 in
  [ ("sim_rate", "kop/s", p.work /. sim_s /. 1e3);
    ("sim_cpu_ns_per_op", "ns", ratio p.counters.p_busy p.ops);
    ("sim_lat_p50_us", "us", float_of_int (pct p.lat 0.50) /. 1e3);
    ("sim_lat_p99_us", "us", float_of_int (pct p.lat 0.99) /. 1e3);
    ("sim_outage_max_us", "us", float_of_int p.outage_ns /. 1e3) ]

let sim_fingerprint p =
  String.concat " "
    (Printf.sprintf "ops=%d" p.ops
     :: List.map (fun (n, _, v) -> Printf.sprintf "%s=%h" n v) (sim_metrics p))

(* A datapath pass is [reps] rounds, each booting a fresh world from the
   same seed and measuring the same window: setup is timed [reps] times,
   host time is measured over all rounds, memory stays that of one
   world, and every round must reproduce the first bit for bit. *)
let rounds reps round =
  let rs = List.init reps (fun _ -> round ()) in
  let first = List.hd rs and last = List.nth rs (reps - 1) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let cat f = List.concat_map f rs in
  { first with
    ops = sum (fun r -> r.ops);
    attempted = sum (fun r -> r.attempted);
    failed = sum (fun r -> r.failed);
    work = List.fold_left (fun a r -> a +. r.work) 0.0 rs;
    sim_ns = sum (fun r -> r.sim_ns);
    host_rates = cat (fun r -> r.host_rates);
    host_s = List.fold_left (fun a r -> a +. r.host_s) 0.0 rs;
    setup = cat (fun r -> r.setup);
    boot = cat (fun r -> r.boot);
    launch = cat (fun r -> r.launch);
    warmup = cat (fun r -> r.warmup);
    counters = List.fold_left (fun a r -> combine a r.counters) zero_probe rs;
    fingerprints = List.map (fun r -> String.concat "|" r.fingerprints ^ " " ^ sim_fingerprint r) rs;
    notes = last.notes }

let check_fingerprints fps =
  match fps with
  | [] -> []
  | f :: rest ->
    if List.for_all (( = ) f) rest then []
    else [ "repeated rounds of one seed diverged: " ^ String.concat " / " fps ]

(* Run [n] slices of [slice_ns] simulated time each, timing every slice
   on the host clock. *)
let run_slices ~eng ~n ~slice_ns ~ops =
  let t0 = Engine.now eng in
  let rates = ref [] and host = ref 0.0 in
  sample_reference ();
  for k = 1 to n do
    let o0 = ops () and w0 = host_now () in
    span ~clock:(fun () -> Engine.now eng) "run_slice" (fun () ->
        Engine.run ~max_time:(t0 + (k * slice_ns)) eng);
    let dw = host_now () -. w0 in
    let dw = dw *. speed () in
    host := !host +. dw;
    rates := (float_of_int (ops () - o0) /. dw) :: !rates;
    drain_trace ()
  done;
  (List.rev !rates, !host)

(* Advance the engine in 1 ms steps until [cond] holds. *)
let run_until ~eng ~what ?(budget_ms = 2_000) cond =
  let t0 = Engine.now eng in
  let rec go n =
    if not (cond ()) then begin
      if n > budget_ms then failwith (what ^ " did not complete");
      Engine.run ~max_time:(t0 + (n * 1_000_000)) eng;
      go (n + 1)
    end
  in
  go 1

(* [f ()] with its host time and the speed factor around it. *)
let timed f =
  sample_reference ();
  let t0 = host_now () in
  let x = f () in
  let dt = host_now () -. t0 in
  (x, dt, speed ())

(* Setup phase times (total, boot, launch, warm-up) from host-clock
   marks; [sample_reference] was called before [w0]. *)
let setup_times (w0, w1, w2, w3) =
  let f = speed () in
  (f *. (w3 -. w0), f *. (w1 -. w0), f *. (w2 -. w1), f *. (w3 -. w2))

(* ==== net-udp-rx and net-tcp-stream ==== *)

type net_kind = Udp | Tcp

(* The measured window is [seconds * 6] slices of 10 ms (UDP) or
   [seconds * 8] slices of 50 ms (TCP) of simulated time, split evenly
   over the rounds: about --seconds of host time on a 2-vCPU Xeon
   (2.1 GHz) VM.  Returns (slices per round, slice length). *)
let net_rounds = 4

let net_window kind seconds =
  let total, slice_ns =
    match kind with Udp -> (seconds * 6, 10_000_000) | Tcp -> (seconds * 8, 50_000_000)
  in
  (max 1 (total / net_rounds), slice_ns)

let net_warmup_ns = 20_000_000
let udp_senders = 2
let tcp_chunk = 16384

(* Pattern the TCP stream carries: byte [o] of the stream is
   [pattern.[o mod pattern_period]]; the prime period catches reordered
   or duplicated segments. *)
let pattern_period = 65521

let make_pattern seed =
  Bytes.init (pattern_period + tcp_chunk) (fun i ->
      Char.unsafe_chr (mix (seed + (i mod pattern_period)) land 0xff))

type net_state = {
  mutable n_measuring : bool;
  mutable n_ops : int;
  mutable n_total : int;
  mutable n_failed : int;
  n_lat : Ivec.t;
  mutable n_dup : int;  (** datagrams delivered more than once *)
  mutable n_reord : int;  (** datagrams delivered after a later one of the same sender *)
}

let complete st ~lat_ns =
  st.n_total <- st.n_total + 1;
  if st.n_measuring then begin
    st.n_ops <- st.n_ops + 1;
    Ivec.push st.n_lat lat_ns
  end

let msg_size = Netperf.msg_size

(* Datagram [seq] of sender [s]: seq, sender and send time, then bytes
   derived from all three and the seed. *)
let udp_fill ~seed ~sender ~seq b =
  let h = mix (seed lxor mix ((sender lsl 40) lor seq)) in
  for i = 24 to msg_size - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (((h lsr (i land 31)) + i) land 0xff))
  done

let udp_payload ~seed ~sender ~seq ~ts =
  let b = Bytes.create msg_size in
  Bytes.set_int64_le b 0 (Int64.of_int seq);
  Bytes.set_int64_le b 8 (Int64.of_int sender);
  Bytes.set_int64_le b 16 (Int64.of_int ts);
  udp_fill ~seed ~sender ~seq b;
  b

(* Per-sender record of delivered sequence numbers: a growable bitset. *)
type seen = { mutable bits : Bytes.t; mutable last : int }

let mark_seen s seq =
  let byte = seq lsr 3 in
  if byte >= Bytes.length s.bits then begin
    let b = Bytes.make (2 * (byte + 1)) '\000' in
    Bytes.blit s.bits 0 b 0 (Bytes.length s.bits);
    s.bits <- b
  end;
  let v = Char.code (Bytes.get s.bits byte) and m = 1 lsl (seq land 7) in
  Bytes.set s.bits byte (Char.chr (v lor m));
  v land m <> 0

(* The send timestamp of a datagram whose bytes check out: right length,
   a known sender, and the bytes that sender put there.  UDP permits
   duplicates and reordering, so those are counted, not failed. *)
let udp_check ~seed ~seen st b =
  if Bytes.length b <> msg_size then None
  else begin
    let seq = Int64.to_int (Bytes.get_int64_le b 0) in
    let sender = Int64.to_int (Bytes.get_int64_le b 8) in
    if sender < 1 || sender > udp_senders || seq < 1 then None
    else begin
      let expect = Bytes.copy b in
      udp_fill ~seed ~sender ~seq expect;
      if not (Bytes.equal expect b) then None
      else begin
        let s = seen.(sender) in
        if mark_seen s seq then st.n_dup <- st.n_dup + 1;
        if seq < s.last then st.n_reord <- st.n_reord + 1 else s.last <- seq;
        Some (Int64.to_int (Bytes.get_int64_le b 16))
      end
    end
  end

let start_udp ~seed (rig : Netperf.rig) st =
  let eng = rig.Netperf.eng in
  let seen = Array.init (udp_senders + 1) (fun _ -> { bits = Bytes.make 4096 '\000'; last = 0 }) in
  ignore
    (Process.spawn_fiber (Process.kernel_process rig.dut.Kernel.procs) ~name:"udp-sink"
       (fun () ->
          let sock = Netstack.udp_bind rig.dut.Kernel.net rig.dev_dut ~port:7 in
          let rec drain () =
            match Netstack.udp_recv rig.dut.Kernel.net sock with
            | Some (b, _) ->
              (match udp_check ~seed ~seen st b with
               | Some ts -> complete st ~lat_ns:(Engine.now eng - ts)
               | None ->
                 st.n_total <- st.n_total + 1;
                 st.n_failed <- st.n_failed + 1);
              drain ()
            | None -> ()
          in
          drain ())
     : Fiber.t);
  let dst = Netdev.mac rig.dev_dut in
  for sender = 1 to udp_senders do
    ignore
      (Process.spawn_fiber (Process.kernel_process rig.peer.Kernel.procs)
         ~name:(Printf.sprintf "udp-source-%d" sender) (fun () ->
             let sock = Netstack.udp_bind rig.peer.Kernel.net rig.dev_peer ~port:(9000 + sender) in
             (* The seed sets each sender's start phase. *)
             ignore (Fiber.sleep eng (1_000_000 + seed_jitter seed sender 50_000) : Fiber.wake);
             let rec pump seq =
               let b = udp_payload ~seed ~sender ~seq ~ts:(Engine.now eng) in
               ignore
                 (Netstack.udp_sendto rig.peer.Kernel.net sock ~dst ~dst_port:7 b
                  : [ `Sent | `Dropped ]);
               pump (seq + 1)
             in
             pump 1)
       : Fiber.t)
  done

let start_tcp ~seed (rig : Netperf.rig) st =
  let eng = rig.Netperf.eng in
  let pattern = make_pattern seed in
  let sent_at = Ivec.create () in
  ignore
    (Process.spawn_fiber (Process.kernel_process rig.dut.Kernel.procs) ~name:"tcp-server"
       (fun () ->
          let sock = Netstack.stream_listen rig.dut.Kernel.net rig.dev_dut ~port:5001 in
          let received = ref 0 and bad_chunks = Hashtbl.create 8 in
          let rec drain () =
            match Netstack.stream_recv rig.dut.Kernel.net sock with
            | Some b ->
              let o = !received in
              let j = ref (o mod pattern_period) in
              for i = 0 to Bytes.length b - 1 do
                if Bytes.unsafe_get b i <> Bytes.unsafe_get pattern !j then
                  Hashtbl.replace bad_chunks ((o + i) / tcp_chunk) ();
                incr j;
                if !j = pattern_period then j := 0
              done;
              received := o + Bytes.length b;
              (* Every 16 KiB chunk whose last byte arrived is one op. *)
              while (st.n_total + 1) * tcp_chunk <= !received do
                let k = st.n_total in
                if Hashtbl.mem bad_chunks k then begin
                  st.n_total <- st.n_total + 1;
                  st.n_failed <- st.n_failed + 1
                end
                else complete st ~lat_ns:(Engine.now eng - Ivec.get sent_at k)
              done;
              drain ()
            | None -> ()
          in
          drain ())
     : Fiber.t);
  ignore
    (Process.spawn_fiber (Process.kernel_process rig.peer.Kernel.procs) ~name:"tcp-client"
       (fun () ->
          ignore (Fiber.sleep eng (1_000_000 + seed_jitter seed 7 50_000) : Fiber.wake);
          match
            Netstack.stream_connect rig.peer.Kernel.net rig.dev_peer
              ~dst:(Netdev.mac rig.dev_dut) ~dst_port:5001 ~src_port:45000
          with
          | Error e -> failwith ("tcp connect: " ^ e)
          | Ok sock ->
            let rec pump k =
              let chunk = Bytes.sub pattern (k * tcp_chunk mod pattern_period) tcp_chunk in
              (* A seeded 100-500 ns application think time per send: the
                 stream stays window-bound, but each seed sees its own
                 phase of the ACK clock. *)
              ignore (Fiber.sleep eng (100 + seed_jitter (seed + k) 3 400) : Fiber.wake);
              Ivec.push sent_at (Engine.now eng);
              match Netstack.stream_send rig.peer.Kernel.net sock chunk with
              | Ok () -> pump (k + 1)
              | Error e -> failwith ("tcp send: " ^ e)
            in
            pump 0)
     : Fiber.t)

let net_handles (rig : Netperf.rig) =
  { h_eng = rig.Netperf.eng;
    h_cpu = rig.dut.Kernel.cpu;
    h_iommu = rig.dut.Kernel.iommu;
    h_chan = Option.map Driver_host.chan rig.started;
    h_grant = Option.map Driver_host.grant rig.started;
    h_nic = Some rig.nic_dut;
    h_blk = None }

(* Boot the rig, launch the traffic, warm up: one setup repetition. *)
let net_setup ~kind ~seed mode =
  sample_reference ();
  let w0 = host_now () in
  let rig = span "rig_boot" (fun () -> Netperf.make_rig mode) in
  let eng = rig.Netperf.eng in
  let clock () = Engine.now eng in
  let w1 = host_now () in
  let st =
    { n_measuring = false; n_ops = 0; n_total = 0; n_failed = 0;
      n_lat = Ivec.create (); n_dup = 0; n_reord = 0 }
  in
  span ~clock "traffic_launch" (fun () ->
      (match kind with Udp -> start_udp ~seed rig st | Tcp -> start_tcp ~seed rig st);
      run_until ~eng ~what:"traffic launch" (fun () -> st.n_total > 0));
  let w2 = host_now () in
  let warm_end = Engine.now eng + net_warmup_ns + seed_jitter seed 99 1_000_000 in
  span ~clock "warmup" (fun () -> Engine.run ~max_time:warm_end eng);
  let w3 = host_now () in
  let fp = Printf.sprintf "%Lx:%d:%d" (Engine.trace_hash eng) (Engine.steps eng) st.n_total in
  (rig, st, setup_times (w0, w1, w2, w3), fp)

(* The process-global registry keys IOMMU counters by name alone, so the
   rig's second kernel (the peer) replaces the DUT's entries; the
   benchmark reads the DUT's handle instead.  Each net round notes both. *)
let registry_iotlb_hits () =
  List.find_map
    (fun g ->
       if g.Sud_obs.Metrics.g_subsystem <> "iommu" then None
       else
         List.find_map
           (fun smp ->
              match smp.Sud_obs.Metrics.s_value with
              | Sud_obs.Metrics.Gauge v when smp.s_name = "iotlb_hits" && smp.s_labels = [] ->
                Some v
              | _ -> None)
           g.g_samples)
    (Sud_obs.Metrics.snapshot ())

let net_round ~kind ~seed ~seconds mode =
  let rig, st, (t_setup, t_boot, t_launch, t_warm), fp = net_setup ~kind ~seed mode in
  let eng = rig.Netperf.eng in
  let slices, slice_ns = net_window kind seconds in
  let h = net_handles rig in
  let p0 = probe h in
  st.n_measuring <- true;
  let rates, host_s = run_slices ~eng ~n:slices ~slice_ns ~ops:(fun () -> st.n_ops) in
  st.n_measuring <- false;
  let p1 = probe h in
  let d = delta p0 p1 in
  let lat = Ivec.sorted st.n_lat in
  { ops = st.n_ops;
    attempted = st.n_total;
    failed = st.n_failed;
    work = float_of_int st.n_ops;
    sim_ns = d.p_sim;
    lat;
    outage_ns = pct lat 1.0;
    host_rates = rates;
    host_s;
    setup = [ t_setup ];
    boot = [ t_boot ];
    launch = [ t_launch ];
    warmup = [ t_warm ];
    counters = d;
    extra = [];
    fingerprints = [ fp ];
    notes =
      Printf.sprintf "iotlb hits: DUT handle %d, global registry %s" p1.p_hits
        (match registry_iotlb_hits () with Some v -> string_of_int v | None -> "absent")
      ::
      (if kind = Udp then
         [ Printf.sprintf
             "%d datagrams delivered twice, %d after a later one of their sender (UDP allows both)"
             st.n_dup st.n_reord ]
       else []) }

(* ==== blk-mixed ==== *)

let blk_workers = 16
let blk_hot_pages = 512          (* FUA write set, split evenly across workers *)
let blk_read_pct = 50
let blk_warmup_ns = 5_000_000
let blk_slice_ns = 5_000_000
let blk_rounds = 8

(* ~40 ms simulated per host second, split over the rounds: the page
   cache keeps every cold read, so short rounds keep the heap small. *)
let blk_round_ms seconds = max 1 (seconds * 40 / blk_rounds)
let blk_io_timeout_ns = 5_000_000_000

(* Cold-read region per worker: never re-read within a run, so every read
   misses the page cache and crosses the proxy to the device. *)
let blk_read_region seconds = 4096 + (blk_round_ms seconds * 32)

let blk_page_data ~seed ~page ~version =
  let b = Bytes.create Blkdev.page_size in
  Bytes.set_int64_le b 0 (Int64.of_int page);
  Bytes.set_int64_le b 8 (Int64.of_int version);
  let h = mix (seed lxor mix ((page lsl 32) lor version)) in
  for i = 16 to Blkdev.page_size - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (((h lsr (i land 31)) + i) land 0xff))
  done;
  b

type blk_state = {
  b_eng : Engine.t;
  mutable b_measuring : bool;
  mutable b_ops : int;
  mutable b_total : int;
  mutable b_failed : int;
  b_lat : Ivec.t;
  mutable b_stop : bool;
  mutable b_running : int;
  acked : int array;  (** last acknowledged version per hot page *)
}

let blk_complete st ~t0 ~ok =
  st.b_total <- st.b_total + 1;
  if not ok then st.b_failed <- st.b_failed + 1;
  if st.b_measuring then begin
    st.b_ops <- st.b_ops + 1;
    Ivec.push st.b_lat (Engine.now st.b_eng - t0)
  end

let start_blk_workers ~seed ~seconds k bd st =
  let eng = st.b_eng in
  let region = blk_read_region seconds in
  let per_worker = blk_hot_pages / blk_workers in
  let zero = Bytes.make Blkdev.page_size '\000' in
  for i = 0 to blk_workers - 1 do
    ignore
      (Process.spawn_fiber (Process.kernel_process k.Kernel.procs)
         ~name:(Printf.sprintf "blk-worker-%d" i) (fun () ->
             let rng =
               Rng.create ~seed:(Rng.derive ~root:(Int64.of_int seed) (Printf.sprintf "blk:%d" i))
             in
             let rbase = blk_hot_pages + (i * region) in
             let rnext = ref 0 in
             while not st.b_stop do
               let t0 = Engine.now eng and h0 = host_now () and parent = !bspan_current in
               let ok =
                 if Rng.int rng 100 < blk_read_pct then begin
                   (* Cold pages were never written: they must read as zeros. *)
                   let page = rbase + (!rnext mod region) in
                   incr rnext;
                   match
                     Blkdev.read bd ~timeout_ns:blk_io_timeout_ns
                       ~lba:(page * Blkdev.page_sectors) ~sectors:Blkdev.page_sectors ()
                   with
                   | Ok b -> Bytes.equal b zero
                   | Error _ -> false
                 end
                 else begin
                   let page = (i * per_worker) + Rng.int rng per_worker in
                   let version = st.acked.(page) + 1 in
                   match
                     Blkdev.write_fua bd ~timeout_ns:blk_io_timeout_ns
                       ~lba:(page * Blkdev.page_sectors)
                       (blk_page_data ~seed ~page ~version) ()
                   with
                   | Ok () ->
                     st.acked.(page) <- version;
                     true
                   | Error _ -> false
                 end
               in
               blk_complete st ~t0 ~ok;
               if !tracing then
                 record_span ~parent ~name:"blk_io" ~host0:h0 ~sim0:t0 ~sim1:(Engine.now eng);
               (* Think time: the loop advances simulated time even if an
                  op were ever answered for free. *)
               ignore (Fiber.sleep eng 200 : Fiber.wake)
             done;
             st.b_running <- st.b_running - 1)
       : Fiber.t)
  done

let in_fiber k ~eng ~what f =
  let result = ref None in
  ignore
    (Process.spawn_fiber (Process.kernel_process k.Kernel.procs) ~name:what (fun () ->
         result := Some (f ()))
     : Fiber.t);
  run_until ~eng ~what (fun () -> !result <> None);
  Option.get !result

let blk_setup ~seed ~seconds =
  sample_reference ();
  let w0 = host_now () in
  let region = blk_read_region seconds in
  let capacity = (blk_hot_pages + ((blk_workers + 1) * region)) * Blkdev.page_sectors in
  let w = span "blk_boot" (fun () -> Fault_inject.make_blk_world ~capacity ()) in
  let eng = w.Fault_inject.bw_eng and k = w.Fault_inject.bw_k in
  let clock () = Engine.now eng in
  let w1 = host_now () in
  let sv =
    span ~clock "driver_launch" (fun () ->
        in_fiber k ~eng ~what:"blk launch" (fun () ->
            match
              Supervisor.start_blk k w.Fault_inject.bw_sp ~bdf:w.Fault_inject.bw_bdf
                Fault_inject.honest_blk_factory
            with
            | Ok sv -> sv
            | Error e -> failwith ("blk supervised start: " ^ e)))
  in
  let bd =
    match Supervisor.blkdev sv with Some bd -> bd | None -> failwith "blk: no blkdev"
  in
  let st =
    { b_eng = eng; b_measuring = false; b_ops = 0; b_total = 0; b_failed = 0;
      b_lat = Ivec.create (); b_stop = false;
      b_running = blk_workers; acked = Array.make blk_hot_pages 0 }
  in
  start_blk_workers ~seed ~seconds k bd st;
  let w2 = host_now () in
  let warm_end = Engine.now eng + blk_warmup_ns + seed_jitter seed 99 100_000 in
  span ~clock "warmup" (fun () -> Engine.run ~max_time:warm_end eng);
  let w3 = host_now () in
  let fp = Printf.sprintf "%Lx:%d:%d" (Engine.trace_hash eng) (Engine.steps eng) st.b_total in
  ((w, sv, bd, st), setup_times (w0, w1, w2, w3), fp)

(* After the window: stop the workers, fsync, and compare the media with
   the last acknowledged write of every hot page. *)
let blk_finish ~seed (w : Fault_inject.blk_world) bd st =
  let eng = w.Fault_inject.bw_eng and k = w.Fault_inject.bw_k in
  st.b_stop <- true;
  run_until ~eng ~what:"blk worker join" (fun () -> st.b_running = 0);
  let synced = in_fiber k ~eng ~what:"blk fsync" (fun () -> Blkdev.fsync bd ()) in
  let bad = ref (match synced with Ok () -> 0 | Error _ -> 1) in
  Array.iteri
    (fun page version ->
       if version > 0 then begin
         let expect = blk_page_data ~seed ~page ~version in
         let ok = ref true in
         for s = 0 to Blkdev.page_sectors - 1 do
           match Nvme_dev.media_sector w.Fault_inject.bw_nvme ~lba:((page * Blkdev.page_sectors) + s) with
           | Some b when Bytes.equal b (Bytes.sub expect (s * Blkdev.sector_size) Blkdev.sector_size) -> ()
           | Some _ | None -> ok := false
         done;
         if not !ok then incr bad
       end)
    st.acked;
  !bad

let blk_round ~seed ~seconds =
  let (w, sv, bd, st), (t_setup, t_boot, t_launch, t_warm), fp = blk_setup ~seed ~seconds in
  let eng = w.Fault_inject.bw_eng and k = w.Fault_inject.bw_k in
  let h =
    { h_eng = eng; h_cpu = k.Kernel.cpu; h_iommu = k.Kernel.iommu; h_chan = Supervisor.chan sv;
      h_grant = Supervisor.grant sv; h_nic = None; h_blk = Some bd }
  in
  let p0 = probe h in
  st.b_measuring <- true;
  let rates, host_s =
    run_slices ~eng ~n:(blk_round_ms seconds * 1_000_000 / blk_slice_ns) ~slice_ns:blk_slice_ns
      ~ops:(fun () -> st.b_ops)
  in
  st.b_measuring <- false;
  let p1 = probe h in
  let media_bad = blk_finish ~seed w bd st in
  let d = delta p0 p1 in
  let stats = Supervisor.stats sv in
  let lat = Ivec.sorted st.b_lat in
  { ops = st.b_ops;
    attempted = st.b_total + 1;
    failed = st.b_failed + media_bad;
    work = float_of_int st.b_ops;
    sim_ns = d.p_sim;
    lat;
    outage_ns = pct lat 1.0;
    host_rates = rates;
    host_s;
    setup = [ t_setup ];
    boot = [ t_boot ];
    launch = [ t_launch ];
    warmup = [ t_warm ];
    counters = d;
    extra =
      [ ("supervisor.detections_per_schedule", float_of_int stats.Supervisor.st_detections);
        ("supervisor.restarts_per_schedule", float_of_int stats.Supervisor.st_restarts) ];
    fingerprints = [ fp ];
    notes =
      [ Printf.sprintf "media check after fsync: %d of %d written hot pages wrong" media_bad
          (Array.fold_left (fun n v -> if v > 0 then n + 1 else n) 0 st.acked) ] }

(* ==== fault-explore ==== *)

(* The sud-check mini-soak: Fault_inject.soak ~n_faults:12 ~duration_ms:400
   under Sched.Random schedules, as Explore.random runs it.  Explore pins
   one fault plan and varies only the schedule; here schedule i also
   draws plan i, so a run's recovery figures average over many plans
   instead of following one seed's plan. *)
let soak_faults = 12
let soak_ms = 400
let schedules seconds = seconds * 2
let scenario = "mini-soak"

type schedule = {
  sc_failures : string list;
  sc_outages : int list;  (** last healthy instant -> traffic restored, per recovery *)
  sc_detect_to_restore : int list;  (** the supervisor's own outage figure *)
  sc_wire : int;
  sc_traffic_ns : int;
  sc_detections : int;
  sc_restarts : int;
  sc_points : int;
  sc_counters : probe;
  sc_host_s : float;  (** host time of the soak body, scaled chunk by chunk *)
  sc_boot : float;
  sc_launch : float;
}

(* Fault_inject.in_world, driving the engine in chunks of events so each
   chunk's host time is scaled by the references around it: a schedule
   lasts long enough for the machine's speed to drift within it.  Like
   in_world, it runs to the 30 s limit, not just until [main] returns. *)
let in_world_scaled (w : Fault_inject.world) main =
  let eng = w.Fault_inject.eng in
  let result = ref None in
  ignore
    (Process.spawn_fiber (Process.kernel_process w.Fault_inject.k.Kernel.procs) ~name:"soak"
       (fun () -> result := Some (main ()))
     : Fiber.t);
  let max_time = Engine.now eng + 30_000_000_000 in
  let host = ref 0.0 in
  sample_reference ();
  let rec go () =
    let steps = Engine.steps eng and t = host_now () in
    Engine.run ~max_events:200_000 ~max_time eng;
    let dt = host_now () -. t in
    drain_trace ();
    host := !host +. (dt *. speed ());
    if Engine.steps eng > steps then go ()
  in
  go ();
  match !result with
  | Some r -> (r, !host)
  | None -> failwith "fault-explore: soak body did not complete"

(* One schedule of the mini-soak body, built from the harness pieces
   Fault_inject exports for adversarial campaigns.  Fault_inject.soak
   returns only its report; running the same body here keeps the world's
   own CPU, IOMMU and supervisor handles in reach (NOTES.md). *)
let run_schedule ~sched ~seed =
  let w0 = host_now () in
  let w = span "world_boot" Fault_inject.make_world in
  let eng = w.Fault_inject.eng and k = w.Fault_inject.k in
  let boot = host_now () -. w0 in
  let recorder = Sched.install eng sched in
  let h =
    { h_eng = eng; h_cpu = k.Kernel.cpu; h_iommu = k.Kernel.iommu; h_chan = None;
      h_grant = None; h_nic = None; h_blk = None }
  in
  let p0 = probe h in
  let launch = ref 0.0 in
  let r =
    in_world_scaled w (fun () ->
        let secret_addr = Phys_mem.alloc_pages k.Kernel.mem ~pages:1 in
        Phys_mem.write k.Kernel.mem ~addr:secret_addr (Bytes.of_string Fault_inject.secret);
        let l0 = host_now () in
        let sv =
          match
            Supervisor.start k w.Fault_inject.sp
              ~policy:(Fault_inject.soak_policy ~max_restarts:max_int) ~bdf:w.Fault_inject.bdf
              Fault_inject.honest_factory
          with
          | Ok sv -> sv
          | Error e -> failwith ("fault-explore: supervised start: " ^ e)
        in
        let ctx = Fault_inject.install_invariants w sv ~secret_addr in
        (* Outage as the supervisor accounts it end to end: from the last
           instant every health check passed, through detection, to the
           restart that restores traffic.  The detection -> restore part
           alone is the same for every cold restart of this model. *)
        let outages = ref [] and detect_to_restore = ref [] in
        Supervisor.on_event sv (function
            | Supervisor.Driver_restarted { outage_ns; _ } ->
              let st = Supervisor.stats sv in
              outages := (st.Supervisor.st_last_detect_latency_ns + outage_ns) :: !outages;
              detect_to_restore := outage_ns :: !detect_to_restore
            | _ -> ());
        let dev = Supervisor.netdev sv in
        (match Netstack.ifconfig_up k.Kernel.net dev with
         | Ok () -> ()
         | Error e -> failwith ("fault-explore: ifconfig up: " ^ e));
        launch := host_now () -. l0;
        let t0 = Engine.now eng and wire0 = !(w.Fault_inject.wire) in
        let tr = Fault_inject.start_traffic ~burst:4 w dev ~gap_ns:800_000 in
        let plan =
          Fault_inject.random_plan ~seed ~duration_ns:(soak_ms * 1_000_000) ~n:soak_faults ()
        in
        ignore
          (Fault_inject.run_plan k ~sv ~dma_violate:(Fault_inject.dma_violate w) plan
           : Fault_inject.injector_stats);
        ignore (Fiber.sleep eng ((soak_ms + 200) * 1_000_000) : Fiber.wake);
        let rec drain budget =
          if budget > 0 && Supervisor.state sv = Supervisor.Recovering then begin
            ignore (Fiber.sleep eng 10_000_000 : Fiber.wake);
            drain (budget - 1)
          end
        in
        drain 200;
        tr.Fault_inject.tr_stop <- true;
        let traffic_ns = Engine.now eng - t0 and wire = !(w.Fault_inject.wire) - wire0 in
        ignore (Fiber.sleep eng 10_000_000 : Fiber.wake);
        let stats = Supervisor.stats sv in
        let nm = Netdev.metrics dev in
        let module M = Sud_obs.Metrics in
        let failures =
          Fault_inject.invariant_violations ctx
          @ (if Supervisor.state sv <> Supervisor.Running then
               [ "supervisor not Running at the end" ]
             else [])
          @ (if
               M.get nm.Netdev.nm_bl_offered
               <> M.gauge_value nm.Netdev.nm_bl_queued + M.get nm.Netdev.nm_bl_dropped
                  + M.get nm.Netdev.nm_bl_replayed
             then [ "backlog accounting broken" ]
             else [])
          @ (if Fault_inject.invariant_deaths ctx <> stats.Supervisor.st_detections then
               [ "detections and deaths disagree" ]
             else [])
          @ List.filter_map
            (fun o ->
               if o > Fault_inject.outage_bound_ns then Some "recovery outage over bound"
               else None)
            !detect_to_restore
        in
        (failures, !outages, !detect_to_restore, wire, traffic_ns, stats))
  in
  let (failures, outages, detect_to_restore, wire, traffic_ns, stats), host_s = r in
  { sc_failures = failures;
    sc_outages = outages;
    sc_detect_to_restore = detect_to_restore;
    sc_wire = wire;
    sc_traffic_ns = traffic_ns;
    sc_detections = stats.Supervisor.st_detections;
    sc_restarts = stats.Supervisor.st_restarts;
    sc_points = recorder.Sched.rec_points;
    sc_counters = delta p0 (probe h);
    sc_host_s = host_s;
    sc_boot = boot;
    sc_launch = !launch }

let explore_pass ~seed ~seconds ~baselines:reps =
  let root = Int64.of_int seed in
  let scenario_seed = Rng.derive ~root scenario in
  (* Setup: the FIFO baseline Explore.random runs first, through
     Fault_inject.soak itself; it must be clean. *)
  let baselines =
    List.init reps (fun _ ->
        let r, dt, f =
          timed (fun () ->
              span "fifo_baseline" (fun () ->
                  Fault_inject.soak ~sched:Sched.Fifo ~seed:scenario_seed ~n_faults:soak_faults
                    ~duration_ms:soak_ms ()))
        in
        (dt *. f, r))
  in
  (* The soak's "corruptions applied but no slot counted malformed"
     post-check also fires when a corrupt_reply is superseded by a later
     reply fault before any reply carries it (NOTES.md, defect 3).  The
     measured schedules skip that check, so the baselines count the same
     failures and only note this one. *)
  let superseded v = String.starts_with ~prefix:"corruptions applied" v in
  let baseline_failed =
    List.length
      (List.filter
         (fun (_, r) ->
            List.exists (fun v -> not (superseded v)) r.Fault_inject.sr_violations
            || r.Fault_inject.sr_state <> Supervisor.Running)
         baselines)
  in
  let baseline_notes =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, r) ->
            List.map (fun v -> "FIFO baseline: " ^ v) r.Fault_inject.sr_violations)
         baselines)
  in
  let n = schedules seconds in
  let results =
    List.init n (fun i ->
        let spec =
          Sched.Random
            { seed = Rng.derive ~root (Printf.sprintf "%s:run:%d" scenario (i + 1));
              p_preempt = 50 }
        in
        let plan_seed = Rng.derive ~root (Printf.sprintf "%s:plan:%d" scenario (i + 1)) in
        let s, _, f =
          timed (fun () -> span "schedule" (fun () -> run_schedule ~sched:spec ~seed:plan_seed))
        in
        drain_trace ();
        (* Each world starts from a collected heap, so the peak heap is
           one world's, not an accident of when the last major cycle
           ended.  Outside the timed region. *)
        Gc.full_major ();
        (* World boot is scaled by the factor around the whole schedule;
           the soak body already is, chunk by chunk. *)
        let boot = s.sc_boot *. f in
        (boot +. s.sc_host_s, { s with sc_boot = boot; sc_launch = s.sc_launch *. f }))
  in
  let scheds = List.map snd results in
  let host_s = List.fold_left (fun a (t, _) -> a +. t) 0.0 results in
  let outages = Array.of_list (List.concat_map (fun s -> s.sc_outages) scheds) in
  Array.sort compare outages;
  let sum f = List.fold_left (fun a s -> a + f s) 0 scheds in
  let per_sched x = float_of_int x /. float_of_int n in
  let counters = List.fold_left (fun a s -> combine a s.sc_counters) zero_probe scheds in
  let failed = List.filter (fun s -> s.sc_failures <> []) scheds in
  { ops = n;
    attempted = n + reps;
    failed = List.length failed + baseline_failed;
    work = float_of_int (sum (fun s -> s.sc_wire));
    sim_ns = sum (fun s -> s.sc_traffic_ns);
    lat = outages;
    outage_ns = pct outages 1.0;
    host_rates = List.map (fun (t, _) -> 1.0 /. t) results;
    host_s;
    setup = List.map fst baselines;
    boot = List.map (fun s -> s.sc_boot) scheds;
    launch = List.map (fun s -> s.sc_launch) scheds;
    warmup = List.map fst baselines;
    counters;
    extra =
      [ ("supervisor.detections_per_schedule", per_sched (sum (fun s -> s.sc_detections)));
        ("supervisor.restarts_per_schedule", per_sched (sum (fun s -> s.sc_restarts)));
        ("explore.events_per_schedule", per_sched counters.p_steps);
        ("explore.choice_points_per_schedule", per_sched (sum (fun s -> s.sc_points)));
        ("explore.host_s_per_schedule", host_s /. float_of_int n) ];
    fingerprints =
      List.map
        (fun (_, r) -> Printf.sprintf "%Lx" r.Fault_inject.sr_sched.Fault_inject.ss_trace_hash)
        baselines;
    notes =
      Printf.sprintf "%d recoveries over %d schedules; supervisor detection -> restore: max %d ns"
        (Array.length outages) n
        (List.fold_left max 0 (List.concat_map (fun s -> s.sc_detect_to_restore) scheds))
      :: baseline_notes
      @ List.concat_map
        (fun s -> List.map (fun f -> "schedule failure: " ^ f) s.sc_failures)
        failed }

(* ==== metrics, checks and output ==== *)

let explore_baselines = 5

(* [single]: one round (or one baseline) — the traced pass and the
   in-kernel twin. *)
let run_pass ?(mode = Netperf.Sud_driver) ~single args =
  let n full = if single then 1 else full in
  let seed = args.seed and seconds = args.seconds in
  match args.workload with
  | "net-udp-rx" -> rounds (n net_rounds) (fun () -> net_round ~kind:Udp ~seed ~seconds mode)
  | "net-tcp-stream" -> rounds (n net_rounds) (fun () -> net_round ~kind:Tcp ~seed ~seconds mode)
  | "blk-mixed" -> rounds (n blk_rounds) (fun () -> blk_round ~seed ~seconds)
  | _ -> explore_pass ~seed ~seconds ~baselines:(n explore_baselines)

let host_ops_per_s p = median p.host_rates

let end_to_end p =
  sim_metrics p
  @ [ ("host_ops_per_s", "1/s", host_ops_per_s p);
      ("host_peak_heap_mb", "MB",
       float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
       /. 1048576.0);
      ("setup_s", "s", median p.setup) ]

(* Paper, Figure 8, untrusted driver. *)
let paper_reference workload p =
  let sim_s = float_of_int p.sim_ns /. 1e9 in
  match workload with
  | "net-udp-rx" ->
    let kpps = p.work /. sim_s /. 1e3 in
    Printf.sprintf "%.1f kpps; paper Fig. 8 UDP_STREAM RX untrusted: 235 kpps (rel. error %+.1f%%)"
      kpps ((kpps /. 235.0 -. 1.0) *. 100.0)
  | "net-tcp-stream" ->
    let mbit = p.work *. float_of_int tcp_chunk *. 8.0 /. sim_s /. 1e6 in
    Printf.sprintf
      "%.1f Mbit/s; paper Fig. 8 TCP_STREAM untrusted: 941 Mbit/s (rel. error %+.1f%%)" mbit
      ((mbit /. 941.0 -. 1.0) *. 100.0)
  | "blk-mixed" ->
    Printf.sprintf "%.1f kIOPS; no paper reference: the model is unvalidated here"
      (p.work /. sim_s /. 1e3)
  | _ -> "no paper reference: the model is unvalidated here"

let ledger_closure p =
  let l = ledger_of p.counters in
  if ledger_total l = p.counters.p_busy then []
  else
    [ Printf.sprintf "CPU ledger does not close: layers sum to %d ns, Cpu.busy_ns moved %d ns"
        (ledger_total l) p.counters.p_busy ]

(* Every sim_* value of one (workload, seed, seconds) must repeat bit for
   bit across runs of the same build: the first run records it, later
   ones compare. *)
let out_dir = ".bench_out"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let cross_run_check args p =
  ensure_dir out_dir;
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path =
    Printf.sprintf "%s/sim-%s-seed%d-s%d-%s.txt" out_dir args.workload args.seed args.seconds
      (String.sub exe 0 12)
  in
  let fp = sim_fingerprint p in
  let prev =
    if Sys.file_exists path then In_channel.with_open_text path In_channel.input_line else None
  in
  match prev with
  | Some prev when prev <> fp ->
    [ Printf.sprintf "sim metrics differ from an earlier run of this seed: %s vs %s" prev fp ]
  | Some _ -> []
  | None ->
    Out_channel.with_open_text path (fun oc -> output_string oc (fp ^ "\n"));
    []

let non_finite metrics =
  List.filter_map
    (fun (n, _, v) -> if Float.is_finite v then None else Some (n ^ " is not a finite number"))
    metrics

let print_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
          metrics))

let row (n, u, v) = Printf.printf "  %-42s %16.6g %s\n" n v u

let write_trace args =
  ensure_dir out_dir;
  let path = Printf.sprintf "%s/trace-%s-seed%d.jsonl" out_dir args.workload args.seed in
  let oc = open_out path in
  List.iter
    (fun s ->
       Printf.fprintf oc
         "{\"id\":%d,\"parent\":%d,\"name\":%S,\"host_ns\":%.0f,\"host_dur_ns\":%.0f,\"sim_ns\":%d,\"sim_dur_ns\":%d}\n"
         s.b_id s.b_parent s.b_name (s.b_host0 *. 1e9) ((s.b_host1 -. s.b_host0) *. 1e9) s.b_sim0
         (s.b_sim1 - s.b_sim0))
    (List.rev !bspans);
  output_string oc (Sud_obs.Trace.to_jsonl ());
  close_out oc;
  path

(* Every per-layer metric, in output order, with its unit.  A layer a
   workload does not use reads 0 (e.g. blkdev.* on the net workloads). *)
let cpu_layers = [ "driver"; "kernel"; "sud"; "iommu"; "irq" ]

let per_layer_units =
  [ ("engine.events_per_op", "count"); ("engine.host_ns_per_event", "ns");
    ("gc.minor_words_per_event", "words"); ("gc.major_collections", "count") ]
  @ List.map (fun l -> ("cpu." ^ l ^ "_ns_per_op", "ns")) cpu_layers
  @ [ ("iommu.iotlb_hit_ratio", "ratio"); ("iommu.translations_per_op", "count");
      ("uchan.msgs_per_op", "count"); ("uchan.msgs_per_notify", "count");
      ("uchan.rpc_p50_us", "us"); ("uchan.rpc_p99_us", "us");
      ("safe_pci.irqs_per_op", "count"); ("e1000_dev.rx_landed_per_delivered", "count");
      ("blkdev.cache_hit_ratio", "ratio"); ("blkdev.merges_per_op", "count");
      ("supervisor.detections_per_schedule", "count");
      ("supervisor.restarts_per_schedule", "count");
      ("explore.events_per_schedule", "count"); ("explore.choice_points_per_schedule", "count");
      ("explore.host_s_per_schedule", "s"); ("setup.boot_s", "s"); ("setup.launch_s", "s");
      ("setup.warmup_s", "s") ]
  @ List.map (fun l -> ("cpu." ^ l ^ "_ns_per_op.sud_minus_kernel", "ns")) cpu_layers
  @ [ ("trace.overhead_pct", "%"); ("trace.bench_spans_per_op", "count");
      ("trace.uchan_spans_per_op", "count"); ("trace.iommu_spans_per_op", "count");
      ("trace.irq_spans_per_op", "count"); ("trace.sup_spans_per_op", "count");
      ("trace.dropped_spans", "count") ]

(* [p] is the untraced pass, [traced] the traced one, [twin] the same
   workload on the in-kernel driver (net workloads only). *)
let per_layer_metrics p traced twin =
  let sud = ledger_rows ~ops:p.ops (ledger_of p.counters) in
  let diff =
    match twin with
    | Some k ->
      List.map2
        (fun (n, s) (_, kv) -> (n ^ ".sud_minus_kernel", s -. kv))
        sud
        (ledger_rows ~ops:k.ops (ledger_of k.counters))
    | None -> List.map (fun (n, _) -> (n ^ ".sud_minus_kernel", 0.0)) sud
  in
  let spans_per_op cat =
    ratio
      (Hashtbl.fold
         (fun key n acc -> if String.starts_with ~prefix:(cat ^ "/") key then acc + n else acc)
         trace_counts 0)
      traced.ops
  in
  let values =
    layer_rows ~ops:p.ops ~host_s:p.host_s p.counters
    @ p.extra
    @ [ ("setup.boot_s", median p.boot); ("setup.launch_s", median p.launch);
        ("setup.warmup_s", median p.warmup) ]
    @ diff
    @ [ ("trace.overhead_pct", (1.0 -. (host_ops_per_s traced /. host_ops_per_s p)) *. 100.0);
        ("trace.bench_spans_per_op", ratio (List.length !bspans) traced.ops);
        ("trace.uchan_spans_per_op", spans_per_op "uchan");
        ("trace.iommu_spans_per_op", spans_per_op "iommu");
        ("trace.irq_spans_per_op", spans_per_op "irq");
        ("trace.sup_spans_per_op", spans_per_op "sup");
        ("trace.dropped_spans", float_of_int !trace_dropped) ]
  in
  List.map
    (fun (n, u) -> (n, u, Option.value ~default:0.0 (List.assoc_opt n values)))
    per_layer_units

let () =
  let args = parse_args Sys.argv in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%d trace=%d\n%!" args.workload args.seed
    args.seconds
    (if args.trace then 1 else 0);
  (* Fill the speed estimate's window before the first measured region. *)
  for _ = 1 to 5 do sample_reference () done;
  let p = run_pass ~single:false args in
  let problems =
    check_fingerprints p.fingerprints @ ledger_closure p @ cross_run_check args p
  in
  let e2e = end_to_end p in
  List.iter row e2e;
  Printf.printf "  %-42s %16.6g (%d of %d ops)\n" "failed_op_ratio" (ratio p.failed p.attempted)
    p.failed p.attempted;
  Printf.printf "  reference: %s\n" (paper_reference args.workload p);
  List.iter (Printf.printf "  note: %s\n") p.notes;
  let problems, metrics =
    if not args.trace then (problems, e2e)
    else begin
      set_tracing true;
      let traced = run_pass ~single:true args in
      drain_trace ();
      set_tracing false;
      let path = write_trace args in
      (* Tracing must not perturb the simulation. *)
      let same =
        if args.workload = "fault-explore" then sim_fingerprint traced = sim_fingerprint p
        else traced.fingerprints = [ List.hd p.fingerprints ]
      in
      let twin =
        if String.starts_with ~prefix:"net-" args.workload then
          Some (run_pass ~mode:Netperf.Kernel_driver ~single:true args)
        else None
      in
      let layers = per_layer_metrics p traced twin in
      Printf.printf "  per-layer (spans in %s):\n" path;
      List.iter row layers;
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) trace_counts []
      |> List.sort compare
      |> List.iter (fun (k, n) ->
          Printf.printf "    span %-36s %12.4f per op\n" k (ratio n traced.ops));
      ( problems
        @ (if same then []
           else [ "sim metrics of the traced pass differ from the untraced pass" ])
        @ (if traced.failed = 0 then [] else [ "output checks failed in the traced pass" ])
        @ (match twin with Some k -> ledger_closure k | None -> []),
        layers )
    end
  in
  let problems = problems @ non_finite metrics in
  List.iter (Printf.printf "  CHECK FAILED: %s\n") problems;
  let correct = p.failed = 0 && problems = [] in
  print_result ~correct ~attempted:p.attempted ~failed:p.failed metrics;
  exit (if correct then 0 else 1)
