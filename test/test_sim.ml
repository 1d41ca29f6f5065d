(* Unit and property tests for the simulation substrate: engine, fibers,
   synchronization, CPU pool, RNG, stats. *)

let test_engine_ordering () =
  let eng = Engine.create () in
  let order = ref [] in
  let log tag () = order := tag :: !order in
  ignore (Engine.schedule_after eng 100 (log "b") : Engine.handle);
  ignore (Engine.schedule_after eng 50 (log "a") : Engine.handle);
  ignore (Engine.schedule_after eng 100 (log "c") : Engine.handle);
  Engine.run eng;
  Alcotest.(check (list string)) "time order, FIFO within an instant" [ "a"; "b"; "c" ]
    (List.rev !order);
  Alcotest.(check int) "clock at last event" 100 (Engine.now eng)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_after eng 10 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run eng;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_engine_max_time () =
  let eng = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_after eng 10 (fun () -> incr fired) : Engine.handle);
  ignore (Engine.schedule_after eng 1000 (fun () -> incr fired) : Engine.handle);
  Engine.run ~max_time:100 eng;
  Alcotest.(check int) "only events within the bound" 1 !fired;
  (* Scheduled from outside [run], earlier than the queued instant. *)
  let early_at = ref 0 in
  ignore (Engine.schedule_after eng 20 (fun () -> early_at := !fired; incr fired) : Engine.handle);
  Engine.run eng;
  Alcotest.(check int) "remaining events run later" 3 !fired;
  Alcotest.(check int) "earlier event fires first" 1 !early_at

let test_engine_negative_delay () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay rejected"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
        ignore (Engine.schedule_after eng (-1) ignore : Engine.handle))

let test_fiber_sleep () =
  let eng = Engine.create () in
  let t = ref (-1) in
  ignore
    (Fiber.spawn eng (fun () ->
         ignore (Fiber.sleep eng 500 : Fiber.wake);
         t := Engine.now eng)
     : Fiber.t);
  Engine.run eng;
  Alcotest.(check int) "woke at the right time" 500 !t

let test_fiber_kill_runs_cleanup () =
  let eng = Engine.create () in
  let cleaned = ref false in
  let blocked = ref None in
  let f =
    Fiber.spawn eng (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
             ignore
               (Fiber.suspend (fun self -> blocked := Some self)
                : Fiber.wake)))
  in
  ignore (Engine.schedule_after eng 10 (fun () -> Fiber.kill f) : Engine.handle);
  Engine.run eng;
  Alcotest.(check bool) "Fun.protect ran on kill" true !cleaned;
  Alcotest.(check bool) "fiber dead" false (Fiber.is_alive f)

let test_fiber_interrupt () =
  let eng = Engine.create () in
  let got = ref None in
  let f =
    Fiber.spawn eng (fun () -> got := Some (Fiber.sleep eng 1_000_000))
  in
  ignore (Engine.schedule_after eng 10 (fun () -> ignore (Fiber.interrupt f : bool)) : Engine.handle);
  Engine.run ~max_time:2_000_000 eng;
  Alcotest.(check bool) "woken early with Interrupted" true (!got = Some Fiber.Interrupted)

let test_fiber_stale_wake () =
  let eng = Engine.create () in
  let wakes = ref 0 in
  let f =
    Fiber.spawn eng (fun () ->
        ignore (Fiber.sleep eng 100 : Fiber.wake);
        incr wakes)
  in
  (* Wake it twice at the same instant: second is stale and must be dropped. *)
  ignore
    (Engine.schedule_after eng 50 (fun () ->
         ignore (Fiber.wake f Fiber.Normal : bool);
         Alcotest.(check bool) "second wake rejected" false (Fiber.wake f Fiber.Normal))
     : Engine.handle);
  Engine.run eng;
  Alcotest.(check int) "body continued exactly once" 1 !wakes

let test_waitq_fifo () =
  let eng = Engine.create () in
  let q = Sync.Waitq.create () in
  let order = ref [] in
  for i = 1 to 3 do
    ignore
      (Fiber.spawn eng (fun () ->
           ignore (Sync.Waitq.wait q : Fiber.wake);
           order := i :: !order)
       : Fiber.t)
  done;
  ignore
    (Engine.schedule_after eng 10 (fun () ->
         ignore (Sync.Waitq.signal q : bool);
         ignore (Sync.Waitq.signal q : bool);
         ignore (Sync.Waitq.signal q : bool))
     : Engine.handle);
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO wakeup order" [ 1; 2; 3 ] (List.rev !order)

let test_waitq_timeout () =
  let eng = Engine.create () in
  let r = ref None in
  ignore
    (Fiber.spawn eng (fun () ->
         r := Some (Sync.Waitq.wait_timeout eng (Sync.Waitq.create ()) 100))
     : Fiber.t);
  Engine.run eng;
  Alcotest.(check bool) "timed out" true (!r = Some Fiber.Timeout)

let test_mutex_exclusion () =
  let eng = Engine.create () in
  let mu = Sync.Mutex.create () in
  let trace = Buffer.create 16 in
  for i = 1 to 2 do
    ignore
      (Fiber.spawn eng (fun () ->
           Sync.Mutex.with_lock mu (fun () ->
               Buffer.add_string trace (Printf.sprintf "<%d" i);
               ignore (Fiber.sleep eng 100 : Fiber.wake);
               Buffer.add_string trace (Printf.sprintf "%d>" i)))
       : Fiber.t)
  done;
  Engine.run eng;
  Alcotest.(check string) "critical sections do not interleave" "<11><22>"
    (Buffer.contents trace)

let test_mailbox_blocking () =
  let eng = Engine.create () in
  let mb = Sync.Mailbox.create ~capacity:2 in
  let got = ref [] in
  ignore
    (Fiber.spawn eng (fun () ->
         for _ = 1 to 4 do
           match Sync.Mailbox.recv mb with
           | `Ok v -> got := v :: !got
           | `Interrupted -> ()
         done)
     : Fiber.t);
  ignore
    (Fiber.spawn eng (fun () ->
         for i = 1 to 4 do
           ignore (Sync.Mailbox.send mb i : [ `Ok | `Interrupted ])
         done)
     : Fiber.t);
  Engine.run eng;
  Alcotest.(check (list int)) "all values in order" [ 1; 2; 3; 4 ] (List.rev !got)

let test_cpu_serializes () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:1 Cost_model.default in
  let finish = ref [] in
  for i = 1 to 3 do
    ignore
      (Fiber.spawn eng (fun () ->
           Cpu.consume cpu ~label:"t" 1000;
           finish := (i, Engine.now eng) :: !finish)
       : Fiber.t)
  done;
  Engine.run eng;
  let times = List.rev_map snd !finish in
  Alcotest.(check (list int)) "single core serializes three 1us jobs"
    [ 1000; 2000; 3000 ] times;
  Alcotest.(check int) "busy time accumulated" 3000 (Cpu.busy_ns cpu)

let test_cpu_parallel_cores () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:2 Cost_model.default in
  let done_at = ref [] in
  for _ = 1 to 2 do
    ignore
      (Fiber.spawn eng (fun () ->
           Cpu.consume cpu ~label:"t" 1000;
           done_at := Engine.now eng :: !done_at)
       : Fiber.t)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "two cores run two jobs concurrently" [ 1000; 1000 ] !done_at

let test_cpu_labels () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:2 Cost_model.default in
  Cpu.account cpu ~label:"a" 100;
  Cpu.account cpu ~label:"b" 200;
  Cpu.account cpu ~label:"a" 50;
  Alcotest.(check int) "label a" 150 (Cpu.busy_of cpu "a");
  Alcotest.(check int) "label b" 200 (Cpu.busy_of cpu "b");
  Alcotest.(check (list (pair string int))) "sorted labels" [ ("a", 150); ("b", 200) ]
    (Cpu.labels cpu)

(* The label memo matches by physical equality; equal strings that are
   not the same object, and more hot labels than memo slots, must still
   land on one counter per label. *)
let test_cpu_label_identity () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~cores:2 Cost_model.default in
  let names = List.init 12 (Printf.sprintf "proc:p%02d") in
  let expect = Hashtbl.create 16 in
  for round = 1 to 5 do
    List.iteri
      (fun i name ->
         let label = if round mod 2 = 0 then name else String.concat "" [ name ] in
         let ns = (10 * i) + round in
         Cpu.account cpu ~label ns;
         Hashtbl.replace expect name (ns + Option.value ~default:0 (Hashtbl.find_opt expect name)))
      names
  done;
  let want = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) expect []) in
  Alcotest.(check (list (pair string int))) "one counter per label" want (Cpu.labels cpu);
  Alcotest.(check int) "busy is the label sum"
    (List.fold_left (fun a (_, v) -> a + v) 0 want) (Cpu.busy_ns cpu)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_stats_moments () =
  let m = Stats.Moments.create () in
  List.iter (Stats.Moments.add m) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 0.0001)) "mean" 5.0 (Stats.Moments.mean m);
  Alcotest.(check (float 0.01)) "stddev (sample)" 2.138 (Stats.Moments.stddev m)

let test_stats_histogram () =
  let h = Stats.Histogram.create () in
  for i = 1 to 100 do Stats.Histogram.add h (float_of_int i) done;
  Alcotest.(check (float 1.0)) "median" 50.0 (Stats.Histogram.quantile h 0.5);
  Alcotest.(check (float 0.0)) "max" 100.0 (Stats.Histogram.max h);
  Alcotest.(check (float 0.0)) "min" 1.0 (Stats.Histogram.min h)

let test_convergence () =
  let m = Stats.Moments.create () in
  for _ = 1 to 10 do Stats.Moments.add m 100.0 done;
  Alcotest.(check bool) "constant samples converge" true
    (Stats.Moments.converged m ~confidence:0.99 ~accuracy:0.05)

(* Engine equivalence: random programs against a reference model that
   keeps every queued event in one list and always takes the minimum.  A
   program is a set of scripts (what an event does when it fires, chosen
   by its seq) plus phases: operations from outside [run], then a [run]
   with optional limits, under FIFO or a seeded picker. *)

type eop = Sched of int | Cancel of int

type phase = {
  outside : eop list;
  picker : int option;  (* seed of the picker; None = FIFO *)
  time_limit : int option;  (* max_time, relative to now *)
  event_limit : int option;
}

type program = { scripts : eop list array; phases : phase list }

let event_cap = 400

(* Picks in [-1, ready] so out-of-range answers (clamped to 0) occur. *)
let pick_of seed ~step ~ready = ((step * 7919) + seed) mod (ready + 2) - 1

type trace = {
  mutable fired : (int * int) list;  (* (time, seq), newest first *)
  mutable picks : (int * int) list;  (* picker calls (step, ready) *)
  mutable observed : (int * int * int * int) list;  (* (step, time, ready, pick) *)
  mutable clocks : int list;  (* now after each run *)
}

let new_trace () = { fired = []; picks = []; observed = []; clocks = [] }

(* Both sides share this driver.  [schedule delay seq body] and
   [cancel seq] are the implementation's; [body] runs event [seq]'s script
   when it fires. *)
let drive prog ~schedule ~cancel ~run ~now =
  let created = ref 0 in
  let rec exec op =
    match op with
    | Sched d ->
      if !created < event_cap then begin
        incr created;
        let seq = !created in
        schedule d seq (fun () -> List.iter exec prog.scripts.(seq mod Array.length prog.scripts))
      end
    | Cancel k -> if !created > 0 then cancel ((k mod !created) + 1)
  in
  List.iter
    (fun ph ->
       List.iter exec ph.outside;
       let max_time = Option.map (fun d -> now () + d) ph.time_limit in
       run ph ~max_time)
    prog.phases

let run_engine prog =
  let eng = Engine.create () in
  let tr = new_trace () in
  let handles = Hashtbl.create 64 in
  let schedule d seq body =
    Hashtbl.replace handles seq
      (Engine.schedule_after eng d (fun () ->
           tr.fired <- (Engine.now eng, seq) :: tr.fired;
           body ()))
  in
  let cancel seq = Engine.cancel (Hashtbl.find handles seq) in
  let run ph ~max_time =
    (match ph.picker with
     | None -> Engine.set_picker eng None; Engine.set_observer eng None
     | Some seed ->
       Engine.set_picker eng
         (Some (fun ~step ~ready -> tr.picks <- (step, ready) :: tr.picks; pick_of seed ~step ~ready));
       Engine.set_observer eng
         (Some (fun ~step ~time ~ready ~pick -> tr.observed <- (step, time, ready, pick) :: tr.observed)));
    Engine.run ?max_time ?max_events:ph.event_limit eng;
    tr.clocks <- Engine.now eng :: tr.clocks
  in
  drive prog ~schedule ~cancel ~run ~now:(fun () -> Engine.now eng);
  (tr, Engine.steps eng)

type mev = { m_time : int; m_seq : int; mutable m_cancelled : bool; m_fn : unit -> unit }

let run_model prog =
  let now = ref 0 and steps = ref 0 in
  let queue = ref [] in  (* sorted by (time, seq) *)
  let all = Hashtbl.create 64 in
  let tr = new_trace () in
  let key e = (e.m_time, e.m_seq) in
  let schedule d seq body =
    let e = { m_time = !now + d; m_seq = seq; m_cancelled = false; m_fn = body } in
    Hashtbl.replace all seq e;
    queue := List.merge (fun a b -> compare (key a) (key b)) !queue [ e ]
  in
  let cancel seq = (Hashtbl.find all seq).m_cancelled <- true in
  let fire e =
    queue := List.filter (fun x -> x != e) !queue;
    now := e.m_time;
    incr steps;
    tr.fired <- (e.m_time, e.m_seq) :: tr.fired;
    e.m_fn ()
  in
  let run ph ~max_time =
    let max_time = Option.value ~default:max_int max_time in
    let max_events = Option.value ~default:max_int ph.event_limit in
    let fired = ref 0 in
    let stop = ref false in
    while (not !stop) && !fired < max_events do
      match ph.picker with
      | None ->
        (* FIFO: reaching a cancelled event reaps it and moves the clock. *)
        (match !queue with
         | e :: rest when e.m_time <= max_time ->
           if e.m_cancelled then begin
             queue := rest;
             now := max !now e.m_time
           end
           else begin
             incr fired;
             fire e
           end
         | _ -> stop := true)
      | Some seed ->
        (* Picker: cancelled events at the head are reaped without moving
           the clock; the ready set is every live event at the earliest
           live instant. *)
        let rec reap = function e :: rest when e.m_cancelled -> reap rest | q -> q in
        queue := reap !queue;
        (match List.filter (fun e -> not e.m_cancelled) !queue with
         | e :: _ as live when e.m_time <= max_time ->
           let ready = List.filter (fun x -> x.m_time = e.m_time) live in
           let n = List.length ready in
           let idx =
             if n = 1 then 0
             else begin
               tr.picks <- (!steps, n) :: tr.picks;
               let i = pick_of seed ~step:!steps ~ready:n in
               let i = if i < 0 || i >= n then 0 else i in
               tr.observed <- (!steps, e.m_time, n, i) :: tr.observed;
               i
             end
           in
           incr fired;
           fire (List.nth ready idx)
         | _ -> stop := true)
    done;
    tr.clocks <- !now :: tr.clocks
  in
  drive prog ~schedule ~cancel ~run ~now:(fun () -> !now);
  (tr, !steps)

let gen_program =
  let open QCheck.Gen in
  let delay = frequency [ (2, return 0); (3, int_range 1 6); (1, int_range 7 40) ] in
  let eop = frequency [ (4, map (fun d -> Sched d) delay); (1, map (fun k -> Cancel k) nat) ] in
  let phase =
    map4
      (fun outside picker time_limit event_limit -> { outside; picker; time_limit; event_limit })
      (* Occasional bursts outgrow the queues' initial capacity. *)
      (list_size (frequency [ (6, int_range 0 6); (1, int_range 100 250) ]) eop)
      (opt (int_range 0 1000))
      (opt (int_range 0 30))
      (opt (int_range 1 25))
  in
  map2
    (fun scripts (first, rest) ->
       { scripts = Array.of_list scripts; phases = { first with outside = Sched 0 :: first.outside } :: rest })
    (list_size (int_range 1 8) (list_size (int_range 0 3) eop))
    (pair phase (list_size (int_range 0 6) phase))

let show_program p =
  let op = function Sched d -> Printf.sprintf "S%d" d | Cancel k -> Printf.sprintf "C%d" k in
  let ops l = "[" ^ String.concat " " (List.map op l) ^ "]" in
  let opt = function None -> "-" | Some v -> string_of_int v in
  Printf.sprintf "scripts=%s phases=%s"
    (String.concat ";" (Array.to_list (Array.map ops p.scripts)))
    (String.concat ";"
       (List.map
          (fun ph ->
             Printf.sprintf "%s pick=%s t<=%s n<=%s" (ops ph.outside) (opt ph.picker)
               (opt ph.time_limit) (opt ph.event_limit))
          p.phases))

(* property tests *)

let qcheck_cases =
  [ QCheck.Test.make ~name:"rng int bounds" ~count:500
      QCheck.(pair (int_bound 1000) int)
      (fun (n, seed) ->
         let n = n + 1 in
         let rng = Rng.create ~seed:(Int64.of_int seed) in
         let v = Rng.int rng n in
         v >= 0 && v < n);
    QCheck.Test.make ~name:"histogram quantiles monotone" ~count:100
      QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 1000.0))
      (fun xs ->
         QCheck.assume (xs <> []);
         let h = Stats.Histogram.create () in
         List.iter (Stats.Histogram.add h) xs;
         Stats.Histogram.quantile h 0.25 <= Stats.Histogram.quantile h 0.75);
    QCheck.Test.make ~name:"engine events fire in time order" ~count:100
      QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 10_000))
      (fun delays ->
         let eng = Engine.create () in
         let fired = ref [] in
         List.iter
           (fun d ->
              ignore (Engine.schedule_after eng d (fun () -> fired := d :: !fired)
                      : Engine.handle))
           delays;
         Engine.run eng;
         let result = List.rev !fired in
         result = List.stable_sort compare delays);
    QCheck.Test.make ~name:"engine matches the sorted-list reference model" ~count:500
      (QCheck.make ~print:show_program gen_program)
      (fun prog ->
         let a, sa = run_engine prog and b, sb = run_model prog in
         let pairs l = String.concat " " (List.rev_map (fun (x, y) -> Printf.sprintf "%d/%d" x y) l) in
         if a.fired <> b.fired then
           QCheck.Test.fail_reportf "fired (time/seq)\nengine %s\nmodel  %s" (pairs a.fired) (pairs b.fired)
         else if a.picks <> b.picks then
           QCheck.Test.fail_reportf "picker calls (step/ready)\nengine %s\nmodel  %s" (pairs a.picks)
             (pairs b.picks)
         else
           a.observed = b.observed && a.clocks = b.clocks && sa = sb) ]

let suite =
  [ Alcotest.test_case "engine: ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine: cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine: max_time" `Quick test_engine_max_time;
    Alcotest.test_case "engine: negative delay" `Quick test_engine_negative_delay;
    Alcotest.test_case "fiber: sleep" `Quick test_fiber_sleep;
    Alcotest.test_case "fiber: kill runs cleanup" `Quick test_fiber_kill_runs_cleanup;
    Alcotest.test_case "fiber: interrupt" `Quick test_fiber_interrupt;
    Alcotest.test_case "fiber: stale wake dropped" `Quick test_fiber_stale_wake;
    Alcotest.test_case "waitq: FIFO" `Quick test_waitq_fifo;
    Alcotest.test_case "waitq: timeout" `Quick test_waitq_timeout;
    Alcotest.test_case "mutex: exclusion" `Quick test_mutex_exclusion;
    Alcotest.test_case "mailbox: blocking send/recv" `Quick test_mailbox_blocking;
    Alcotest.test_case "cpu: one core serializes" `Quick test_cpu_serializes;
    Alcotest.test_case "cpu: two cores parallel" `Quick test_cpu_parallel_cores;
    Alcotest.test_case "cpu: per-label accounting" `Quick test_cpu_labels;
    Alcotest.test_case "cpu: labels by identity or content" `Quick test_cpu_label_identity;
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "stats: moments" `Quick test_stats_moments;
    Alcotest.test_case "stats: histogram" `Quick test_stats_histogram;
    Alcotest.test_case "stats: convergence" `Quick test_convergence ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
