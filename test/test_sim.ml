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

(* Slots freed by firing, by cancellation and across a halted run are
   reused, and a handle whose event is gone cancels nothing that took its
   slot. *)
let test_engine_slot_reuse () =
  let eng = Engine.create () in
  let fired = ref [] in
  let sched d tag = Engine.schedule_after eng d (fun () -> fired := tag :: !fired) in
  (* More events than the initial table holds; every other one cancelled. *)
  let hs = List.init 200 (fun i -> sched (i mod 7) i) in
  List.iteri (fun i h -> if i mod 2 = 1 then Engine.cancel h) hs;
  Engine.run eng;
  let want =
    List.stable_sort (fun a b -> compare (a mod 7) (b mod 7)) (List.filter (fun i -> i mod 2 = 0) (List.init 200 Fun.id))
  in
  Alcotest.(check (list int)) "survivors in (time, seq) order" want (List.rev !fired);
  Alcotest.(check int) "queue drained" 0 (Engine.pending eng);
  fired := [];
  let t0 = Engine.now eng in
  let a = sched 1 1 in
  let h = Engine.schedule_after eng 2 (fun () -> fired := 2 :: !fired; Engine.halt eng) in
  let b = sched 3 3 and c = sched 4 4 in
  Engine.run eng;
  Alcotest.(check (list int)) "halted after its event" [ 1; 2 ] (List.rev !fired);
  Alcotest.(check int) "two left queued" 2 (Engine.pending eng);
  let d = sched 0 5 and e = sched 1 6 in
  Engine.cancel c;
  Engine.run eng;
  Alcotest.(check (list int)) "resumed with the new events in order" [ 1; 2; 5; 3; 6 ] (List.rev !fired);
  Alcotest.(check int) "clock at the cancelled event" (t0 + 4) (Engine.now eng);
  Alcotest.(check int) "queue drained again" 0 (Engine.pending eng);
  List.iter Engine.cancel [ a; h; b; c; d; e ];
  fired := [];
  ignore (List.init 4 (fun i -> sched i (10 + i)) : Engine.handle list);
  Engine.run eng;
  Alcotest.(check (list int)) "stale handles cancel nothing" [ 10; 11; 12; 13 ] (List.rev !fired)

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

(* A fiber parked with no waker: an interrupt wakes it once, and a kill
   unwinds it from its next wait. *)
let test_fiber_parked_interrupt_kill () =
  let eng = Engine.create () in
  let log = ref [] in
  let note what = log := (Engine.now eng, what) :: !log in
  let f =
    Fiber.spawn eng (fun () ->
        (match Fiber.suspend ignore with
         | Fiber.Interrupted -> note "interrupted"
         | Fiber.Normal | Fiber.Timeout -> note "other");
        Fun.protect
          ~finally:(fun () -> note "cleanup")
          (fun () ->
             ignore (Fiber.suspend ignore : Fiber.wake);
             note "resumed"))
  in
  let first = ref false and second = ref true in
  ignore
    (Engine.schedule_after eng 10 (fun () ->
         first := Fiber.interrupt f;
         second := Fiber.interrupt f)
     : Engine.handle);
  ignore (Engine.schedule_after eng 20 (fun () -> Fiber.kill f) : Engine.handle);
  Engine.run eng;
  Alcotest.(check bool) "first interrupt wakes" true !first;
  Alcotest.(check bool) "second interrupt is stale" false !second;
  Alcotest.(check (list (pair int string))) "interrupted, then killed"
    [ (10, "interrupted"); (20, "cleanup") ] (List.rev !log);
  Alcotest.(check bool) "fiber dead" false (Fiber.is_alive f)

(* An interrupted sleep leaves its timer queued; when it fires it must not
   wake the fiber's next suspension. *)
let test_stale_sleep_timer () =
  let eng = Engine.create () in
  let parked = ref None and got = ref [] in
  let f =
    Fiber.spawn eng (fun () ->
        let w = Fiber.sleep eng 1000 in
        got := (Engine.now eng, w) :: !got;
        let w = Fiber.suspend (fun self -> parked := Some self) in
        got := (Engine.now eng, w) :: !got)
  in
  ignore (Engine.schedule_after eng 10 (fun () -> ignore (Fiber.interrupt f : bool)) : Engine.handle);
  ignore
    (Engine.schedule_after eng 2000 (fun () ->
         Option.iter (fun fiber -> ignore (Fiber.wake fiber Fiber.Timeout : bool)) !parked)
     : Engine.handle);
  Engine.run eng;
  Alcotest.(check bool) "woken at 10 by the interrupt, at 2000 by the wake" true
    (List.rev !got = [ (10, Fiber.Interrupted); (2000, Fiber.Timeout) ])

let test_suspend_outside_fiber () =
  let called = ref false in
  (match Fiber.suspend (fun _ -> called := true) with
   | _ -> Alcotest.fail "suspend returned outside a fiber"
   | exception Effect.Unhandled _ -> ());
  Alcotest.(check bool) "register not called" false !called;
  match Fiber.sleep (Engine.create ()) 10 with
  | _ -> Alcotest.fail "sleep returned outside a fiber"
  | exception Effect.Unhandled _ -> ()

(* Eight fibers sleeping 100 ns at staggered phases: every timer fires
   alone and resumes its fiber in place, and a fired event allocates the
   timer's closure and handle and the parked continuation, nothing per
   queue move or hash update. *)
let test_sleep_loop_allocation () =
  let eng = Engine.create () in
  for i = 0 to 7 do
    ignore
      (Fiber.spawn eng (fun () ->
           ignore (Fiber.sleep eng ((13 * i) + 1) : Fiber.wake);
           while true do ignore (Fiber.sleep eng 100 : Fiber.wake) done)
       : Fiber.t)
  done;
  Engine.run ~max_time:1_000 eng;
  let s0 = Engine.steps eng and w0 = Gc.minor_words () in
  Engine.run ~max_time:201_000 eng;
  let events = Engine.steps eng - s0 in
  let words = (Gc.minor_words () -. w0) /. float_of_int events in
  Alcotest.(check int) "every fiber sleeps 2000 times" 32_000 events;
  if words > 12. then Alcotest.failf "%.2f minor words per event (limit 12)" words

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

(* A wait that timed out leaves its entry on the queue.  A later signal
   must skip that entry rather than end the fiber's next suspension, and
   must reach the waiter still queued behind it. *)
let test_waitq_stale_entry () =
  let eng = Engine.create () in
  let q = Sync.Waitq.create () in
  let a = ref [] and b = ref None in
  ignore
    (Fiber.spawn eng (fun () ->
         let w1 = Sync.Waitq.wait_timeout eng q 10_000 in
         let t1 = Engine.now eng in
         let w2 = Fiber.sleep eng 100_000 in
         a := [ (w1, t1); (w2, Engine.now eng) ])
     : Fiber.t);
  ignore
    (Fiber.spawn eng (fun () ->
         let w = Sync.Waitq.wait q in
         b := Some (w, Engine.now eng))
     : Fiber.t);
  let signalled = ref false in
  ignore (Engine.schedule_after eng 50_000 (fun () -> signalled := Sync.Waitq.signal q) : Engine.handle);
  Engine.run eng;
  Alcotest.(check bool) "signal reached a waiter" true !signalled;
  Alcotest.(check bool) "A timed out, then slept its full 100us" true
    (!a = [ (Fiber.Timeout, 10_000); (Fiber.Normal, 110_000) ]);
  Alcotest.(check bool) "B woken by the signal" true (!b = Some (Fiber.Normal, 50_000))

(* The sleep [Fiber.sleep] stands for: a timer that wakes this one
   suspension, then the resume it queues.  Written with the public API. *)
let reference_sleep eng ns =
  Fiber.suspend (fun fiber ->
      let epoch = Fiber.epoch fiber in
      ignore
        (Engine.schedule_after eng ns (fun () ->
             ignore (Fiber.wake_epoch fiber ~epoch Fiber.Normal : bool))
         : Engine.handle))

let test_sleep_in_place () =
  let eng = Engine.create () in
  let woke = ref [] in
  ignore
    (Fiber.spawn eng (fun () ->
         List.iter
           (fun ns ->
              let w = Fiber.sleep eng ns in
              woke := (w, Engine.now eng) :: !woke)
           [ 100; 500 ])
     : Fiber.t);
  Engine.run eng;
  Alcotest.(check bool) "each sleep returns at now + ns" true
    (List.rev !woke = [ (Fiber.Normal, 100); (Fiber.Normal, 600) ]);
  Alcotest.(check int) "both taken in place" 2 (Engine.advanced eng);
  Alcotest.(check int) "nothing left queued" 0 (Engine.pending eng);
  Alcotest.(check int) "spawn plus two events per sleep" 5 (Engine.steps eng)

let test_sleep_tie () =
  let eng = Engine.create () in
  let order = ref [] in
  ignore
    (Fiber.spawn eng (fun () ->
         ignore (Fiber.sleep eng 500 : Fiber.wake);
         order := "sleeper" :: !order)
     : Fiber.t);
  ignore (Engine.schedule_after eng 500 (fun () -> order := "event" :: !order) : Engine.handle);
  Engine.run eng;
  Alcotest.(check (list string)) "event at the wake instant fires first" [ "event"; "sleeper" ]
    (List.rev !order);
  Alcotest.(check int) "the sleep suspended" 0 (Engine.advanced eng)

(* A sleep that would cross a run's limit suspends; the next run resumes
   it where one unlimited run would, at the same step and hash. *)
let test_sleep_across_limit () =
  let world () =
    let eng = Engine.create () in
    let woke = ref None in
    ignore
      (Fiber.spawn eng (fun () ->
           ignore (Fiber.sleep eng 1000 : Fiber.wake);
           woke := Some (Engine.now eng))
       : Fiber.t);
    (eng, woke)
  in
  let whole, whole_woke = world () in
  Engine.run whole;
  Alcotest.(check int) "unlimited run sleeps in place" 1 (Engine.advanced whole);
  List.iter
    (fun (what, first_run) ->
       let eng, woke = world () in
       first_run eng;
       Alcotest.(check (option int)) (what ^ ": still asleep") None !woke;
       Alcotest.(check int) (what ^ ": timer queued") 1 (Engine.pending eng);
       Engine.run eng;
       Alcotest.(check (option int)) (what ^ ": woke on time") !whole_woke !woke;
       Alcotest.(check int) (what ^ ": steps") (Engine.steps whole) (Engine.steps eng);
       Alcotest.(check int64) (what ^ ": trace hash") (Engine.trace_hash whole) (Engine.trace_hash eng);
       Alcotest.(check int) (what ^ ": suspended") 0 (Engine.advanced eng))
    [ ("max_time", fun eng -> Engine.run ~max_time:999 eng);
      ("max_events", fun eng -> Engine.run ~max_events:2 eng) ]

(* A fiber that caught a kill still has it pending; its next suspension
   delivers it again, so such a sleep must not return in place. *)
let test_sleep_pending_kill () =
  let eng = Engine.create () in
  let killed_at = ref [] in
  let f =
    Fiber.spawn eng (fun () ->
        (try ignore (Fiber.suspend ignore : Fiber.wake)
         with Fiber.Killed -> killed_at := Engine.now eng :: !killed_at);
        try ignore (Fiber.sleep eng 100 : Fiber.wake)
        with Fiber.Killed -> killed_at := Engine.now eng :: !killed_at)
  in
  ignore (Engine.schedule_after eng 10 (fun () -> Fiber.kill f) : Engine.handle);
  Engine.run eng;
  Alcotest.(check (list int)) "kill delivered again at the sleep's end" [ 10; 110 ]
    (List.rev !killed_at);
  Alcotest.(check int) "the sleep suspended" 0 (Engine.advanced eng)

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
   with optional limits, under FIFO or a seeded picker.  A script may end
   in [Follow], a same-instant event queued through [Engine.follow], which
   the model queues like any other; outside [run] it can appear anywhere. *)

type eop = Sched of int | Cancel of int | Follow

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

(* Both sides share this driver.  [schedule delay seq body],
   [follow seq body] and [cancel seq] are the implementation's; [body]
   runs event [seq]'s script when it fires.  An event queued by [follow]
   has no handle, so cancelling it is a no-op on both sides. *)
let drive prog ~schedule ~follow ~cancel ~run ~now =
  let created = ref 0 in
  let rec exec op =
    match op with
    | Sched d -> create (fun seq body -> schedule d seq body)
    | Follow -> create follow
    | Cancel k -> if !created > 0 then cancel ((k mod !created) + 1)
  and create queue =
    if !created < event_cap then begin
      incr created;
      let seq = !created in
      queue seq (fun () -> List.iter exec prog.scripts.(seq mod Array.length prog.scripts))
    end
  in
  List.iter
    (fun ph ->
       List.iter exec ph.outside;
       let max_time = Option.map (fun d -> now () + d) ph.time_limit in
       run ph ~max_time)
    prog.phases

(* The event firing as step [s] for [s] in [halts] calls [Engine.halt]
   before its script, so a [Follow] ending that script queues; each
   phase's [run] is then resumed, with what is left of its event limit,
   until it ends on its own.  [at_halt] is false if a halted [run]
   returned anywhere but just after its halting event. *)
let run_engine ?(halts = []) prog =
  let eng = Engine.create () in
  let tr = new_trace () in
  let handles = Hashtbl.create 64 in
  let halted = ref None and at_halt = ref true in
  let event seq body () =
    tr.fired <- (Engine.now eng, seq) :: tr.fired;
    if List.mem (Engine.steps eng) halts then begin
      halted := Some (Engine.steps eng, Engine.now eng);
      Engine.halt eng
    end;
    body ()
  in
  let schedule d seq body = Hashtbl.replace handles seq (Engine.schedule_after eng d (event seq body)) in
  let follow seq body = Engine.follow eng (event seq body) in
  let cancel seq = Option.iter Engine.cancel (Hashtbl.find_opt handles seq) in
  let run ph ~max_time =
    (match ph.picker with
     | None -> Engine.set_picker eng None; Engine.set_observer eng None
     | Some seed ->
       Engine.set_picker eng
         (Some (fun ~step ~ready -> tr.picks <- (step, ready) :: tr.picks; pick_of seed ~step ~ready));
       Engine.set_observer eng
         (Some (fun ~step ~time ~ready ~pick -> tr.observed <- (step, time, ready, pick) :: tr.observed)));
    let steps0 = Engine.steps eng in
    let rec go () =
      halted := None;
      let max_events = Option.map (fun n -> n - (Engine.steps eng - steps0)) ph.event_limit in
      Engine.run ?max_time ?max_events eng;
      match !halted with
      | Some at ->
        if at <> (Engine.steps eng, Engine.now eng) then at_halt := false;
        go ()
      | None -> ()
    in
    go ();
    tr.clocks <- Engine.now eng :: tr.clocks
  in
  drive prog ~schedule ~follow ~cancel ~run ~now:(fun () -> Engine.now eng);
  (tr, Engine.steps eng, Engine.trace_hash eng, !at_halt)

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
  let follow seq body = schedule 0 seq body; Hashtbl.remove all seq in
  let cancel seq = Option.iter (fun e -> e.m_cancelled <- true) (Hashtbl.find_opt all seq) in
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
  drive prog ~schedule ~follow ~cancel ~run ~now:(fun () -> !now);
  (tr, !steps)

let gen_program =
  let open QCheck.Gen in
  let delay = frequency [ (2, return 0); (3, int_range 1 6); (1, int_range 7 40) ] in
  let eop = frequency [ (4, map (fun d -> Sched d) delay); (1, map (fun k -> Cancel k) nat) ] in
  let outside_op = frequency [ (8, eop); (1, return Follow) ] in
  (* Half the scripts end by following up with a same-instant event. *)
  let script =
    map2 (fun ops follow -> if follow then ops @ [ Follow ] else ops) (list_size (int_range 0 3) eop) bool
  in
  let phase =
    map4
      (fun outside picker time_limit event_limit -> { outside; picker; time_limit; event_limit })
      (* Occasional bursts outgrow the queues' initial capacity. *)
      (list_size (frequency [ (6, int_range 0 6); (1, int_range 100 250) ]) outside_op)
      (opt (int_range 0 1000))
      (opt (int_range 0 30))
      (opt (int_range 1 25))
  in
  map2
    (fun scripts (first, rest) ->
       { scripts = Array.of_list scripts; phases = { first with outside = Sched 0 :: first.outside } :: rest })
    (list_size (int_range 1 8) script)
    (pair phase (list_size (int_range 0 6) phase))

let show_program p =
  let op = function Sched d -> Printf.sprintf "S%d" d | Cancel k -> Printf.sprintf "C%d" k | Follow -> "F" in
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

(* Fiber.sleep against [reference_sleep]: random programs of 1-4 fibers
   that sleep, wait and signal on one queue and halt the engine, beside
   standalone events that signal, interrupt, kill or halt, run in chunks
   with random limits under FIFO or a picker. *)

type fop = F_sleep of int | F_wait | F_wait_timeout of int | F_signal | F_halt

type fev = E_nop | E_signal | E_interrupt of int | E_kill of int | E_halt

type fprog = {
  fibers : fop list list;
  events : (int * fev) list;  (* (time, what) *)
  f_picker : int option;
  chunks : (int option * int option) list;  (* (max_time relative to now, max_events) *)
}

type fresult = {
  log : (int * int * int * string) list;  (* (fiber, time, op, outcome), newest first *)
  runs : (int * int) list;  (* (now, steps) after each run *)
  f_picks : (int * int) list;  (* picker calls (step, ready) *)
  hash : int64;
}

let run_fibers ~sleep p =
  let eng = Engine.create () in
  let q = Sync.Waitq.create () in
  let log = ref [] and runs = ref [] and picks = ref [] in
  Option.iter
    (fun seed ->
       Engine.set_picker eng
         (Some (fun ~step ~ready -> picks := (step, ready) :: !picks; pick_of seed ~step ~ready)))
    p.f_picker;
  let wake = function Fiber.Normal -> "normal" | Interrupted -> "interrupted" | Timeout -> "timeout" in
  let body i ops () =
    List.iteri
      (fun j op ->
         let outcome =
           match
             match op with
             | F_sleep d -> wake (sleep eng d)
             | F_wait -> wake (Sync.Waitq.wait q)
             | F_wait_timeout d -> wake (Sync.Waitq.wait_timeout eng q d)
             | F_signal -> string_of_bool (Sync.Waitq.signal q)
             | F_halt -> Engine.halt eng; "halt"
           with
           | s -> s
           | exception Fiber.Killed -> "killed"
         in
         log := (i, Engine.now eng, j, outcome) :: !log)
      ops
  in
  let fibers = Array.of_list (List.mapi (fun i ops -> Fiber.spawn eng (body i ops)) p.fibers) in
  let fiber i = fibers.(i mod Array.length fibers) in
  List.iter
    (fun (at, ev) ->
       ignore
         (Engine.schedule_after eng at (fun () ->
              match ev with
              | E_nop -> ()
              | E_signal -> ignore (Sync.Waitq.signal q : bool)
              | E_interrupt i -> ignore (Fiber.interrupt (fiber i) : bool)
              | E_kill i -> Fiber.kill (fiber i)
              | E_halt -> Engine.halt eng)
          : Engine.handle))
    p.events;
  let run (max_time, max_events) =
    Engine.run ?max_time:(Option.map (fun d -> Engine.now eng + d) max_time) ?max_events eng;
    runs := (Engine.now eng, Engine.steps eng) :: !runs
  in
  List.iter run p.chunks;
  (* Drain, resuming after halts; every program is finite. *)
  run (None, None);
  while Engine.pending eng > 0 do run (None, None) done;
  { log = !log; runs = !runs; f_picks = !picks; hash = Engine.trace_hash eng }

let gen_fprog =
  let open QCheck.Gen in
  (* Multiples of 100 ns, so wake instants often tie with other events. *)
  let ns = map (fun k -> 100 * k) (frequency [ (1, return 0); (4, int_range 1 20) ]) in
  let fop =
    frequency
      [ (5, map (fun d -> F_sleep d) ns);
        (1, return F_wait);
        (1, map (fun d -> F_wait_timeout d) ns);
        (1, return F_signal);
        (1, return F_halt) ]
  in
  let fev =
    frequency
      [ (2, return E_nop);
        (2, return E_signal);
        (1, map (fun i -> E_interrupt i) (int_range 0 3));
        (1, map (fun i -> E_kill i) (int_range 0 3));
        (1, return E_halt) ]
  in
  let chunk = pair (opt (map (fun k -> 50 * k) (int_range 0 40))) (opt (int_range 0 12)) in
  map4
    (fun fibers events f_picker chunks -> { fibers; events; f_picker; chunks })
    (list_size (int_range 1 4) (list_size (int_range 1 6) fop))
    (list_size (int_range 0 5) (pair (map (fun k -> 100 * k) (int_range 0 30)) fev))
    (opt (int_range 0 1000))
    (list_size (int_range 0 5) chunk)

let show_fprog p =
  let op = function
    | F_sleep d -> Printf.sprintf "sleep%d" d
    | F_wait -> "wait"
    | F_wait_timeout d -> Printf.sprintf "wait_timeout%d" d
    | F_signal -> "signal"
    | F_halt -> "halt"
  in
  let ev = function
    | E_nop -> "nop"
    | E_signal -> "signal"
    | E_interrupt i -> Printf.sprintf "interrupt%d" i
    | E_kill i -> Printf.sprintf "kill%d" i
    | E_halt -> "halt"
  in
  let opt = function None -> "-" | Some v -> string_of_int v in
  Printf.sprintf "fibers=%s events=%s pick=%s chunks=%s"
    (String.concat ";" (List.map (fun ops -> String.concat " " (List.map op ops)) p.fibers))
    (String.concat " " (List.map (fun (t, e) -> Printf.sprintf "%d:%s" t (ev e)) p.events))
    (opt p.f_picker)
    (String.concat " "
       (List.map (fun (t, n) -> Printf.sprintf "t<=%s/n<=%s" (opt t) (opt n)) p.chunks))

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
         let a, sa, _, _ = run_engine prog and b, sb = run_model prog in
         let pairs l = String.concat " " (List.rev_map (fun (x, y) -> Printf.sprintf "%d/%d" x y) l) in
         if a.fired <> b.fired then
           QCheck.Test.fail_reportf "fired (time/seq)\nengine %s\nmodel  %s" (pairs a.fired) (pairs b.fired)
         else if a.picks <> b.picks then
           QCheck.Test.fail_reportf "picker calls (step/ready)\nengine %s\nmodel  %s" (pairs a.picks)
             (pairs b.picks)
         else
           a.observed = b.observed && a.clocks = b.clocks && sa = sb);
    QCheck.Test.make ~name:"fiber sleep equals its two-event reference" ~count:1000
      (QCheck.make ~print:show_fprog gen_fprog)
      (fun p ->
         run_fibers ~sleep:Fiber.sleep p = run_fibers ~sleep:reference_sleep p);
    (* Halting is invisible to the schedule: a run halted at random steps
       and resumed each time fires what one uninterrupted run fires, on
       the FIFO and the picker path alike. *)
    QCheck.Test.make ~name:"engine halt then resume equals one run" ~count:500
      (QCheck.make
         ~print:(fun (p, hs) ->
             show_program p ^ " halts=" ^ String.concat "," (List.map string_of_int hs))
         QCheck.Gen.(pair gen_program (list_size (int_range 1 12) (int_range 1 event_cap))))
      (fun (prog, halts) ->
         let a, sa, ha, _ = run_engine prog and b, sb, hb, at_halt = run_engine ~halts prog in
         at_halt && a.fired = b.fired && a.picks = b.picks && a.observed = b.observed
         && a.clocks = b.clocks && sa = sb && ha = hb) ]

let suite =
  [ Alcotest.test_case "engine: ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine: cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine: slot reuse" `Quick test_engine_slot_reuse;
    Alcotest.test_case "engine: max_time" `Quick test_engine_max_time;
    Alcotest.test_case "engine: negative delay" `Quick test_engine_negative_delay;
    Alcotest.test_case "fiber: sleep" `Quick test_fiber_sleep;
    Alcotest.test_case "fiber: kill runs cleanup" `Quick test_fiber_kill_runs_cleanup;
    Alcotest.test_case "fiber: interrupt" `Quick test_fiber_interrupt;
    Alcotest.test_case "fiber: stale wake dropped" `Quick test_fiber_stale_wake;
    Alcotest.test_case "fiber: interrupt and kill while parked" `Quick test_fiber_parked_interrupt_kill;
    Alcotest.test_case "fiber: stale sleep timer" `Quick test_stale_sleep_timer;
    Alcotest.test_case "fiber: suspend outside a fiber" `Quick test_suspend_outside_fiber;
    Alcotest.test_case "fiber: sleep loop allocation" `Quick test_sleep_loop_allocation;
    Alcotest.test_case "waitq: FIFO" `Quick test_waitq_fifo;
    Alcotest.test_case "waitq: timeout" `Quick test_waitq_timeout;
    Alcotest.test_case "waitq: stale entry skipped" `Quick test_waitq_stale_entry;
    Alcotest.test_case "fiber: sleep in place" `Quick test_sleep_in_place;
    Alcotest.test_case "fiber: sleep tie suspends" `Quick test_sleep_tie;
    Alcotest.test_case "fiber: sleep across a run limit" `Quick test_sleep_across_limit;
    Alcotest.test_case "fiber: sleep with a pending kill" `Quick test_sleep_pending_kill;
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
