(* Two-tier event queue over a slot table.

   - Every queued event sits in a slot of [slots]; the heap and the ring
     hold slot numbers, so moving an event is an int store with no write
     barrier.  Scheduling takes a slot off the [free] stack, and firing
     or reaping an event puts it back.
   - The ring holds the events of the instant being executed, in seq order:
     every delay-0 event lands there, and so does each future instant when
     the clock reaches it.  Whenever the ring is non-empty its events are due
     at [now].
   - The heap holds only future events ([time > now]): a 4-ary min-heap
     keyed on [(time, seq)], with the keys in flat int arrays so a
     comparison is two array loads and no closure call.

   An event is its own cancellation handle; cancelled events stay queued
   and are skipped when reached. *)

type handle = { seq : int; fn : unit -> unit; mutable cancelled : bool }

let dummy = { seq = 0; fn = ignore; cancelled = true }

type t = {
  mutable now : int;
  mutable seq : int;
  (* Slot table: [free.(0 .. nfree - 1)] are the unused slots, the last
     one taken first. *)
  mutable slots : handle array;
  mutable free : int array;
  mutable nfree : int;
  (* Heap: position i holds the event in slot [hev.(i)], due at
     [htime.(i)] with seq [hseq.(i)]. *)
  mutable htime : int array;
  mutable hseq : int array;
  mutable hev : int array;
  mutable hlen : int;
  (* Ring: [rlen] slots from [rhead], capacity a power of two. *)
  mutable rbuf : int array;
  mutable rhead : int;
  mutable rlen : int;
  root_rng : Rng.t;
  mutable steps : int;
  (* The trace hash as 8 raw bytes, so updating it boxes nothing. *)
  thash : Bytes.t;
  mutable halted : bool;
  (* Limits of the [run] in progress: the clock may not pass [horizon]
     and [steps] may not pass [step_limit].  [run] restores both on
     return; outside any [run] they are [-1] and [0], which keeps
     {!advance} and {!follow} from applying there. *)
  mutable horizon : int;
  mutable step_limit : int;
  mutable advanced : int;
  mutable picker : (step:int -> ready:int -> int) option;
  mutable observer : (step:int -> time:int -> ready:int -> pick:int -> unit) option;
}

let create ?(seed = 1L) () =
  let thash = Bytes.create 8 in
  Bytes.set_int64_le thash 0 0x5D0_C4ECL;
  { now = 0;
    seq = 0;
    slots = Array.make 64 dummy;
    free = Array.init 64 (fun i -> 63 - i);
    nfree = 64;
    htime = Array.make 64 0;
    hseq = Array.make 64 0;
    hev = Array.make 64 0;
    hlen = 0;
    rbuf = Array.make 64 0;
    rhead = 0;
    rlen = 0;
    root_rng = Rng.create ~seed;
    steps = 0;
    thash;
    halted = false;
    horizon = -1;
    step_limit = 0;
    advanced = 0;
    picker = None;
    observer = None }

let now t = t.now
let rng t = t.root_rng
let steps t = t.steps
let advanced t = t.advanced
let trace_hash t = Bytes.get_int64_le t.thash 0
let set_picker t p = t.picker <- p
let set_observer t o = t.observer <- o

(* ---- slots ---- *)

(* Only called with every slot in use, so the new upper half is the whole
   free stack. *)
let slots_grow t =
  let cap = Array.length t.slots in
  let slots = Array.make (2 * cap) dummy in
  Array.blit t.slots 0 slots 0 cap;
  t.slots <- slots;
  t.free <- Array.init (2 * cap) (fun i -> if i < cap then (2 * cap) - 1 - i else 0);
  t.nfree <- cap

let slot_take t ev =
  if t.nfree = 0 then slots_grow t;
  let n = t.nfree - 1 in
  t.nfree <- n;
  let s = t.free.(n) in
  t.slots.(s) <- ev;
  s

(* Empty slot [s] and return the event it held. *)
let slot_release t s =
  let ev = t.slots.(s) in
  t.slots.(s) <- dummy;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1;
  ev

(* ---- heap ---- *)

let heap_grow t =
  let n = 2 * Array.length t.hev in
  let grow a =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 t.hlen;
    b
  in
  t.htime <- grow t.htime;
  t.hseq <- grow t.hseq;
  t.hev <- grow t.hev

let heap_push t time seq s =
  if t.hlen = Array.length t.hev then heap_grow t;
  let htime = t.htime and hseq = t.hseq and hev = t.hev in
  (* Sift the hole up from the end, moving parents down.  Every push
     carries the newest seq, so a parent due at the same time is older
     and stays put: only [time] needs comparing. *)
  let i = ref t.hlen in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = htime.(p) in
    if time < pt then begin
      htime.(!i) <- pt;
      hseq.(!i) <- hseq.(p);
      hev.(!i) <- hev.(p);
      i := p
    end else continue_ := false
  done;
  htime.(!i) <- time;
  hseq.(!i) <- seq;
  hev.(!i) <- s;
  t.hlen <- t.hlen + 1

(* Remove the root and return its slot: move the last position into the
   hole at 0 and sift it down past the smallest of up to four children. *)
let heap_pop t =
  let htime = t.htime and hseq = t.hseq and hev = t.hev in
  let top = hev.(0) in
  let n = t.hlen - 1 in
  t.hlen <- n;
  let time = htime.(n) and seq = hseq.(n) and s = hev.(n) in
  if n > 0 then begin
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let c0 = (4 * !i) + 1 in
      if c0 >= n then continue_ := false
      else begin
        let m = ref c0 in
        for c = c0 + 1 to min (c0 + 3) (n - 1) do
          let ct = htime.(c) and mt = htime.(!m) in
          if ct < mt || (ct = mt && hseq.(c) < hseq.(!m)) then m := c
        done;
        let m = !m in
        let mt = htime.(m) in
        if mt < time || (mt = time && hseq.(m) < seq) then begin
          htime.(!i) <- mt;
          hseq.(!i) <- hseq.(m);
          hev.(!i) <- hev.(m);
          i := m
        end else continue_ := false
      end
    done;
    htime.(!i) <- time;
    hseq.(!i) <- seq;
    hev.(!i) <- s
  end;
  top

(* ---- ring ---- *)

let ring_push t s =
  let cap = Array.length t.rbuf in
  if t.rlen = cap then begin
    let b = Array.make (2 * cap) 0 in
    for j = 0 to t.rlen - 1 do
      b.(j) <- t.rbuf.((t.rhead + j) land (cap - 1))
    done;
    t.rbuf <- b;
    t.rhead <- 0
  end;
  t.rbuf.((t.rhead + t.rlen) land (Array.length t.rbuf - 1)) <- s;
  t.rlen <- t.rlen + 1

let ring_pop t =
  let s = t.rbuf.(t.rhead) in
  t.rhead <- (t.rhead + 1) land (Array.length t.rbuf - 1);
  t.rlen <- t.rlen - 1;
  s

(* Remove the [idx]-th slot in place: the slots before it shift up one
   place, so the rest keep their seq order.  Picks are mostly 0 (FIFO),
   which moves nothing. *)
let ring_remove t idx =
  let mask = Array.length t.rbuf - 1 in
  let at j = (t.rhead + j) land mask in
  let s = t.rbuf.(at idx) in
  for j = idx downto 1 do
    t.rbuf.(at j) <- t.rbuf.(at (j - 1))
  done;
  ignore (ring_pop t : int);
  s

(* Reap cancelled events from the ring, keeping the survivors' order. *)
let ring_compact t =
  let mask = Array.length t.rbuf - 1 in
  let at j = (t.rhead + j) land mask in
  let k = ref 0 in
  for j = 0 to t.rlen - 1 do
    let s = t.rbuf.(at j) in
    if t.slots.(s).cancelled then ignore (slot_release t s : handle)
    else begin
      t.rbuf.(at !k) <- s;
      incr k
    end
  done;
  t.rlen <- !k

(* Move every event due at the heap's earliest instant into the (empty)
   ring, dropping cancelled ones, and return that instant. *)
let stage t =
  let time = t.htime.(0) in
  while t.hlen > 0 && t.htime.(0) = time do
    let s = heap_pop t in
    if t.slots.(s).cancelled then ignore (slot_release t s : handle) else ring_push t s
  done;
  time

(* ---- scheduling ---- *)

let schedule_after t delay fn =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  t.seq <- t.seq + 1;
  let ev : handle = { seq = t.seq; fn; cancelled = false } in
  let s = slot_take t ev in
  if delay = 0 then ring_push t s else heap_push t (t.now + delay) t.seq s;
  ev

let schedule_now t fn = schedule_after t 0 fn

let cancel h = h.cancelled <- true

let halt t = t.halted <- true

let pending t = t.hlen + t.rlen

(* Fingerprint the fired (time, seq) stream.  Two runs that fire the same
   events in the same order — the definition of an identical schedule —
   produce the same hash; any reordering diverges at the first swap.  The
   mix is {!Rng.mix}, written out here so the int64s stay unboxed. *)
let count t seq =
  t.steps <- t.steps + 1;
  let h = Bytes.get_int64_le t.thash 0 in
  let z = Int64.add (Int64.mul h 0x100000001B3L) (Int64.of_int (t.now lxor (seq * 0x9E3779B9))) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Bytes.set_int64_le t.thash 0 (Int64.logxor z (Int64.shift_right_logical z 31))

let fire t (ev : handle) =
  count t ev.seq;
  ev.fn ()

(* A lone timer at [now + delay] followed by the resume it queues there:
   with the ring empty and nothing in the heap due by then, the two would
   fire back to back, each alone in its ready set.  Account for them
   without queueing either.  Cancelled events in the heap count as due,
   so a cancelled event that would move the FIFO clock blocks this too. *)
let advance t delay =
  let time = t.now + delay in
  if delay > 0 && t.rlen = 0
     && (t.hlen = 0 || t.htime.(0) > time)
     && delay <= t.horizon - t.now
     && t.steps + 2 <= t.step_limit
     && not t.halted
  then begin
    t.now <- time;
    count t (t.seq + 1);
    count t (t.seq + 2);
    t.seq <- t.seq + 2;
    t.advanced <- t.advanced + 1;
    true
  end
  else false

(* The event calling this is about to return.  With the ring empty, [fn]
   queued now would be alone in the next ready set, and both loops would
   fire it next if the limits allow one more event: so fire it here.  The
   clock is within [horizon], or the calling event would not have fired. *)
let follow t fn =
  if t.rlen = 0 && t.steps < t.step_limit && not t.halted then begin
    t.seq <- t.seq + 1;
    count t t.seq;
    fn ()
  end
  else ignore (schedule_now t fn : handle)

(* Picker path: the ready set is the ring's uncancelled events, in seq
   order.  The picker chooses one; the rest stay queued in place. *)
let run_policy pick ~max_time t =
  let continue_ = ref true in
  while !continue_ && t.steps < t.step_limit && not t.halted do
    ring_compact t;
    if t.rlen > 0 then begin
      if t.now > max_time then continue_ := false
      else begin
        let n = t.rlen in
        let idx =
          if n = 1 then 0
          else begin
            let i = pick ~step:t.steps ~ready:n in
            let i = if i < 0 || i >= n then 0 else i in
            (match t.observer with
             | Some obs -> obs ~step:t.steps ~time:t.now ~ready:n ~pick:i
             | None -> ());
            i
          end
        in
        fire t (slot_release t (ring_remove t idx))
      end
    end
    else begin
      (* Cancelled events at the head are reaped whatever their time and
         never move the clock; the next live instant is staged only if it
         is within the horizon. *)
      while t.hlen > 0 && t.slots.(t.hev.(0)).cancelled do
        ignore (slot_release t (heap_pop t) : handle)
      done;
      if t.hlen > 0 && t.htime.(0) <= max_time then t.now <- stage t
      else continue_ := false
    end
  done

(* FIFO: drain the ring, then stage the next instant.  Reaching an
   instant advances the clock even if every event there was cancelled. *)
let run_fifo ~max_time t =
  let continue_ = ref true in
  while !continue_ && t.steps < t.step_limit && not t.halted do
    if t.rlen > 0 then begin
      if t.now > max_time then continue_ := false
      else begin
        let ev = slot_release t (ring_pop t) in
        if not ev.cancelled then fire t ev
      end
    end
    else if t.hlen > 0 && t.htime.(0) <= max_time then t.now <- stage t
    else continue_ := false
  done

(* Both loops count [max_events] from [steps], so the events {!advance}
   accounts for count exactly like fired ones. *)
let run ?(max_time = max_int) ?(max_events = max_int) t =
  let horizon = t.horizon and step_limit = t.step_limit in
  t.halted <- false;
  t.horizon <- max_time;
  t.step_limit <- (if max_events >= max_int - t.steps then max_int else t.steps + max_events);
  Fun.protect
    ~finally:(fun () ->
        t.horizon <- horizon;
        t.step_limit <- step_limit)
    (fun () ->
       match t.picker with
       | Some pick -> run_policy pick ~max_time t
       | None -> run_fifo ~max_time t)
