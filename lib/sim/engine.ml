(* Two-tier event queue.

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
  (* Heap: slot i holds event [hev.(i)] due at [htime.(i)]. *)
  mutable htime : int array;
  mutable hseq : int array;
  mutable hev : handle array;
  mutable hlen : int;
  (* Ring: [rlen] events from [rhead], capacity a power of two. *)
  mutable rbuf : handle array;
  mutable rhead : int;
  mutable rlen : int;
  root_rng : Rng.t;
  mutable steps : int;
  mutable thash : int64;
  mutable picker : (step:int -> ready:int -> int) option;
  mutable observer : (step:int -> time:int -> ready:int -> pick:int -> unit) option;
}

let create ?(seed = 1L) () =
  { now = 0;
    seq = 0;
    htime = Array.make 64 0;
    hseq = Array.make 64 0;
    hev = Array.make 64 dummy;
    hlen = 0;
    rbuf = Array.make 64 dummy;
    rhead = 0;
    rlen = 0;
    root_rng = Rng.create ~seed;
    steps = 0;
    thash = 0x5D0_C4ECL;
    picker = None;
    observer = None }

let now t = t.now
let rng t = t.root_rng
let steps t = t.steps
let trace_hash t = t.thash
let set_picker t p = t.picker <- p
let set_observer t o = t.observer <- o

(* ---- heap ---- *)

let heap_grow t =
  let n = 2 * Array.length t.hev in
  let grow a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.hlen;
    b
  in
  t.htime <- grow t.htime 0;
  t.hseq <- grow t.hseq 0;
  t.hev <- grow t.hev dummy

let heap_push t time (ev : handle) =
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
  hseq.(!i) <- ev.seq;
  hev.(!i) <- ev;
  t.hlen <- t.hlen + 1

(* Remove the root: move the last slot into the hole at 0 and sift it down
   past the smallest of up to four children. *)
let heap_pop t =
  let htime = t.htime and hseq = t.hseq and hev = t.hev in
  let top = hev.(0) in
  let n = t.hlen - 1 in
  t.hlen <- n;
  let time = htime.(n) and seq = hseq.(n) and ev = hev.(n) in
  hev.(n) <- dummy;
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
    hev.(!i) <- ev
  end;
  top

(* ---- ring ---- *)

let ring_push t ev =
  let cap = Array.length t.rbuf in
  if t.rlen = cap then begin
    let b = Array.make (2 * cap) dummy in
    for j = 0 to t.rlen - 1 do
      b.(j) <- t.rbuf.((t.rhead + j) land (cap - 1))
    done;
    t.rbuf <- b;
    t.rhead <- 0
  end;
  t.rbuf.((t.rhead + t.rlen) land (Array.length t.rbuf - 1)) <- ev;
  t.rlen <- t.rlen + 1

let ring_pop t =
  let ev = t.rbuf.(t.rhead) in
  t.rbuf.(t.rhead) <- dummy;
  t.rhead <- (t.rhead + 1) land (Array.length t.rbuf - 1);
  t.rlen <- t.rlen - 1;
  ev

(* Remove the [idx]-th event in place: the events before it shift up one
   slot, so the rest keep their seq order.  Picks are mostly 0 (FIFO),
   which moves nothing. *)
let ring_remove t idx =
  let mask = Array.length t.rbuf - 1 in
  let at j = (t.rhead + j) land mask in
  let ev = t.rbuf.(at idx) in
  for j = idx downto 1 do
    t.rbuf.(at j) <- t.rbuf.(at (j - 1))
  done;
  ignore (ring_pop t : handle);
  ev

(* Reap cancelled events from the ring, keeping the survivors' order. *)
let ring_compact t =
  let mask = Array.length t.rbuf - 1 in
  let at j = (t.rhead + j) land mask in
  let k = ref 0 in
  for j = 0 to t.rlen - 1 do
    let ev = t.rbuf.(at j) in
    if not ev.cancelled then begin
      t.rbuf.(at !k) <- ev;
      incr k
    end
  done;
  for j = !k to t.rlen - 1 do
    t.rbuf.(at j) <- dummy
  done;
  t.rlen <- !k

(* Move every event due at the heap's earliest instant into the (empty)
   ring, dropping cancelled ones, and return that instant. *)
let stage t =
  let time = t.htime.(0) in
  while t.hlen > 0 && t.htime.(0) = time do
    let ev = heap_pop t in
    if not ev.cancelled then ring_push t ev
  done;
  time

(* ---- scheduling ---- *)

let schedule_after t delay fn =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  t.seq <- t.seq + 1;
  let ev : handle = { seq = t.seq; fn; cancelled = false } in
  if delay = 0 then ring_push t ev else heap_push t (t.now + delay) ev;
  ev

let schedule_now t fn = schedule_after t 0 fn

let cancel h = h.cancelled <- true

let pending t = t.hlen + t.rlen

(* Fingerprint the fired (time, seq) stream.  Two runs that fire the same
   events in the same order — the definition of an identical schedule —
   produce the same hash; any reordering diverges at the first swap. *)
let fire t (ev : handle) =
  t.steps <- t.steps + 1;
  t.thash <-
    Rng.mix
      (Int64.add
         (Int64.mul t.thash 0x100000001B3L)
         (Int64.of_int (t.now lxor (ev.seq * 0x9E3779B9))));
  ev.fn ()

(* Picker path: the ready set is the ring's uncancelled events, in seq
   order.  The picker chooses one; the rest stay queued in place. *)
let run_policy pick ~max_time ~max_events t =
  let fired = ref 0 in
  let continue_ = ref true in
  while !continue_ && !fired < max_events do
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
        let ev = ring_remove t idx in
        incr fired;
        fire t ev
      end
    end
    else begin
      (* Cancelled events at the head are reaped whatever their time and
         never move the clock; the next live instant is staged only if it
         is within the horizon. *)
      while t.hlen > 0 && t.hev.(0).cancelled do
        ignore (heap_pop t : handle)
      done;
      if t.hlen > 0 && t.htime.(0) <= max_time then t.now <- stage t
      else continue_ := false
    end
  done

let run ?(max_time = max_int) ?(max_events = max_int) t =
  match t.picker with
  | Some pick -> run_policy pick ~max_time ~max_events t
  | None ->
    (* FIFO: drain the ring, then stage the next instant.  Reaching an
       instant advances the clock even if every event there was
       cancelled. *)
    let fired = ref 0 in
    let continue_ = ref true in
    while !continue_ && !fired < max_events do
      if t.rlen > 0 then begin
        if t.now > max_time then continue_ := false
        else begin
          let ev = ring_pop t in
          if not ev.cancelled then begin
            incr fired;
            fire t ev
          end
        end
      end
      else if t.hlen > 0 && t.htime.(0) <= max_time then t.now <- stage t
      else continue_ := false
    done
