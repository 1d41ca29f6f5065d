(* The kernel block layer for sud-blk devices: a write-back page cache
   with flush/FUA barriers on top of a plugged request queue that
   C-LOOK-sorts and merges contiguous writes before handing them to the
   attached issuer (the block proxy, or a native driver).

   Durability contract (what the soak oracle holds us to):
   - a plain [write] dirties cache pages and is {e not} durable;
   - [fsync] returning [Ok] means every page dirtied before the call is
     on media — it writes the dirty set back, waits, then sends a Flush
     barrier and waits for that too;
   - [write_fua] is a write-through: durable when it returns.

   The issuer is attachable/detachable at runtime: while detached
   (driver being restarted) requests park in the staging queue and
   dispatch resumes on re-attach, so the cache never observes the
   recovery window.

   Waiting is shaped like Linux's: each batch has its own completion
   that wakes only the fiber waiting on it (submit_bio_wait's on-stack
   completion), and a device keeps one deadline timer for all its
   parked waiters, armed at the earliest deadline and only ever moved
   earlier (blk-mq's per-queue timeout timer). *)

let sector_size = 512
let page_sectors = 8
let page_size = sector_size * page_sectors

let merge_cap = 64                   (* max sectors in one merged request *)
let default_queue_depth = 32

type op = Read | Write | Flush

type request = {
  rq_op : op;
  rq_fua : bool;
  rq_lba : int;                      (* first sector *)
  rq_count : int;                    (* sectors *)
  rq_data : bytes;                   (* count*512; filled by the issuer on Read *)
  mutable rq_done : (status:int -> unit) option;
}

(* First completion wins: a replayed request that was already acknowledged
   (e.g. its completion raced the crash) must not double-fire. *)
let complete r ~status =
  match r.rq_done with
  | Some f ->
    r.rq_done <- None;
    f ~status
  | None -> ()

type page = {
  pg_data : bytes;                   (* page_size *)
  mutable pg_dirty : bool;
  mutable pg_ver : int;              (* bumped per write; guards writeback races *)
}

(* A fiber parked in [run_bios] until its batch lands or its deadline
   passes. *)
type waiter = {
  w_deadline : int;
  mutable w_fiber : Fiber.t option;  (* set only while parked *)
  mutable w_left : int;              (* requests of the batch not yet completed *)
  mutable w_failed : int option;     (* first nonzero completion status *)
}

type t = {
  eng : Engine.t;
  name : string;
  mutable capacity : int;            (* sectors; set when a driver registers *)
  queue_depth : int;
  cache : (int, page) Hashtbl.t;     (* page index -> page *)
  mutable issue : (request -> unit) option;
  mutable staging : request list;    (* reverse submission order *)
  mutable outstanding : int;
  mutable flush_pending : bool;      (* a Flush is dispatched: barrier *)
  mutable head_pos : int;            (* C-LOOK elevator position *)
  mutable waiters : waiter list;     (* parked in [run_bios], newest first *)
  mutable timer : (int * Engine.handle) option;   (* armed deadline *)
  m_cache_hits : Sud_obs.Metrics.counter;
  m_cache_misses : Sud_obs.Metrics.counter;
  m_merges : Sud_obs.Metrics.counter;
  m_flushes : Sud_obs.Metrics.counter;
  m_fua : Sud_obs.Metrics.counter;
  m_reads : Sud_obs.Metrics.counter;
  m_writes : Sud_obs.Metrics.counter;
}

let create ~eng ~name ?(queue_depth = default_queue_depth) ?(capacity = 0) () =
  let t =
    { eng;
      name;
      capacity;
      queue_depth;
      cache = Hashtbl.create 256;
      issue = None;
      staging = [];
      outstanding = 0;
      flush_pending = false;
      head_pos = 0;
      waiters = [];
      timer = None;
      m_cache_hits =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"cache_hits" ();
      m_cache_misses =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"cache_misses" ();
      m_merges =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"request_merges" ();
      m_flushes =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"flush_barriers" ();
      m_fua =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"fua_writes" ();
      m_reads =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"reads_issued" ();
      m_writes =
        Sud_obs.Metrics.counter ~labels:[ "dev", name ] ~subsystem:"blk"
          ~name:"writes_issued" () }
  in
  ignore
    (Sud_obs.Metrics.gauge ~labels:[ "dev", name ] ~subsystem:"blk" ~name:"dirty_pages"
       (fun () ->
          Hashtbl.fold (fun _ pg n -> if pg.pg_dirty then n + 1 else n) t.cache 0)
     : Sud_obs.Metrics.gauge);
  t

let name t = t.name
let capacity t = t.capacity
let set_capacity t c = t.capacity <- c
let attached t = t.issue <> None

(* ---- request queue: plug, C-LOOK sort, merge, bounded dispatch ---- *)

(* C-LOOK: ascending from the elevator's position, then wrap to the
   lowest waiting sector.  Only reorders reads/writes; Flush barriers
   are never staged (fsync drains before sending one). *)
let clook_sort t reqs =
  let above, below = List.partition (fun r -> r.rq_lba >= t.head_pos) reqs in
  let cmp a b = compare a.rq_lba b.rq_lba in
  List.sort cmp above @ List.sort cmp below

(* Fuse physically contiguous same-direction neighbours into one request
   whose completion fans back out to the constituents. *)
let merge_pair t a b =
  Sud_obs.Metrics.incr t.m_merges;
  let data = Bytes.create ((a.rq_count + b.rq_count) * sector_size) in
  Bytes.blit a.rq_data 0 data 0 (Bytes.length a.rq_data);
  Bytes.blit b.rq_data 0 data (Bytes.length a.rq_data) (Bytes.length b.rq_data);
  let merged =
    { rq_op = a.rq_op;
      rq_fua = a.rq_fua;
      rq_lba = a.rq_lba;
      rq_count = a.rq_count + b.rq_count;
      rq_data = data;
      rq_done = None }
  in
  merged.rq_done <-
    Some
      (fun ~status ->
         if a.rq_op = Read && status = 0 then begin
           Bytes.blit merged.rq_data 0 a.rq_data 0 (Bytes.length a.rq_data);
           Bytes.blit merged.rq_data (Bytes.length a.rq_data) b.rq_data 0
             (Bytes.length b.rq_data)
         end;
         complete a ~status;
         complete b ~status);
  merged

let rec merge_run t = function
  | a :: b :: rest
    when a.rq_op = b.rq_op && a.rq_op <> Flush && a.rq_fua = b.rq_fua
         && a.rq_lba + a.rq_count = b.rq_lba
         && a.rq_count + b.rq_count <= merge_cap ->
    merge_run t (merge_pair t a b :: rest)
  | a :: rest -> a :: merge_run t rest
  | [] -> []

let rec dispatch t =
  match t.issue with
  | None -> ()
  | Some issue ->
    if (not t.flush_pending) && t.outstanding < t.queue_depth then begin
      match t.staging with
      | [] -> ()
      | r :: rest ->
        (* A Flush is a full barrier: it waits for the queue to drain and
           nothing dispatches past it until it completes. *)
        if r.rq_op = Flush && t.outstanding > 0 then ()
        else begin
          t.staging <- rest;
          t.outstanding <- t.outstanding + 1;
          if r.rq_op = Flush then t.flush_pending <- true
          else t.head_pos <- r.rq_lba + r.rq_count;
          (match r.rq_op with
           | Read -> Sud_obs.Metrics.incr t.m_reads
           | Write ->
             Sud_obs.Metrics.incr t.m_writes;
             if r.rq_fua then Sud_obs.Metrics.incr t.m_fua
           | Flush -> Sud_obs.Metrics.incr t.m_flushes);
          let inner = r.rq_done in
          r.rq_done <-
            Some
              (fun ~status ->
                 t.outstanding <- t.outstanding - 1;
                 if r.rq_op = Flush then t.flush_pending <- false;
                 (match inner with Some f -> f ~status | None -> ());
                 dispatch t);
          issue r;
          dispatch t
        end
    end

let unplug t =
  let plugged = List.rev t.staging in
  let sortable = List.for_all (fun r -> r.rq_op <> Flush) plugged in
  t.staging <- (if sortable then merge_run t (clook_sort t plugged) else plugged);
  dispatch t

let submit_bio t r =
  t.staging <- r :: t.staging

let attach t issue =
  t.issue <- Some issue;
  unplug t

let detach t = t.issue <- None

(* ---- fiber-blocking waits ---- *)

let wake w why = Option.iter (fun f -> ignore (Fiber.wake f why : bool)) w.w_fiber

(* The device timer: arm it at [deadline] unless it already fires no
   later.  When it fires it times out every waiter whose deadline has
   passed, oldest first, and re-arms for the earliest one left. *)
let rec arm_timer t deadline =
  match t.timer with
  | Some (armed, _) when armed <= deadline -> ()
  | armed ->
    Option.iter (fun (_, h) -> Engine.cancel h) armed;
    let h = Engine.schedule_after t.eng (deadline - Engine.now t.eng) (fun () -> expire t) in
    t.timer <- Some (deadline, h)

and expire t =
  t.timer <- None;
  let now = Engine.now t.eng in
  let next =
    List.fold_left
      (fun next w ->
         if w.w_deadline <= now then begin
           wake w Fiber.Timeout;
           next
         end
         else min next w.w_deadline)
      max_int (List.rev t.waiters)
  in
  if next < max_int then arm_timer t next

(* One parked stretch: filed on the device (arming its timer) for as
   long as the fiber is suspended, and off it again however the fiber
   resumes — a kill unwinds through here and takes the entry with it. *)
let park t w =
  let unpark () =
    w.w_fiber <- None;
    t.waiters <- List.filter (fun x -> x != w) t.waiters
  in
  match
    Fiber.suspend (fun fiber ->
        w.w_fiber <- Some fiber;
        t.waiters <- w :: t.waiters;
        arm_timer t w.w_deadline)
  with
  | why ->
    unpark ();
    why
  | exception e ->
    unpark ();
    raise e

(* Wait for [w]'s batch: done is checked first, whatever woke us, so a
   batch that landed before the wait, or in the instant it timed out,
   still counts. *)
let rec await t w =
  if w.w_left = 0 then true
  else if Engine.now t.eng >= w.w_deadline then false
  else
    match park t w with
    | Fiber.Interrupted -> false
    | Fiber.Normal | Fiber.Timeout -> await t w

let default_timeout_ns = 5_000_000_000

(* Submit a batch, unplug, wait for all to land. *)
let run_bios t ~timeout_ns reqs =
  let w =
    { w_deadline = Engine.now t.eng + timeout_ns;
      w_fiber = None;
      w_left = List.length reqs;
      w_failed = None }
  in
  List.iter
    (fun r ->
       let inner = r.rq_done in
       r.rq_done <-
         Some
           (fun ~status ->
              w.w_left <- w.w_left - 1;
              if status <> 0 && w.w_failed = None then w.w_failed <- Some status;
              (match inner with Some f -> f ~status | None -> ());
              if w.w_left = 0 then wake w Fiber.Normal);
       submit_bio t r)
    reqs;
  unplug t;
  if not (await t w) then Error "block io timed out"
  else match w.w_failed with
    | Some st -> Error (Printf.sprintf "block io failed (status %d)" st)
    | None -> Ok ()

(* ---- the write-back page cache ---- *)

let page_of t idx =
  match Hashtbl.find_opt t.cache idx with
  | Some pg ->
    Sud_obs.Metrics.incr t.m_cache_hits;
    Some pg
  | None ->
    Sud_obs.Metrics.incr t.m_cache_misses;
    None

let insert_page t idx data =
  let pg = { pg_data = data; pg_dirty = false; pg_ver = 0 } in
  Hashtbl.replace t.cache idx pg;
  pg

(* Pull a page from the device into the cache (read-modify-write miss). *)
let fill_page t ~timeout_ns idx =
  let data = Bytes.create page_size in
  let r =
    { rq_op = Read; rq_fua = false; rq_lba = idx * page_sectors;
      rq_count = page_sectors; rq_data = data; rq_done = None }
  in
  match run_bios t ~timeout_ns [ r ] with
  | Error e -> Error e
  | Ok () -> Ok (insert_page t idx data)

let check_range t ~lba ~sectors =
  if sectors <= 0 then Error "sector count must be positive"
  else if lba < 0 || (t.capacity > 0 && lba + sectors > t.capacity) then
    Error "out of range"
  else Ok ()

let read t ?(timeout_ns = default_timeout_ns) ~lba ~sectors () =
  match check_range t ~lba ~sectors with
  | Error e -> Error e
  | Ok () ->
    let out = Bytes.create (sectors * sector_size) in
    let rec go s =
      if s >= sectors then Ok out
      else begin
        let abs = lba + s in
        let idx = abs / page_sectors and off = abs mod page_sectors in
        let n = min (sectors - s) (page_sectors - off) in
        let copy pg =
          Bytes.blit pg.pg_data (off * sector_size) out (s * sector_size)
            (n * sector_size)
        in
        match page_of t idx with
        | Some pg ->
          copy pg;
          go (s + n)
        | None ->
          (match fill_page t ~timeout_ns idx with
           | Error e -> Error e
           | Ok pg ->
             copy pg;
             go (s + n))
      end
    in
    go 0

let write t ?(timeout_ns = default_timeout_ns) ~lba data () =
  let len = Bytes.length data in
  if len = 0 || len mod sector_size <> 0 then Error "write must be whole sectors"
  else begin
    let sectors = len / sector_size in
    match check_range t ~lba ~sectors with
    | Error e -> Error e
    | Ok () ->
      let rec go s =
        if s >= sectors then Ok ()
        else begin
          let abs = lba + s in
          let idx = abs / page_sectors and off = abs mod page_sectors in
          let n = min (sectors - s) (page_sectors - off) in
          let store pg =
            Bytes.blit data (s * sector_size) pg.pg_data (off * sector_size)
              (n * sector_size);
            pg.pg_dirty <- true;
            pg.pg_ver <- pg.pg_ver + 1;
            go (s + n)
          in
          if n = page_sectors then
            (* Full-page overwrite: no read-modify-write needed. *)
            store
              (match Hashtbl.find_opt t.cache idx with
               | Some pg -> pg
               | None -> insert_page t idx (Bytes.create page_size))
          else
            match page_of t idx with
            | Some pg -> store pg
            | None ->
              (match fill_page t ~timeout_ns idx with
               | Error e -> Error e
               | Ok pg -> store pg)
        end
      in
      go 0
  end

let write_bio_of_page idx pg =
  { rq_op = Write; rq_fua = false; rq_lba = idx * page_sectors;
    rq_count = page_sectors; rq_data = Bytes.copy pg.pg_data; rq_done = None }

let fsync t ?(timeout_ns = default_timeout_ns) () =
  let dirty =
    Hashtbl.fold (fun idx pg acc -> if pg.pg_dirty then (idx, pg, pg.pg_ver) :: acc else acc)
      t.cache []
    (* Writeback in page order, not hash order: bio submission order is
       visible to the device (and to schedule replay hashes). *)
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let bios = List.map (fun (idx, pg, _) -> write_bio_of_page idx pg) dirty in
  match run_bios t ~timeout_ns bios with
  | Error e -> Error e
  | Ok () ->
    (* Clean only the pages nobody re-dirtied while writeback ran. *)
    List.iter
      (fun (_, pg, ver) -> if pg.pg_ver = ver then pg.pg_dirty <- false)
      dirty;
    let barrier =
      { rq_op = Flush; rq_fua = false; rq_lba = 0; rq_count = 0;
        rq_data = Bytes.empty; rq_done = None }
    in
    run_bios t ~timeout_ns [ barrier ]

(* Write-through: durable when it returns, no flush needed.  The cache is
   updated too so subsequent reads hit; its pages stay dirty, so the next
   fsync writes them back again. *)
let write_fua t ?(timeout_ns = default_timeout_ns) ~lba data () =
  match write t ~timeout_ns ~lba data () with
  | Error e -> Error e
  | Ok () ->
    let sectors = Bytes.length data / sector_size in
    let r =
      { rq_op = Write; rq_fua = true; rq_lba = lba; rq_count = sectors;
        rq_data = Bytes.copy data; rq_done = None }
    in
    run_bios t ~timeout_ns [ r ]

let dirty_pages t =
  Hashtbl.fold (fun _ pg n -> if pg.pg_dirty then n + 1 else n) t.cache 0

let staged_requests t = List.length t.staging
let outstanding_requests t = t.outstanding
let parked_waiters t = List.length t.waiters

let metrics t =
  ( Sud_obs.Metrics.get t.m_cache_hits,
    Sud_obs.Metrics.get t.m_cache_misses,
    Sud_obs.Metrics.get t.m_merges,
    Sud_obs.Metrics.get t.m_flushes )

(* ---- the kernel's block-device registry ---- *)

type registry = { mutable devs : (string * t) list }

let registry_create () = { devs = [] }

let register reg dev =
  reg.devs <- (name dev, dev) :: List.remove_assoc (name dev) reg.devs

let unregister reg dev = reg.devs <- List.remove_assoc (name dev) reg.devs
let find reg n = List.assoc_opt n reg.devs
let devices reg = List.map snd reg.devs
