(* A simulated NVMe-style block controller: paired submission/completion
   queues in host memory, per-queue doorbells, DMA for both the queue
   entries and the data, one MSI-X vector per queue pair.

   The durability model is the part the sud-blk recovery machinery is
   built against: writes land in a {e volatile} write cache that only a
   flush (or a FUA write) moves to media, and [reset] — the supervisor's
   FLR stand-in — drops the cache.  A driver death therefore genuinely
   loses unflushed data at the device, exactly the window crash-consistent
   replay has to cover. *)

module Regs = struct
  let cap_mqes = 0x00            (* max queue entries (RO) *)
  let cap_nqs = 0x04             (* queue pairs implemented (RO) *)
  let vs = 0x08                  (* version (RO) *)
  let cc = 0x14                  (* controller config: bit0 EN *)
  let csts = 0x1C                (* controller status: bit0 RDY *)
  let cap_lo = 0x28              (* capacity in sectors, low 32 (RO) *)
  let cap_hi = 0x2C

  (* Queue-pair configuration block: queue [q]'s registers start at
     [qcfg_base + q * qcfg_stride]. *)
  let qcfg_base = 0x100
  let qcfg_stride = 0x20
  let sq_base_lo = 0x00
  let sq_base_hi = 0x04
  let sq_size = 0x08             (* entries *)
  let cq_base_lo = 0x0C
  let cq_base_hi = 0x10
  let cq_size = 0x14

  (* Doorbells: SQ tail at [db_base + q*8], CQ head at [+4]. *)
  let db_base = 0x1000

  let cc_en = 1
  let csts_rdy = 1

  let sqe_size = 64
  let cqe_size = 16

  (* NVMe IO command set opcodes. *)
  let op_flush = 0x00
  let op_write = 0x01
  let op_read = 0x02

  let flags_fua = 0x01

  let max_queues = 8
  let mqes = 256
end

open Regs

let sector_size = 512

(* Sector maps keyed by LBA: LBAs are small non-negative ints, so they
   hash to themselves. *)
module Lba = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash lba = lba land max_int
  end)

(* What an LBA never written reads as.  Shared and never written: read
   assembly only blits out of it. *)
let zero_sector = Bytes.make sector_size '\000'

type qp = {
  mutable sqb : int;             (* SQ base bus address *)
  mutable sqn : int;             (* SQ entries *)
  mutable cqb : int;
  mutable cqn : int;
  mutable sq_head : int;         (* device consumer index *)
  mutable sq_tail : int;         (* driver producer index (doorbell) *)
  mutable cq_tail : int;         (* device producer index *)
  mutable cq_head : int;         (* driver consumer index (doorbell) *)
  mutable cq_phase : int;        (* phase the device writes this wrap *)
  mutable busy : bool;           (* a processing pass is scheduled *)
}

let fresh_qp () =
  { sqb = 0; sqn = 0; cqb = 0; cqn = 0; sq_head = 0; sq_tail = 0;
    cq_tail = 0; cq_head = 0; cq_phase = 1; busy = false }

let qp_reset q =
  q.sqb <- 0; q.sqn <- 0; q.cqb <- 0; q.cqn <- 0;
  q.sq_head <- 0; q.sq_tail <- 0; q.cq_tail <- 0; q.cq_head <- 0;
  q.cq_phase <- 1; q.busy <- false

type t = {
  eng : Engine.t;
  dev : Device.t;
  queues : int;
  capacity : int;                            (* sectors *)
  mutable regs_cc : int;
  mutable regs_csts : int;
  qps : qp array;
  (* Durable media vs volatile write cache, both lba -> 512B sector.
     [reset] clears the cache and leaves media — the crash window.
     Stored sectors are fresh [Bytes] each, never views of [staging], so
     neither map aliases in-flight DMA or the other. *)
  media : bytes Lba.t;
  wcache : bytes Lba.t;
  (* DMA scratch, per device: read assembly and write DMA go through
     [staging] (grown to the largest transfer seen); a submission entry
     is fetched into [sqe], a completion entry built in [cqe].  Each is
     consumed before the next DMA that could reuse it. *)
  mutable staging : bytes;
  sqe : bytes;
  cqe : bytes;
  mutable epoch : int;                       (* invalidates scheduled work across reset *)
  (* Storage fault hooks (armed by the soak harness, one-shot). *)
  mutable corrupt_next_completion : int option;  (* xor mask over the cid *)
  mutable drop_next_completion : bool;
  mutable drop_next_flush : bool;
  mutable n_read : int;
  mutable n_write : int;
  mutable n_flush : int;
  mutable n_fua : int;
  mutable n_dma_fault : int;
  mutable n_irq : int;
  mutable n_dropped_completions : int;
  mutable n_corrupted_completions : int;
  mutable n_dropped_flushes : int;
}

let per_cmd_delay = 400 (* ns of device-side processing per command *)

let enabled t = t.regs_cc land cc_en <> 0

let dma_ok t = function
  | Ok () -> true
  | Error _ ->
    t.n_dma_fault <- t.n_dma_fault + 1;
    false

let dma_in t ~addr ~dst ~len = dma_ok t (Device.dma_read_into t.dev ~addr ~dst ~dst_off:0 ~len)
let dma_out t ~addr ~src ~len = dma_ok t (Device.dma_write_from t.dev ~addr ~src ~src_off:0 ~len)

let staging t len =
  if Bytes.length t.staging < len then t.staging <- Bytes.create len;
  t.staging

let find_sector tbl lba = match Lba.find tbl lba with b -> b | exception Not_found -> zero_sector

let persist_sector t lba data =
  Lba.replace t.media lba data;
  Lba.remove t.wcache lba

let do_flush t =
  Lba.iter (fun lba data -> Lba.replace t.media lba data) t.wcache;
  Lba.reset t.wcache

(* Post one CQE and signal the queue's vector.  This is where the
   one-shot completion faults bite: a dropped completion vanishes (the
   request stays outstanding forever from the host's point of view), a
   corrupted one carries a garbled cid. *)
let post_cqe t qi cid status =
  let q = t.qps.(qi) in
  if q.cqn > 0 then begin
    if t.drop_next_completion then begin
      t.drop_next_completion <- false;
      t.n_dropped_completions <- t.n_dropped_completions + 1
    end
    else begin
      let cid =
        match t.corrupt_next_completion with
        | Some mask ->
          t.corrupt_next_completion <- None;
          t.n_corrupted_completions <- t.n_corrupted_completions + 1;
          (cid lxor mask) land 0xFFFF
        | None -> cid
      in
      let cqe = t.cqe in
      Bytes.fill cqe 0 cqe_size '\000';
      Bytes.set_uint16_le cqe 8 (q.sq_head land 0xFFFF);
      Bytes.set_uint16_le cqe 12 (cid land 0xFFFF);
      Bytes.set_uint16_le cqe 14 ((status lsl 1) lor q.cq_phase);
      let addr = q.cqb + (q.cq_tail * cqe_size) in
      if dma_out t ~addr ~src:cqe ~len:cqe_size then begin
        q.cq_tail <- q.cq_tail + 1;
        if q.cq_tail >= q.cqn then begin
          q.cq_tail <- 0;
          q.cq_phase <- 1 - q.cq_phase
        end;
        t.n_irq <- t.n_irq + 1;
        if Pci_cfg.msix_enabled (Device.cfg t.dev) then
          ignore (Device.raise_msix t.dev ~vector:qi : (unit, Bus.fault) result)
        else ignore (Device.raise_msi t.dev : (unit, Bus.fault) result)
      end
    end
  end

let cq_full q = q.cqn > 0 && (q.cq_tail + 1) mod q.cqn = q.cq_head

(* Execute one submission entry.  Data moves by DMA against the PRP the
   entry names, so a driver pointing it at unmapped IOVA space faults in
   the IOMMU like any other rogue DMA. *)
let execute t qi sqe =
  let op = Char.code (Bytes.get sqe 0) in
  let flags = Char.code (Bytes.get sqe 1) in
  let cid = Bytes.get_uint16_le sqe 2 in
  let prp = Int64.to_int (Bytes.get_int64_le sqe 8) in
  let slba = Int64.to_int (Bytes.get_int64_le sqe 16) in
  let count = Int32.to_int (Bytes.get_int32_le sqe 24) land 0xFFFFFFFF in
  if op = op_flush then begin
    if t.drop_next_flush then begin
      (* The lying-firmware fault: the flush disappears — nothing is
         persisted and, crucially, nothing is acknowledged, so the host
         escalates by timeout instead of trusting a false durability
         claim. *)
      t.drop_next_flush <- false;
      t.n_dropped_flushes <- t.n_dropped_flushes + 1
    end
    else begin
      t.n_flush <- t.n_flush + 1;
      do_flush t;
      post_cqe t qi cid 0
    end
  end
  else if op = op_write then begin
    if count = 0 || slba < 0 || slba + count > t.capacity then post_cqe t qi cid 2
    else
      let len = count * sector_size in
      let data = staging t len in
      if not (dma_in t ~addr:prp ~dst:data ~len) then post_cqe t qi cid 1
      else begin
        t.n_write <- t.n_write + 1;
        let fua = flags land flags_fua <> 0 in
        if fua then t.n_fua <- t.n_fua + 1;
        for i = 0 to count - 1 do
          let s = Bytes.sub data (i * sector_size) sector_size in
          if fua then persist_sector t (slba + i) s
          else Lba.replace t.wcache (slba + i) s
        done;
        post_cqe t qi cid 0
      end
  end
  else if op = op_read then begin
    if count = 0 || slba < 0 || slba + count > t.capacity then post_cqe t qi cid 2
    else begin
      let len = count * sector_size in
      let data = staging t len in
      for i = 0 to count - 1 do
        let s =
          match Lba.find t.wcache (slba + i) with
          | b -> b
          | exception Not_found -> find_sector t.media (slba + i)
        in
        Bytes.blit s 0 data (i * sector_size) sector_size
      done;
      t.n_read <- t.n_read + 1;
      if dma_out t ~addr:prp ~src:data ~len then post_cqe t qi cid 0
      else post_cqe t qi cid 1
    end
  end
  else post_cqe t qi cid 3                   (* unknown opcode *)

(* Pull commands off queue [qi] one per [per_cmd_delay], like the e1000's
   per-descriptor pacing.  Stalls when the CQ is full; the CQ head
   doorbell kicks it again. *)
let rec kick t qi =
  let q = t.qps.(qi) in
  if enabled t && (not q.busy) && q.sqn > 0 && q.sq_head <> q.sq_tail
     && not (cq_full q)
  then begin
    q.busy <- true;
    let epoch = t.epoch in
    ignore
      (Engine.schedule_after t.eng per_cmd_delay (fun () ->
           if t.epoch = epoch then begin
             q.busy <- false;
             if enabled t && q.sqn > 0 && q.sq_head <> q.sq_tail && not (cq_full q)
             then begin
               let idx = q.sq_head in
               q.sq_head <- (q.sq_head + 1) mod q.sqn;
               if dma_in t ~addr:(q.sqb + (idx * sqe_size)) ~dst:t.sqe ~len:sqe_size then
                 execute t qi t.sqe;
               kick t qi
             end
           end)
       : Engine.handle)
  end

let reset t =
  t.epoch <- t.epoch + 1;
  t.regs_cc <- 0;
  t.regs_csts <- 0;
  Array.iter qp_reset t.qps;
  (* Volatile cache contents die with the controller. *)
  Lba.reset t.wcache;
  t.corrupt_next_completion <- None;
  t.drop_next_completion <- false;
  t.drop_next_flush <- false

let qcfg_reg off =
  if off < qcfg_base then None
  else
    let rel = off - qcfg_base in
    let q = rel / qcfg_stride and reg = rel mod qcfg_stride in
    if q < max_queues then Some (q, reg) else None

let db_reg off =
  if off < db_base then None
  else
    let rel = off - db_base in
    let q = rel / 8 and reg = rel mod 8 in
    if q < max_queues && (reg = 0 || reg = 4) then Some (q, reg) else None

let peek t off =
  if off = cap_mqes then mqes
  else if off = cap_nqs then t.queues
  else if off = vs then 0x00010400
  else if off = cc then t.regs_cc
  else if off = csts then t.regs_csts
  else if off = cap_lo then t.capacity land 0xFFFFFFFF
  else if off = cap_hi then t.capacity lsr 32
  else
    match qcfg_reg off with
    | Some (qi, reg) when qi < t.queues ->
      let q = t.qps.(qi) in
      if reg = sq_base_lo then q.sqb land 0xFFFFFFFF
      else if reg = sq_base_hi then q.sqb lsr 32
      else if reg = sq_size then q.sqn
      else if reg = cq_base_lo then q.cqb land 0xFFFFFFFF
      else if reg = cq_base_hi then q.cqb lsr 32
      else if reg = cq_size then q.cqn
      else 0
    | _ -> 0

let write32 t off v =
  let v = v land 0xFFFFFFFF in
  if off = cc then begin
    let was = enabled t in
    t.regs_cc <- v;
    if v land cc_en <> 0 then begin
      t.regs_csts <- csts_rdy;
      if not was then for qi = 0 to t.queues - 1 do kick t qi done
    end
    else t.regs_csts <- 0
  end
  else
    match qcfg_reg off with
    | Some (qi, reg) when qi < t.queues ->
      let q = t.qps.(qi) in
      if reg = sq_base_lo then q.sqb <- q.sqb land lnot 0xFFFFFFFF lor v
      else if reg = sq_base_hi then q.sqb <- q.sqb land 0xFFFFFFFF lor (v lsl 32)
      else if reg = sq_size then q.sqn <- min v mqes
      else if reg = cq_base_lo then q.cqb <- q.cqb land lnot 0xFFFFFFFF lor v
      else if reg = cq_base_hi then q.cqb <- q.cqb land 0xFFFFFFFF lor (v lsl 32)
      else if reg = cq_size then q.cqn <- min v mqes
    | _ ->
      (match db_reg off with
       | Some (qi, reg) when qi < t.queues ->
         let q = t.qps.(qi) in
         if reg = 0 then begin
           if q.sqn > 0 then begin
             q.sq_tail <- v mod q.sqn;
             kick t qi
           end
         end
         else if q.cqn > 0 then begin
           q.cq_head <- v mod q.cqn;
           kick t qi                       (* CQ space may unstall the SQ *)
         end
       | _ -> ())

let sub_access off size =
  let word = off land lnot 3 and shift = (off land 3) * 8 in
  let mask = ((1 lsl (size * 8)) - 1) lsl shift in
  (word, shift, mask)

let mmio_read t ~bar ~off ~size =
  if bar <> 0 then 0
  else if size = 4 && off land 3 = 0 then peek t off
  else begin
    let word, shift, mask = sub_access off size in
    (peek t word land mask) lsr shift
  end

let mmio_write t ~bar ~off ~size v =
  if bar = 0 then begin
    if size = 4 && off land 3 = 0 then write32 t off v
    else begin
      let word, shift, mask = sub_access off size in
      let merged = peek t word land lnot mask lor ((v lsl shift) land mask) in
      write32 t word merged
    end
  end

let create eng ?(queues = 4) ?(capacity = 16384) () =
  if queues < 1 || queues > max_queues then
    invalid_arg "Nvme_dev.create: queues must be 1..8";
  let cfg =
    Pci_cfg.create ~vendor:0x8086 ~device:0x0953 ~class_code:0x010802
      ~bars:[| Some (Pci_cfg.Mem { size = 0x4000 }) |]
      ()
  in
  Pci_cfg.add_msi_capability cfg;
  Pci_cfg.add_msix_capability cfg ~vectors:queues;
  let dev = Device.create ~name:"nvme" ~cfg ~ops:Device.no_io in
  let t =
    { eng;
      dev;
      queues;
      capacity;
      regs_cc = 0;
      regs_csts = 0;
      qps = Array.init max_queues (fun _ -> fresh_qp ());
      media = Lba.create 1024;
      wcache = Lba.create 256;
      staging = Bytes.empty;
      sqe = Bytes.create sqe_size;
      cqe = Bytes.create cqe_size;
      epoch = 0;
      corrupt_next_completion = None;
      drop_next_completion = false;
      drop_next_flush = false;
      n_read = 0;
      n_write = 0;
      n_flush = 0;
      n_fua = 0;
      n_dma_fault = 0;
      n_irq = 0;
      n_dropped_completions = 0;
      n_corrupted_completions = 0;
      n_dropped_flushes = 0 }
  in
  reset t;
  Device.set_ops t.dev
    { Device.mmio_read = (fun ~bar ~off ~size -> mmio_read t ~bar ~off ~size);
      mmio_write = (fun ~bar ~off ~size v -> mmio_write t ~bar ~off ~size v);
      io_read = (fun ~bar:_ ~off:_ ~size -> (1 lsl (size * 8)) - 1);
      io_write = (fun ~bar:_ ~off:_ ~size:_ _ -> ());
      reset = (fun () -> reset t) };
  t

let device t = t.dev
let queues t = t.queues
let capacity t = t.capacity

(* Oracle-side accessors for the crash-consistency invariant: what is
   durably on media (survives reset) vs parked in the volatile cache. *)
let media_sector t ~lba = Lba.find_opt t.media lba
let cached_sector t ~lba = Lba.find_opt t.wcache lba
let dirty_cache_sectors t = Lba.length t.wcache

let inject_corrupt_completion t ~mask =
  t.corrupt_next_completion <- Some (mask land 0xFFFF)

let inject_drop_completion t = t.drop_next_completion <- true
let inject_drop_flush t = t.drop_next_flush <- true

let debug_qp_summary t =
  String.concat "; "
    (List.init t.queues (fun qi ->
         let q = t.qps.(qi) in
         Printf.sprintf "q%d sqh %d sqt %d cqt %d cqh %d cqn %d busy %b" qi
           q.sq_head q.sq_tail q.cq_tail q.cq_head q.cqn q.busy))

let reads t = t.n_read
let writes t = t.n_write
let flushes t = t.n_flush
let fua_writes t = t.n_fua
let dma_faults t = t.n_dma_fault
let irqs_raised t = t.n_irq
let dropped_completions t = t.n_dropped_completions
let corrupted_completions t = t.n_corrupted_completions
let dropped_flushes t = t.n_dropped_flushes
