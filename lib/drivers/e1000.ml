module R = E1000_dev.Regs

let tx_ring_size = 256          (* 256 * 16B = one page of descriptors *)
let rx_ring_size = 512          (* two pages, as in Figure 9 *)
let rx_buf_size = 2048

(* One TX/RX ring pair.  Queue [qi]'s registers live at the queue-0
   offset plus [qi * R.queue_stride]. *)
type queue = {
  qi : int;
  tx_ring : Driver_api.dma_region;
  rx_ring : Driver_api.dma_region;
  rx_bufs : Driver_api.dma_region;
  tokens : int array;                  (* txb tokens by TX slot *)
  mutable tx_tail : int;
  mutable tx_clean : int;
  mutable rx_next : int;
}

type state = {
  env : Driver_api.env;
  pdev : Driver_api.pcidev;
  cb : Driver_api.net_callbacks;
  mmio : Driver_api.mmio;
  qs : queue array;
  msix : bool;                         (* per-queue vectors; legacy ICR unused *)
  mutable opened : bool;
  mutable irq_seen : bool;             (* for the open-time interrupt self test *)
}

let r32 st off = st.mmio.Driver_api.mmio_read ~off ~size:4
let w32 st off v = st.mmio.Driver_api.mmio_write ~off ~size:4 v

(* Ring register of queue [q]. *)
let qr q base = base + (q.qi * R.queue_stride)

let read_eeprom st addr =
  w32 st R.eerd ((addr lsl 8) lor R.eerd_start);
  let rec poll tries =
    let v = r32 st R.eerd in
    if v land R.eerd_done <> 0 then (v lsr 16) land 0xFFFF
    else if tries = 0 then 0
    else begin
      st.env.Driver_api.env_udelay 1;
      poll (tries - 1)
    end
  in
  poll 100

let read_mac st =
  let mac = Bytes.create 6 in
  for i = 0 to 2 do
    let w = read_eeprom st i in
    Bytes.set mac (2 * i) (Char.chr (w land 0xff));
    Bytes.set mac ((2 * i) + 1) (Char.chr ((w lsr 8) land 0xff))
  done;
  mac

(* Legacy descriptor accessors *)
let write_tx_desc q slot ~addr ~len ~cmd =
  let off = slot * R.desc_size in
  Driver_api.dma_set64 q.tx_ring ~off (Int64.of_int addr);
  (* length, cso 0, cmd; then status, css and special all 0 *)
  Driver_api.dma_set32 q.tx_ring ~off:(off + 8) ((len land 0xFFFF) lor ((cmd land 0xFF) lsl 24));
  Driver_api.dma_set32 q.tx_ring ~off:(off + 12) 0

let tx_desc_done q slot =
  let off = (slot * R.desc_size) + 12 in
  Driver_api.dma_get8 q.tx_ring ~off land R.txd_sta_dd <> 0

let setup_rx_desc q slot =
  let off = slot * R.desc_size in
  let buf_addr = q.rx_bufs.Driver_api.dma_addr + (slot * rx_buf_size) in
  Driver_api.dma_set64 q.rx_ring ~off (Int64.of_int buf_addr);
  Driver_api.dma_set64 q.rx_ring ~off:(off + 8) 0L

let rx_desc_status q slot =
  let off = (slot * R.desc_size) + 12 in
  Driver_api.dma_get8 q.rx_ring ~off

let rx_desc_len q slot =
  let off = (slot * R.desc_size) + 8 in
  Driver_api.dma_get16 q.rx_ring ~off

(* ---- interrupt handler (the driver's top half) ---- *)

let clean_tx st q =
  let cleaned = ref false in
  while q.tx_clean <> q.tx_tail && tx_desc_done q q.tx_clean do
    st.cb.Driver_api.nc_tx_free ~queue:q.qi ~token:q.tokens.(q.tx_clean);
    q.tokens.(q.tx_clean) <- -1;
    q.tx_clean <- (q.tx_clean + 1) mod tx_ring_size;
    cleaned := true
  done;
  if !cleaned then st.cb.Driver_api.nc_tx_done ~queue:q.qi

let napi_budget = 64

let rx_poll st q =
  let budget = ref napi_budget in
  let progress = ref true in
  let last = ref (-1) in
  while !progress && !budget > 0 do
    let status = rx_desc_status q q.rx_next in
    if status land R.rxd_sta_dd <> 0 then begin
      let len = rx_desc_len q q.rx_next in
      let addr = q.rx_bufs.Driver_api.dma_addr + (q.rx_next * rx_buf_size) in
      st.env.Driver_api.env_consume 300;
      st.cb.Driver_api.nc_rx ~queue:q.qi ~addr ~len;
      setup_rx_desc q q.rx_next;
      last := q.rx_next;
      q.rx_next <- (q.rx_next + 1) mod rx_ring_size;
      decr budget
    end
    else progress := false
  done;
  (* Hand the recycled descriptors back in one tail write per batch. *)
  if !last >= 0 then w32 st (qr q R.rdt) !last;
  napi_budget - !budget

let rx_work_pending q = rx_desc_status q q.rx_next land R.rxd_sta_dd <> 0
let tx_work_pending q = q.tx_clean <> q.tx_tail && tx_desc_done q q.tx_clean

(* Interrupt moderation: a round that drains a real burst yet comes up
   short of budget means frames arrive slower than we can poll.  Real
   e1000 hardware rate-limits interrupt delivery with the ITR register;
   the NAPI-mode equivalent is to stay in poll mode (vector still
   masked) and sleep briefly before draining again — the RX ring
   absorbs the hold-off.  This also lets uchan frame aggregation fill
   toward its batch limit instead of flushing a few frames per ack.
   Rounds below [itr_burst_frames] look like request/response traffic,
   where the hold-off would be pure added latency, so we ack at once.
   Only a schedulable poll context may hold off: a SUD driver always is
   (its upcalls run in process context), a native top half never. *)
let itr_holdoff_us = 64
let itr_burst_frames = 4

(* The NAPI bottom half: the vector is masked for the whole poll (the
   kernel masked it before forwarding), so we drain in budget-sized
   rounds and only ack — unmasking the vector — once a round comes up
   short.  Events arriving mid-poll raise no interrupt: MSI-X latches
   them in the pending-bit array and the ack replays them, but legacy
   MSI has no latch, so after acking we re-check the rings ourselves
   and go around again if anything slipped into the window. *)
let napi_poll st q =
  let rec rounds () =
    clean_tx st q;
    let n = rx_poll st q in
    if n >= napi_budget then rounds ()
    else if n >= itr_burst_frames && st.env.Driver_api.env_may_sleep () then begin
      st.env.Driver_api.env_usleep itr_holdoff_us;
      rounds ()
    end
    else begin
      st.pdev.Driver_api.pd_irq_ack ~queue:q.qi ();
      if rx_work_pending q || tx_work_pending q then rounds ()
    end
  in
  rounds ()

(* In MSI-X mode each queue signals its own vector, so vector [q] means
   "queue [q] has work" — no ICR demux, exactly the igb/e1000e MSI-X
   top half.  In legacy MSI mode the single vector demuxes via ICR. *)
let irq_handler st ~queue =
  st.irq_seen <- true;
  if st.msix then
    napi_poll st st.qs.(if queue >= 0 && queue < Array.length st.qs then queue else 0)
  else begin
    let icr = r32 st R.icr in
    if icr land R.int_lsc <> 0 then
      st.cb.Driver_api.nc_carrier (r32 st R.status land R.status_lu <> 0);
    ignore (icr : int);
    napi_poll st st.qs.(0)
  end

(* ---- net_instance callbacks ---- *)

let program_queue st q =
  w32 st (qr q R.tdbal) (q.tx_ring.Driver_api.dma_addr land 0xFFFFFFFF);
  w32 st (qr q R.tdbah) (q.tx_ring.Driver_api.dma_addr lsr 32);
  w32 st (qr q R.tdlen) (tx_ring_size * R.desc_size);
  w32 st (qr q R.tdh) 0;
  w32 st (qr q R.tdt) 0;
  q.tx_tail <- 0;
  q.tx_clean <- 0;
  for i = 0 to rx_ring_size - 1 do setup_rx_desc q i done;
  w32 st (qr q R.rdbal) (q.rx_ring.Driver_api.dma_addr land 0xFFFFFFFF);
  w32 st (qr q R.rdbah) (q.rx_ring.Driver_api.dma_addr lsr 32);
  w32 st (qr q R.rdlen) (rx_ring_size * R.desc_size);
  w32 st (qr q R.rdh) 0;
  w32 st (qr q R.rdt) (rx_ring_size - 1);
  q.rx_next <- 0

let do_open st () =
  if st.opened then Ok ()
  else begin
    let nq = Array.length st.qs in
    match st.pdev.Driver_api.pd_request_irqs ~n:nq (fun ~queue -> irq_handler st ~queue) with
    | Error e -> Error ("request_irqs: " ^ e)
    | Ok () ->
      Array.iter (program_queue st) st.qs;
      (* Spread incoming flows over all RX rings. *)
      if nq > 1 then w32 st R.mrqc nq;
      (* Interrupt moderation, as the real driver's default ITR: ~50 us
         between interrupts (196 * 256 ns). *)
      w32 st R.itr 196;
      w32 st R.ims (R.int_txdw lor R.int_rxt0 lor R.int_lsc);
      let self_test () =
        if st.msix then Ok ()
        (* ICS raises a legacy-MSI interrupt; with MSI-X enabled the
           device never signals that path, so the test only applies to
           single-vector mode — as in e1000e, whose test_msi falls away
           once MSI-X vectors are up. *)
        else begin
          (* Like the real e1000e (paper §4.2): verify the interrupt path
             by raising one and sleeping — which only works if something
             keeps dispatching interrupts while we block. *)
          st.irq_seen <- false;
          w32 st R.ics R.int_txdw;
          let rec wait_irq tries =
            if st.irq_seen then Ok ()
            else if tries = 0 then Error "interrupt self-test failed"
            else begin
              st.env.Driver_api.env_msleep 1;
              wait_irq (tries - 1)
            end
          in
          wait_irq 10
        end
      in
      (match self_test () with
       | Error e ->
         st.pdev.Driver_api.pd_free_irq ();
         Error e
       | Ok () ->
         w32 st R.rctl R.rctl_en;
         w32 st R.tctl R.tctl_en;
         st.opened <- true;
         st.cb.Driver_api.nc_carrier (r32 st R.status land R.status_lu <> 0);
         Ok ())
  end

let do_stop st () =
  if st.opened then begin
    w32 st R.rctl 0;
    w32 st R.tctl 0;
    w32 st R.imc 0xFFFFFFFF;
    st.pdev.Driver_api.pd_free_irq ();
    st.opened <- false
  end

let do_xmit st ~queue (txb : Driver_api.txbuf) =
  let q = st.qs.(if queue >= 0 && queue < Array.length st.qs then queue else 0) in
  let next = (q.tx_tail + 1) mod tx_ring_size in
  if next = q.tx_clean then `Busy     (* ring full *)
  else begin
    st.env.Driver_api.env_consume 350;
    write_tx_desc q q.tx_tail ~addr:txb.Driver_api.txb_addr ~len:txb.Driver_api.txb_len
      ~cmd:(R.txd_cmd_eop lor R.txd_cmd_rs);
    q.tokens.(q.tx_tail) <- txb.Driver_api.txb_token;
    q.tx_tail <- next;
    w32 st (qr q R.tdt) q.tx_tail;
    `Ok
  end

let do_ioctl st ~cmd ~arg =
  ignore arg;
  if cmd = Netdev.ioctl_mii_status then
    Ok (if r32 st R.status land R.status_lu <> 0 then 1 else 0)
  else if cmd = Netdev.ioctl_link_speed then Ok 1000
  else Error "unsupported ioctl"

let probe env pdev cb =
  match pdev.Driver_api.pd_enable () with
  | Error e -> Error ("enable: " ^ e)
  | Ok () ->
    (match pdev.Driver_api.pd_map_bar 0 with
     | Error e -> Error ("map BAR0: " ^ e)
     | Ok mmio ->
       let alloc what bytes =
         match pdev.Driver_api.pd_alloc_dma ~bytes () with
         | Ok r -> r
         | Error e -> failwith (what ^ ": " ^ e)
       in
       (* One ring pair per deliverable MSI-X vector, capped by the
          hardware's queue register file. *)
       let nq = max 1 (min (pdev.Driver_api.pd_msix_vectors ()) R.max_queues) in
       (match
          Array.init nq (fun qi ->
              (* Allocation order matches Figure 9: TX ring, RX ring,
                 buffers — repeated per queue. *)
              let tx_ring = alloc "tx ring" (tx_ring_size * R.desc_size) in
              let rx_ring = alloc "rx ring" (rx_ring_size * R.desc_size) in
              let rx_bufs = alloc "rx buffers" (rx_ring_size * rx_buf_size) in
              { qi;
                tx_ring;
                rx_ring;
                rx_bufs;
                tokens = Array.make tx_ring_size (-1);
                tx_tail = 0;
                tx_clean = 0;
                rx_next = 0 })
        with
        | exception Failure e -> Error e
        | qs ->
          let st = { env; pdev; cb; mmio; qs; msix = nq > 1; opened = false; irq_seen = false } in
          let mac = read_mac st in
          env.Driver_api.env_printk
            (Printf.sprintf "e1000: MAC %02x:%02x:%02x:%02x:%02x:%02x, %d queue%s"
               (Char.code (Bytes.get mac 0)) (Char.code (Bytes.get mac 1))
               (Char.code (Bytes.get mac 2)) (Char.code (Bytes.get mac 3))
               (Char.code (Bytes.get mac 4)) (Char.code (Bytes.get mac 5))
               nq (if nq = 1 then "" else "s"));
          Ok
            { Driver_api.ni_mac = mac;
              ni_tx_queues = nq;
              ni_open = (fun () -> do_open st ());
              ni_stop = (fun () -> do_stop st ());
              ni_xmit = (fun ~queue txb -> do_xmit st ~queue txb);
              ni_ioctl = (fun ~cmd ~arg -> do_ioctl st ~cmd ~arg) }))

let driver =
  { Driver_api.nd_name = "e1000";
    nd_ids = [ (0x8086, 0x10D3) ];
    nd_probe = probe }
