module R = Ne2k_dev.Regs

(* Card memory layout (256-byte pages): PROM shadow in page 0, TX staging
   in pages 1..6, receive ring in 7..63. *)
let tx_page = 1
let rx_start = 7
let rx_stop = R.buffer_pages

type state = {
  env : Driver_api.env;
  pdev : Driver_api.pcidev;
  cb : Driver_api.net_callbacks;
  io : Driver_api.pio;
  bounce : Driver_api.dma_region;   (* staging area for frames handed to the stack *)
  mutable next_pkt : int;           (* next ring page to read (BNRY shadow + 1) *)
  mutable opened : bool;
  mutable tx_in_flight : bool;
}

let outb st off v = st.io.Driver_api.pio_write ~off ~size:1 v
let inb st off = st.io.Driver_api.pio_read ~off ~size:1

let remote_setup st ~addr ~count =
  outb st R.rsar0 (addr land 0xff);
  outb st R.rsar1 (addr lsr 8);
  outb st R.rbcr0 (count land 0xff);
  outb st R.rbcr1 (count lsr 8)

let remote_read st ~addr ~count =
  outb st R.cr (R.cr_sta lor R.cr_rd_read);
  remote_setup st ~addr ~count;
  Bytes.init count (fun _ -> Char.chr (inb st R.dataport land 0xff))

let remote_write st ~addr data =
  outb st R.cr (R.cr_sta lor R.cr_rd_write);
  remote_setup st ~addr ~count:(Bytes.length data);
  Bytes.iter (fun c -> outb st R.dataport (Char.code c)) data

let read_prom_mac st =
  let prom = remote_read st ~addr:0 ~count:12 in
  Bytes.init 6 (fun i -> Bytes.get prom (2 * i))

(* ---- receive: drain the BNRY..CURR ring ---- *)

let rec rx_drain st =
  outb st R.cr (R.cr_sta lor R.cr_page1);
  let curr = inb st R.curr in
  outb st R.cr R.cr_sta;
  if st.next_pkt <> curr then begin
    let hdr = remote_read st ~addr:(st.next_pkt * 256) ~count:4 in
    let next = Char.code (Bytes.get hdr 1) in
    let len = Bytes.get_uint16_le hdr 2 - 4 in
    if len > 0 && len <= 1514 && next >= rx_start && next < rx_stop then begin
      let frame = remote_read st ~addr:((st.next_pkt * 256) + 4) ~count:len in
      st.env.Driver_api.env_consume 300;
      (* Stage in the bounce region so the environment can take it by bus
         address, like any other driver. *)
      Driver_api.dma_write st.bounce ~off:0 frame;
      st.cb.Driver_api.nc_rx ~queue:0 ~addr:st.bounce.Driver_api.dma_addr ~len;
      st.next_pkt <- next;
      outb st R.bnry (if next = rx_start then rx_stop - 1 else next - 1);
      rx_drain st
    end
    else begin
      (* Corrupt header: reset the ring rather than trust it. *)
      st.next_pkt <- rx_start;
      outb st R.bnry (rx_stop - 1)
    end
  end

let irq_handler st () =
  let isr = inb st R.isr in
  outb st R.isr isr;   (* write-1-to-clear *)
  if isr land R.isr_prx <> 0 then rx_drain st;
  if isr land R.isr_ptx <> 0 then begin
    st.tx_in_flight <- false;
    st.cb.Driver_api.nc_tx_done ~queue:0
  end;
  st.pdev.Driver_api.pd_irq_ack ()

let do_open st () =
  if st.opened then Ok ()
  else
    match st.pdev.Driver_api.pd_request_irqs ~n:1 (fun ~queue:_ -> irq_handler st ()) with
    | Error e -> Error e
    | Ok () ->
      outb st R.cr R.cr_stp;
      outb st R.dcr 0x49;
      outb st R.pstart rx_start;
      outb st R.pstop rx_stop;
      outb st R.bnry (rx_stop - 1);
      outb st R.cr (R.cr_stp lor R.cr_page1);
      outb st R.curr rx_start;
      outb st R.cr R.cr_sta;
      st.next_pkt <- rx_start;
      outb st R.imr (R.isr_prx lor R.isr_ptx);
      outb st R.rcr 0x04;
      outb st R.tcr 0x00;
      st.opened <- true;
      st.cb.Driver_api.nc_carrier true;
      Ok ()

let do_stop st () =
  if st.opened then begin
    outb st R.imr 0;
    outb st R.cr R.cr_stp;
    st.pdev.Driver_api.pd_free_irq ();
    st.opened <- false
  end

let do_xmit st (txb : Driver_api.txbuf) =
  if st.tx_in_flight then `Busy
  else begin
    let frame = txb.Driver_api.txb_read () in
    (* The PIO copy into card memory is the whole point of this driver:
       every byte crosses an IO port. *)
    remote_write st ~addr:(tx_page * 256) frame;
    outb st R.tpsr tx_page;
    outb st R.tbcr0 (Bytes.length frame land 0xff);
    outb st R.tbcr1 (Bytes.length frame lsr 8);
    outb st R.cr (R.cr_sta lor R.cr_txp);
    st.tx_in_flight <- true;
    st.cb.Driver_api.nc_tx_free ~queue:0 ~token:txb.Driver_api.txb_token;
    `Ok
  end

let do_ioctl st ~cmd ~arg =
  ignore arg;
  if cmd = Netdev.ioctl_mii_status then Ok (if st.opened then 1 else 0)
  else if cmd = Netdev.ioctl_link_speed then Ok 10
  else Error "unsupported ioctl"

let probe env pdev cb =
  match pdev.Driver_api.pd_enable () with
  | Error e -> Error ("enable: " ^ e)
  | Ok () ->
    (match pdev.Driver_api.pd_io_bar 0 with
     | Error e -> Error ("io bar: " ^ e)
     | Ok io ->
       (match pdev.Driver_api.pd_alloc_dma ~bytes:Bus.page_size () with
        | Error e -> Error ("bounce buffer: " ^ e)
        | Ok bounce ->
          let st =
            { env;
              pdev;
              cb;
              io;
              bounce;
              next_pkt = rx_start;
              opened = false;
              tx_in_flight = false }
          in
          let mac = read_prom_mac st in
          Ok
            { Driver_api.ni_mac = mac;
              ni_tx_queues = 1;
              ni_open = (fun () -> do_open st ());
              ni_stop = (fun () -> do_stop st ());
              ni_xmit = (fun ~queue:_ txb -> do_xmit st txb);
              ni_ioctl = (fun ~cmd ~arg -> do_ioctl st ~cmd ~arg) }))

let driver =
  { Driver_api.nd_name = "ne2k-pci"; nd_ids = [ (0x10EC, 0x8029) ]; nd_probe = probe }
