module R = Hda_dev.Regs

let period_bytes = 4096
let periods = 4

type state = {
  env : Driver_api.env;
  pdev : Driver_api.pcidev;
  cb : Driver_api.audio_callbacks;
  mmio : Driver_api.mmio;
  bdl : Driver_api.dma_region;
  pcm : Driver_api.dma_region;      (* periods * period_bytes cyclic buffer *)
  pending : Buffer.t;               (* PCM queued by the app, waiting for a period *)
  mutable fill_next : int;          (* next period slot to refill *)
  mutable running : bool;
}

let r32 st off = st.mmio.Driver_api.mmio_read ~off ~size:4
let w32 st off v = st.mmio.Driver_api.mmio_write ~off ~size:4 v

let fill_period st slot =
  let have = Buffer.length st.pending in
  let chunk = min have period_bytes in
  let data = Bytes.make period_bytes '\000' in
  if chunk > 0 then begin
    Bytes.blit_string (Buffer.sub st.pending 0 chunk) 0 data 0 chunk;
    let rest = Buffer.sub st.pending chunk (have - chunk) in
    Buffer.clear st.pending;
    Buffer.add_string st.pending rest
  end;
  Driver_api.dma_write st.pcm ~off:(slot * period_bytes) data

let irq_handler st () =
  let sts = r32 st R.sd0_sts in
  if sts land R.sdsts_bcis <> 0 then begin
    w32 st R.sd0_sts R.sdsts_bcis;
    w32 st R.intsts R.intsts_sd0;
    (* Refill the period the engine just finished. *)
    fill_period st st.fill_next;
    st.fill_next <- (st.fill_next + 1) mod periods;
    st.env.Driver_api.env_consume 1_000;
    st.cb.Driver_api.ac_period_elapsed ()
  end;
  st.pdev.Driver_api.pd_irq_ack ()

let write_bdl st =
  for i = 0 to periods - 1 do
    let off = i * R.bdl_entry_size in
    Driver_api.dma_set64 st.bdl ~off
      (Int64.of_int (st.pcm.Driver_api.dma_addr + (i * period_bytes)));
    Driver_api.dma_set32 st.bdl ~off:(off + 8) period_bytes;
    Driver_api.dma_set32 st.bdl ~off:(off + 12) R.bdl_ioc
  done

let do_start st () =
  if st.running then Ok ()
  else
    match st.pdev.Driver_api.pd_request_irqs ~n:1 (fun ~queue:_ -> irq_handler st ()) with
    | Error e -> Error e
    | Ok () ->
      w32 st R.gctl R.gctl_crst;
      write_bdl st;
      for i = 0 to periods - 1 do fill_period st i done;
      st.fill_next <- 0;
      w32 st R.sd0_bdpl (st.bdl.Driver_api.dma_addr land 0xFFFFFFFF);
      w32 st R.sd0_bdpu (st.bdl.Driver_api.dma_addr lsr 32);
      w32 st R.sd0_cbl (periods * period_bytes);
      w32 st R.sd0_lvi (periods - 1);
      w32 st R.intctl R.intsts_sd0;
      w32 st R.sd0_ctl (R.sdctl_run lor R.sdctl_ioce);
      st.running <- true;
      Ok ()

let do_stop st () =
  if st.running then begin
    w32 st R.sd0_ctl 0;
    w32 st R.intctl 0;
    st.pdev.Driver_api.pd_free_irq ();
    st.running <- false
  end

let max_pending = 8 * period_bytes

let do_write st data =
  let room = max_pending - Buffer.length st.pending in
  let n = min room (Bytes.length data) in
  if n > 0 then Buffer.add_subbytes st.pending data 0 n;
  n

let codec_cmd st verb payload =
  w32 st R.icoi ((verb lsl 8) lor (payload land 0xff));
  let rec poll tries =
    if r32 st R.icii land 1 <> 0 then Ok (r32 st R.irii)
    else if tries = 0 then Error "codec timeout"
    else begin
      st.env.Driver_api.env_udelay 10;
      poll (tries - 1)
    end
  in
  poll 100

let probe env pdev cb =
  match pdev.Driver_api.pd_enable () with
  | Error e -> Error ("enable: " ^ e)
  | Ok () ->
    (match pdev.Driver_api.pd_map_bar 0 with
     | Error e -> Error ("map BAR0: " ^ e)
     | Ok mmio ->
       (match
          ( pdev.Driver_api.pd_alloc_dma ~bytes:Bus.page_size (),
            pdev.Driver_api.pd_alloc_dma ~bytes:(periods * period_bytes) () )
        with
        | Ok bdl, Ok pcm ->
          let st =
            { env;
              pdev;
              cb;
              mmio;
              bdl;
              pcm;
              pending = Buffer.create max_pending;
              fill_next = 0;
              running = false }
          in
          (* Sanity: the codec must answer with its vendor ID. *)
          (match codec_cmd st R.verb_get_param R.param_vendor_id with
           | Ok v when v <> 0 ->
             Ok
               { Driver_api.au_start = (fun () -> do_start st ());
                 au_stop = (fun () -> do_stop st ());
                 au_write = (fun data -> do_write st data);
                 au_set_volume =
                   (fun v ->
                      match codec_cmd st R.verb_set_volume v with
                      | Ok _ -> Ok ()
                      | Error e -> Error e);
                 au_get_volume = (fun () -> codec_cmd st R.verb_get_volume 0) }
           | Ok _ -> Error "codec returned a null vendor id"
           | Error e -> Error ("codec: " ^ e))
        | Error e, _ | _, Error e -> Error ("alloc: " ^ e)))

let driver =
  { Driver_api.ad_name = "snd-hda-intel"; ad_ids = [ (0x8086, 0x293E) ]; ad_probe = probe }
