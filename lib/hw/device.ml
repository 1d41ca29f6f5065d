type ops = {
  mmio_read : bar:int -> off:int -> size:int -> int;
  mmio_write : bar:int -> off:int -> size:int -> int -> unit;
  io_read : bar:int -> off:int -> size:int -> int;
  io_write : bar:int -> off:int -> size:int -> int -> unit;
  reset : unit -> unit;
}

type host_iface = {
  dma_read_into :
    source:Bus.bdf -> addr:int -> dst:bytes -> dst_off:int -> len:int -> (unit, Bus.fault) result;
  dma_write_from :
    source:Bus.bdf -> addr:int -> src:bytes -> src_off:int -> len:int -> (unit, Bus.fault) result;
}

type t = {
  dname : string;
  dcfg : Pci_cfg.t;
  mutable dops : ops;
  mutable dbdf : Bus.bdf option;
  mutable host : host_iface option;
  mutable spoof : Bus.bdf option;
  msg : bytes;                  (* an MSI message's 4 data bytes *)
}

let no_io =
  let fail _ = failwith "Device: ops not installed" in
  { mmio_read = (fun ~bar:_ ~off:_ ~size:_ -> fail ());
    mmio_write = (fun ~bar:_ ~off:_ ~size:_ _ -> fail ());
    io_read = (fun ~bar:_ ~off:_ ~size:_ -> fail ());
    io_write = (fun ~bar:_ ~off:_ ~size:_ _ -> fail ());
    reset = (fun () -> fail ()) }

let create ~name ~cfg ~ops =
  { dname = name; dcfg = cfg; dops = ops; dbdf = None; host = None; spoof = None;
    msg = Bytes.create 4 }

let name t = t.dname
let cfg t = t.dcfg
let ops t = t.dops
let set_ops t ops = t.dops <- ops

let bdf t =
  match t.dbdf with
  | Some b -> b
  | None -> failwith (t.dname ^ ": not attached")

let is_attached t = t.dbdf <> None

let attach_to_host t ~bdf host =
  t.dbdf <- Some bdf;
  t.host <- Some host

let set_spoof_source t s = t.spoof <- s

let source t = match t.spoof with Some s -> s | None -> bdf t

let mastering t = Pci_cfg.command_has t.dcfg Pci_cfg.cmd_bus_master

let dma_read_into t ~addr ~dst ~dst_off ~len =
  if dst_off < 0 || len < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Device.dma_read_into";
  match t.host with
  | None -> Error (Bus.Bus_abort { addr })
  | Some h ->
    if not (mastering t) then Error (Bus.Bus_abort { addr })
    else h.dma_read_into ~source:(source t) ~addr ~dst ~dst_off ~len

let dma_write_from t ~addr ~src ~src_off ~len =
  if src_off < 0 || len < 0 || src_off + len > Bytes.length src then
    invalid_arg "Device.dma_write_from";
  match t.host with
  | None -> Error (Bus.Bus_abort { addr })
  | Some h ->
    if not (mastering t) then Error (Bus.Bus_abort { addr })
    else h.dma_write_from ~source:(source t) ~addr ~src ~src_off ~len

let dma_read t ~addr ~len =
  let b = Bytes.create len in
  match dma_read_into t ~addr ~dst:b ~dst_off:0 ~len with Ok () -> Ok b | Error f -> Error f

let dma_write t ~addr ~data = dma_write_from t ~addr ~src:data ~src_off:0 ~len:(Bytes.length data)

let send_message t ~addr ~data =
  Bytes.set_int32_le t.msg 0 (Int32.of_int data);
  dma_write t ~addr ~data:t.msg

let raise_msi t =
  if Pci_cfg.msi_enabled t.dcfg && not (Pci_cfg.msi_masked t.dcfg) then
    send_message t ~addr:(Pci_cfg.msi_address t.dcfg) ~data:(Pci_cfg.msi_data t.dcfg)
  else Ok ()

let raise_msix t ~vector =
  if not (Pci_cfg.msix_enabled t.dcfg) || Pci_cfg.msix_func_masked t.dcfg then Ok ()
  else if Pci_cfg.msix_masked t.dcfg ~vector then begin
    (* Suppressed by the per-vector mask bit: latch pending, as the
       spec's pending-bit array does, so software can see the storm it
       is sitting on. *)
    Pci_cfg.msix_set_pending t.dcfg ~vector true;
    Ok ()
  end
  else
    send_message t ~addr:(Pci_cfg.msix_address t.dcfg ~vector)
      ~data:(Pci_cfg.msix_data t.dcfg ~vector)
