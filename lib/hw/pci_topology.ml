type acs = { mutable source_validation : bool; mutable p2p_redirect : bool }

type switch = {
  sname : string;
  sacs : acs;
  parent : switch option;         (* None = the root complex *)
  bus : int;
  mutable next_dev : int;
}

type attached = {
  dev : Device.t;
  abdf : Bus.bdf;
  sw : switch;
  mmio_bars : (int * int * int) list;  (* (bar, base, size) *)
  io_bars : (int * int * int) list;    (* (bar, port_base, len) *)
}

type t = {
  mem : Phys_mem.t;
  iommu : Iommu.t;
  ioports : Ioport.t;
  root : switch;
  mutable sws : switch list;
  mutable next_bus : int;
  mutable devs : attached list;
  mutable next_mmio : int;
  mutable next_io : int;
  mutable msi_sink : (source:Bus.bdf -> vector:int -> unit) option;
  mutable dma_charge : ([ `Hit | `Walk | `Bypass ] -> unit) option;
  mutable flt : Bus.fault list;   (* newest first *)
  pm : metrics;
}
and metrics = {
  pm_p2p : Sud_obs.Metrics.counter;
  pm_msi : Sud_obs.Metrics.counter;
  pm_ir_blocked : Sud_obs.Metrics.counter;
}

(* MMIO windows are carved from high physical space, well above any RAM the
   simulator allocates, so BAR addresses and DMA-able RAM never collide. *)
let mmio_window_base = 0xE000_0000
let io_window_base = 0xC000

let create ~mem ~iommu ~ioports () =
  let root = { sname = "root-complex"; sacs = { source_validation = false; p2p_redirect = false }; parent = None; bus = 0; next_dev = 0 } in
  { mem;
    iommu;
    ioports;
    root;
    sws = [ root ];
    next_bus = 1;
    devs = [];
    next_mmio = mmio_window_base;
    next_io = io_window_base;
    msi_sink = None;
    dma_charge = None;
    flt = [];
    pm =
      (let c name = Sud_obs.Metrics.counter ~subsystem:"pci" ~name () in
       { pm_p2p = c "p2p_delivered";
         pm_msi = c "msi_delivered";
         pm_ir_blocked = c "msi_blocked_by_ir" }) }

let root_switch t = t.root

let add_switch t ~parent ~name =
  let sw = { sname = name; sacs = { source_validation = false; p2p_redirect = false }; parent = Some parent; bus = t.next_bus; next_dev = 0 } in
  t.next_bus <- t.next_bus + 1;
  t.sws <- sw :: t.sws;
  sw

let switch_name sw = sw.sname
let acs sw = sw.sacs
let switches t = List.rev t.sws

let enable_acs_everywhere t =
  List.iter
    (fun sw ->
       sw.sacs.source_validation <- true;
       sw.sacs.p2p_redirect <- true)
    t.sws

let devices t = List.rev_map (fun a -> a.dev) t.devs
let find_attached t bdf = List.find_opt (fun a -> a.abdf = bdf) t.devs
let find_device t bdf = Option.map (fun a -> a.dev) (find_attached t bdf)

let device_switch t bdf =
  match find_attached t bdf with
  | Some a -> a.sw
  | None -> invalid_arg "Pci_topology.device_switch: unknown device"

let set_msi_sink t sink = t.msi_sink <- Some sink
let set_dma_charge t f = t.dma_charge <- Some f

let record_fault t f = t.flt <- f :: t.flt

(* Path from a device's switch up to (excluding) the root pseudo-switch's
   parent: immediate switch first. *)
let rec switch_path sw = sw :: (match sw.parent with None -> [] | Some p -> switch_path p)

let alloc_aligned next size =
  let base = (next + size - 1) land lnot (size - 1) in
  (base, base + size)

(* ---- CPU-side decode tables ---- *)

let mmio_target t addr =
  List.find_map
    (fun a ->
       List.find_map
         (fun (bar, base, size) ->
            if addr >= base && addr < base + size then Some (a, bar, addr - base) else None)
         a.mmio_bars)
    t.devs

let mmio_read t ~addr ~size =
  match mmio_target t addr with
  | Some (a, bar, off) when Pci_cfg.command_has (Device.cfg a.dev) Pci_cfg.cmd_mem_enable ->
    (Device.ops a.dev).mmio_read ~bar ~off ~size
  | Some _ | None -> raise (Phys_mem.Bus_error addr)

let mmio_write t ~addr ~size v =
  match mmio_target t addr with
  | Some (a, bar, off) when Pci_cfg.command_has (Device.cfg a.dev) Pci_cfg.cmd_mem_enable ->
    (Device.ops a.dev).mmio_write ~bar ~off ~size v
  | Some _ | None -> raise (Phys_mem.Bus_error addr)

(* ---- Device-initiated transactions ---- *)

let deliver_msi t ~source ~data =
  let vector = data land 0xff in
  if Iommu.ir_check t.iommu ~source ~vector then begin
    Sud_obs.Metrics.incr t.pm.pm_msi;
    match t.msi_sink with
    | Some sink -> sink ~source ~vector
    | None -> ()
  end
  else begin
    Sud_obs.Metrics.incr t.pm.pm_ir_blocked;
    record_fault t (Bus.Ir_blocked { source; vector })
  end

(* Check ACS source validation at the requester's upstream port. *)
let source_ok t requester ~claimed =
  let sw = requester.sw in
  if sw.sacs.source_validation && claimed <> requester.abdf then begin
    let f = Bus.Source_invalid { claimed; port = requester.abdf } in
    record_fault t f;
    Error f
  end
  else Ok ()

(* Find a peer whose MMIO BAR claims [addr] and whose lowest common ancestor
   switch with the requester does not redirect P2P requests upward. *)
let p2p_victim t requester addr =
  (* Every BAR is carved from [mmio_window_base, next_mmio), so RAM
     addresses skip the BAR scan. *)
  if addr < mmio_window_base || addr >= t.next_mmio then None
  else
    match mmio_target t addr with
    | Some (victim, bar, off) when victim.abdf <> requester.abdf ->
      let req_path = switch_path requester.sw in
      let vic_path = switch_path victim.sw in
      let lca = List.find_opt (fun sw -> List.memq sw vic_path) req_path in
      (match lca with
       | Some sw when not sw.sacs.p2p_redirect -> Some (victim, bar, off)
       | Some _ | None -> None)
    | Some _ | None -> None

(* Every DMA that reaches the root complex pays for its translation: an
   IOTLB hit is nearly free, a page-table walk is not, passthrough costs
   nothing extra.  The sink (installed by the kernel) maps the outcome to
   Cost_model charges, so Figure 8 reflects the cache. *)
let translate_charged t ~source ~addr ~dir =
  let result, how = Iommu.translate_info t.iommu ~source ~addr ~dir in
  (match t.dma_charge with Some f -> f how | None -> ());
  result

(* The peer BAR [addr] lands in, if any.  [att] is the device issuing the
   DMA and [source] the requester ID it claims: only a spoofed one needs
   looking up, and a spoofed ID that names no attached device translates
   under its IOMMU domain with no peer in reach. *)
let peer_of t att ~source addr =
  if source = att.abdf then p2p_victim t att addr
  else
    match find_attached t source with
    | None -> None
    | Some requester -> p2p_victim t requester addr

(* Where one page of a transfer goes: a peer's BAR, the MSI window or
   RAM.  Only the first page is charged and cached in the IOTLB; later
   pages are checked by a bare page-table walk (DESIGN.md, "DMA data
   path"). *)
type route = [ `Phys of int | `Msi | `Fault of Bus.fault | `Peer of attached * int * int ]

let route t att ~source ~addr ~dir ~first : route =
  match peer_of t att ~source addr with
  | Some (victim, bar, off) ->
    Sud_obs.Metrics.incr t.pm.pm_p2p;
    `Peer (victim, bar, off)
  | None ->
    ((if first then translate_charged t ~source ~addr ~dir
      else Iommu.check t.iommu ~source ~addr ~dir)
     :> route)

let abort t addr =
  let f = Bus.Bus_abort { addr } in
  record_fault t f;
  Error f

(* Whether [len] bytes at [addr] can move along [r]; records the fault
   when they cannot.  A read of the MSI window or of RAM beyond the end
   of physical memory is a master abort. *)
let usable t ~dir ~addr ~len r =
  match r with
  | `Fault f -> Error f
  | `Msi when dir = Bus.Dma_read -> abort t addr
  | `Phys p when p + len > Phys_mem.size t.mem -> abort t addr
  | `Msi | `Phys _ | `Peer _ -> Ok ()

(* Route every page of a transfer that crosses a page boundary, as
   [(offset, length, route)] pieces, before any byte moves: a fault on
   any page fails the whole transfer. *)
let resolve t att ~source ~addr ~len ~dir =
  let rec go off acc =
    if off >= len then Ok (List.rev acc)
    else begin
      let a = addr + off in
      let chunk = min (len - off) (Bus.page_size - (a land Bus.page_mask)) in
      let r = route t att ~source ~addr:a ~dir ~first:(off = 0) in
      match usable t ~dir ~addr:a ~len:chunk r with
      | Error f -> Error f
      | Ok () -> go (off + chunk) ((off, chunk, r) :: acc)
    end
  in
  go 0 []

let fits_in_page addr len = (addr land Bus.page_mask) + len <= Bus.page_size

(* Move one usable piece between [buf] at [off] and where [r] routes it.
   A peer-to-peer read pulls bytes out of the victim's registers, a write
   pushes them in; a write to the MSI window is an interrupt message. *)
let read_piece t ~source:_ buf off len = function
  | `Phys p -> Phys_mem.blit_out t.mem ~addr:p ~dst:buf ~dst_off:off ~len
  | `Peer (victim, bar, reg) ->
    let ops = Device.ops victim.dev in
    for i = 0 to len - 1 do
      Bytes.set buf (off + i) (Char.chr (ops.Device.mmio_read ~bar ~off:(reg + i) ~size:1 land 0xff))
    done
  | `Msi | `Fault _ -> assert false

let write_piece t ~source buf off len = function
  | `Phys p -> Phys_mem.blit_in t.mem ~addr:p ~src:buf ~src_off:off ~len
  | `Peer (victim, bar, reg) ->
    let ops = Device.ops victim.dev in
    for i = 0 to len - 1 do
      ops.Device.mmio_write ~bar ~off:(reg + i) ~size:1 (Char.code (Bytes.get buf (off + i)))
    done
  | `Msi ->
    if len >= 4 then
      deliver_msi t ~source ~data:(Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF)
  | `Fault _ -> assert false

(* One DMA of [len] bytes at bus address [addr] from or into [buf] at
   [off]; [move] is [read_piece] or [write_piece]. *)
let transfer t att ~source ~addr ~dir ~buf ~off ~len move =
  match source_ok t att ~claimed:source with
  | Error f -> Error f
  | Ok () ->
    if fits_in_page addr len then begin
      let r = route t att ~source ~addr ~dir ~first:true in
      match usable t ~dir ~addr ~len r with
      | Error f -> Error f
      | Ok () ->
        move t ~source buf off len r;
        Ok ()
    end
    else
      match resolve t att ~source ~addr ~len ~dir with
      | Error f -> Error f
      | Ok pieces ->
        List.iter (fun (at, len, r) -> move t ~source buf (off + at) len r) pieces;
        Ok ()

let host_iface_for t att =
  { Device.dma_read_into =
      (fun ~source ~addr ~dst ~dst_off ~len ->
         transfer t att ~source ~addr ~dir:Bus.Dma_read ~buf:dst ~off:dst_off ~len read_piece);
    dma_write_from =
      (fun ~source ~addr ~src ~src_off ~len ->
         transfer t att ~source ~addr ~dir:Bus.Dma_write ~buf:src ~off:src_off ~len write_piece) }

let attach t ~switch:sw dev =
  if Device.is_attached dev then invalid_arg "Pci_topology.attach: already attached";
  let bdf = Bus.make_bdf ~bus:sw.bus ~dev:sw.next_dev ~fn:0 in
  sw.next_dev <- sw.next_dev + 1;
  let cfg = Device.cfg dev in
  let mmio_bars = ref [] and io_bars = ref [] in
  for bar = 0 to 5 do
    match Pci_cfg.bar_kind cfg bar with
    | Some (Pci_cfg.Mem { size }) ->
      let base, next = alloc_aligned t.next_mmio size in
      t.next_mmio <- next;
      Pci_cfg.set_bar_base cfg bar base;
      mmio_bars := (bar, base, size) :: !mmio_bars
    | Some (Pci_cfg.Io { size }) ->
      let base, next = alloc_aligned t.next_io size in
      t.next_io <- next;
      Pci_cfg.set_bar_base cfg bar base;
      io_bars := (bar, base, size) :: !io_bars
    | None -> ()
  done;
  let att = { dev; abdf = bdf; sw; mmio_bars = List.rev !mmio_bars; io_bars = List.rev !io_bars } in
  List.iter
    (fun (bar, base, len) ->
       Ioport.register t.ioports ~base ~len
         ~read:(fun ~off ~size ->
             if Pci_cfg.command_has cfg Pci_cfg.cmd_io_enable then
               (Device.ops dev).io_read ~bar ~off ~size
             else (1 lsl (size * 8)) - 1)
         ~write:(fun ~off ~size v ->
             if Pci_cfg.command_has cfg Pci_cfg.cmd_io_enable then
               (Device.ops dev).io_write ~bar ~off ~size v))
    att.io_bars;
  t.devs <- att :: t.devs;
  Device.attach_to_host dev ~bdf (host_iface_for t att);
  bdf

let cfg_read t bdf ~off ~size =
  match find_attached t bdf with
  | Some a -> Pci_cfg.read (Device.cfg a.dev) ~off ~size
  | None -> (1 lsl (size * 8)) - 1

let cfg_write t bdf ~off ~size v =
  match find_attached t bdf with
  | Some a -> Pci_cfg.write (Device.cfg a.dev) ~off ~size v
  | None -> ()

let bar_region t bdf ~bar =
  match find_attached t bdf with
  | None -> None
  | Some a ->
    List.find_map (fun (b, base, size) -> if b = bar then Some (base, size) else None) a.mmio_bars

let io_region t bdf ~bar =
  match find_attached t bdf with
  | None -> None
  | Some a ->
    List.find_map (fun (b, base, size) -> if b = bar then Some (base, size) else None) a.io_bars

let routing_faults t = List.rev t.flt
let metrics t = t.pm
