(* Shared test plumbing: build machines, attach NICs, run driver setups. *)

let mac_a = Skbuff.Mac.of_string "52:54:00:12:34:56"
let mac_b = Skbuff.Mac.of_string "52:54:00:ab:cd:ef"

(* Run [main] as a fiber on a fresh engine+kernel until it returns; fails
   if it has not returned within [max_ms] simulated ms (a deadlock). *)
let run_in_kernel ?iommu_mode ?enable_acs ?(max_ms = 30_000) setup main =
  let k = Kernel.boot ?iommu_mode ?enable_acs (Engine.create ()) in
  let ctx = setup k in
  Kernel.run_main k ~name:"test-main" ~max_ms (fun () -> main k ctx)

(* A machine with two e1000 NICs on one gigabit segment. *)
type duo = {
  medium : Net_medium.t;
  nic_a : E1000_dev.t;
  nic_b : E1000_dev.t;
  bdf_a : Bus.bdf;
  bdf_b : Bus.bdf;
}

let setup_duo ?(switched = false) (k : Kernel.t) =
  let medium = Net_medium.create k.Kernel.eng () in
  let nic_a = E1000_dev.create k.Kernel.eng ~mac:mac_a ~medium () in
  let nic_b = E1000_dev.create k.Kernel.eng ~mac:mac_b ~medium () in
  let bdf_a, bdf_b =
    if switched then begin
      let sw = Pci_topology.add_switch k.Kernel.topo ~parent:(Pci_topology.root_switch k.Kernel.topo) ~name:"plx" in
      let a = Kernel.attach_pci k ~switch:sw (E1000_dev.device nic_a) in
      let b = Kernel.attach_pci k ~switch:sw (E1000_dev.device nic_b) in
      (a, b)
    end
    else begin
      let a = Kernel.attach_pci k (E1000_dev.device nic_a) in
      let b = Kernel.attach_pci k (E1000_dev.device nic_b) in
      (a, b)
    end
  in
  { medium; nic_a; nic_b; bdf_a; bdf_b }

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.fail (what ^ ": " ^ e)

(* Bring up NIC B as a trusted in-kernel peer and return its netdev. *)
let up_native ?name k bdf =
  let dev = ok_or_fail "native attach" (Native_net.attach ?name k E1000.driver bdf) in
  ok_or_fail "ifconfig up" (Netstack.ifconfig_up k.Kernel.net dev);
  dev

(* The administrator's restart: kill -9 the driver, let teardown settle
   at the current instant, and launch a fresh generation for the same
   device at the next epoch. *)
let relaunch k sp s ~bdf ~name drv =
  Driver_host.kill s;
  ignore (Fiber.sleep k.Kernel.eng 1_000 : Fiber.wake);
  Driver_host.launch k sp (Driver_host.net ()) ~bdf ~name ~epoch:(Driver_host.epoch s + 1) drv

(* A supervised net device's live generation. *)
let live_gen sv =
  match Supervisor.current sv with
  | Some g -> g
  | None -> Alcotest.fail "no live driver generation"
