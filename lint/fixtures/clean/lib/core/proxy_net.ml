(* Datapath kinds ride the asynchronous queue-aware paths; a Sync RPC of
   a control kind is fine. *)
let xmit chan =
  Uchan.transfer chan ~from:`Kernel
    (Uchan.Async (Msg.make ~kind:Proxy_proto.up_net_xmit ()))

let open_dev chan =
  Uchan.transfer chan ~from:`Kernel
    (Uchan.Sync (Msg.make ~kind:Proxy_proto.up_open ()))
