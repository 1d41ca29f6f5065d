(* A blocking round-trip per transmitted frame. *)
let xmit chan =
  Uchan.transfer chan ~from:`Kernel
    (Uchan.Sync (Msg.make ~kind:Proxy_proto.up_net_xmit ()))
