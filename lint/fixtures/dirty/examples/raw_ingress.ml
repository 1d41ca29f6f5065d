(* Decodes a driver slot without the Conformance validator. *)
let decode slot = Msg.unmarshal_view slot
