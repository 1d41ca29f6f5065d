(* The validator is the one place allowed to decode raw slots. *)
let decode slot = Msg.unmarshal_view slot
let decode_batch slot = Msg.Batch.unmarshal_view slot
