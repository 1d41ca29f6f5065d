(* The supervisor owns quarantine. *)
let quarantine inst = Proxy_class.degrade inst
let release inst = Proxy_class.revive inst
