(* Quarantines a driver behind the supervisor's back. *)
let give_up inst = Proxy_class.degrade inst
