(* Qualified or quoted mentions are not the stdlib module, and the
   lifecycle rule matches whole identifiers only. *)
let seeded = Rng.Random.int
let label = "Random.int"
let degraded inst = Proxy_class.degraded inst
