(* The one module allowed to touch stdlib Random. *)
let self_init () = Random.self_init ()
