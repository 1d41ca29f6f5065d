(* Randomness the schedule recorder cannot capture. *)
let roll () = Random.int 6
