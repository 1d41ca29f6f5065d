type t = {
  eng : Engine.t;
  free_at : int array;
  model : Cost_model.t;
  mutable busy : int;
  by_label : (string, int ref) Hashtbl.t;
  (* The last few labels charged, matched by physical equality.  Callers
     pass the same string on every charge (a literal, or the one label
     string a process keeps), so a hit skips hashing the label. *)
  memo_label : string array;
  memo_count : int ref array;
  mutable memo_len : int;
  mutable memo_next : int;
}

let memo_size = 8

let create eng ~cores model =
  if cores <= 0 then invalid_arg "Cpu.create: need at least one core";
  { eng;
    free_at = Array.make cores 0;
    model;
    busy = 0;
    by_label = Hashtbl.create 16;
    memo_label = Array.make memo_size "";
    memo_count = Array.make memo_size (ref 0);
    memo_len = 0;
    memo_next = 0 }

let cores t = Array.length t.free_at
let cost_model t = t.model
let engine t = t.eng

let counter t label =
  let rec scan i =
    if i = t.memo_len then begin
      let r =
        match Hashtbl.find_opt t.by_label label with
        | Some r -> r
        | None ->
          let r = ref 0 in
          Hashtbl.add t.by_label label r;
          r
      in
      let slot = t.memo_next in
      t.memo_label.(slot) <- label;
      t.memo_count.(slot) <- r;
      t.memo_next <- (slot + 1) mod memo_size;
      t.memo_len <- max t.memo_len (slot + 1);
      r
    end
    else if t.memo_label.(i) == label then t.memo_count.(i)
    else scan (i + 1)
  in
  scan 0

let charge t label ns =
  t.busy <- t.busy + ns;
  let r = counter t label in
  r := !r + ns

let pick_core t =
  let best = ref 0 in
  for i = 1 to Array.length t.free_at - 1 do
    if t.free_at.(i) < t.free_at.(!best) then best := i
  done;
  !best

let consume t ~label ns =
  if ns > 0 then begin
    let now = Engine.now t.eng in
    let core = pick_core t in
    let start = max now t.free_at.(core) in
    let finish = start + ns in
    t.free_at.(core) <- finish;
    charge t label ns;
    let rec wait_until deadline =
      match Fiber.sleep t.eng (deadline - Engine.now t.eng) with
      | Fiber.Normal | Fiber.Timeout -> ()
      | Fiber.Interrupted ->
        (* CPU burn is not interruptible; keep waiting out the charge. *)
        if Engine.now t.eng < deadline then wait_until deadline
    in
    if finish > now then wait_until finish
  end

(* Event-context work still occupies a core: book capacity by advancing a
   core's free time, without blocking the (nonexistent) fiber.  This keeps
   total busy time bounded by cores * elapsed in steady state. *)
let account t ~label ns =
  if ns > 0 then begin
    let now = Engine.now t.eng in
    let core = pick_core t in
    let start = max now t.free_at.(core) in
    t.free_at.(core) <- start + ns;
    charge t label ns
  end

let busy_ns t = t.busy

let busy_of t label =
  match Hashtbl.find_opt t.by_label label with Some r -> !r | None -> 0

let labels t =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.by_label []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let utilization t ~since_busy ~since_time =
  let elapsed = Engine.now t.eng - since_time in
  if elapsed <= 0 then 0.0
  else
    float_of_int (t.busy - since_busy)
    /. (float_of_int (Array.length t.free_at) *. float_of_int elapsed)
