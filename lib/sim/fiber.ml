exception Killed

type wake = Normal | Interrupted | Timeout

type state =
  | Ready      (* spawned or woken: its start or resume is queued *)
  | Running
  | Suspended  (* parked and not yet woken *)
  | Dead

type owner = ..
type owner += Unowned

type t = {
  fid : int;
  fname : string;
  eng : Engine.t;
  mutable state : state;
  mutable pending_kill : bool;
  mutable exits : (unit -> unit) list;
  (* Bumped at every suspension.  A timer armed for one suspension must not
     wake a later one: wakers capture the epoch and compare before waking. *)
  mutable epoch : int;
  (* Where a parked fiber resumes; a spent continuation otherwise. *)
  mutable k : (wake, unit) Effect.Deep.continuation;
  (* What a woken fiber's wait returns, unless a kill is pending. *)
  mutable reason : wake;
  (* Allocated once at spawn: the resume event, the handler's answer to
     [Park], and this fiber as the value of [current]. *)
  resume : unit -> unit;
  park : ((wake, unit) Effect.Deep.continuation -> unit) option;
  as_current : t option;
  mutable owner : owner;
}

(* Performed by a fiber whose suspension is already filed: the handler
   only keeps the continuation. *)
type _ Effect.t += Park : wake Effect.t

(* The placeholder continuation: resumed once here, so resuming it again
   raises instead of running anything. *)
let spent : (wake, unit) Effect.Deep.continuation =
  let open Effect.Deep in
  let got : (wake, unit) continuation option ref = ref None in
  match_with
    (fun () -> ignore (Effect.perform Park : wake))
    ()
    { retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
           match eff with
           | Park -> Some (fun (k : (a, unit) continuation) -> got := Some k)
           | _ -> None) };
  match !got with
  | Some k -> continue k Normal; k
  | None -> assert false

let next_id = ref 0

(* The engine is single-threaded: exactly one fiber executes at a time, so a
   single mutable cell suffices to track it. *)
let current : t option ref = ref None

let self () =
  match !current with
  | Some f -> f
  | None -> failwith "Fiber.self: not in fiber context"

let name t = t.fname
let id t = t.fid
let is_alive t = t.state <> Dead
let owner t = t.owner
let set_owner t o = t.owner <- o

let on_exit t fn = t.exits <- fn :: t.exits

let finish t =
  t.state <- Dead;
  let fns = t.exits in
  t.exits <- [];
  List.iter (fun fn -> fn ()) fns

(* Run fiber [t] until it parks or ends: [start] when given, else from its
   continuation.  A direct match rather than [Fun.protect], which
   allocates closures on every resume. *)
let enter t start =
  let saved = !current in
  current := t.as_current;
  t.state <- Running;
  match
    match start with
    | Some main -> main ()
    | None -> if t.pending_kill then Effect.Deep.discontinue t.k Killed else Effect.Deep.continue t.k t.reason
  with
  | () -> current := saved
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    current := saved;
    Printexc.raise_with_backtrace e bt

let spawn engine ?name:(fname = "fiber") main =
  incr next_id;
  let rec t =
    { fid = !next_id;
      fname;
      eng = engine;
      state = Ready;
      pending_kill = false;
      exits = [];
      epoch = 0;
      k = spent;
      reason = Normal;
      resume = (fun () -> enter t None);
      park = Some (fun k -> t.k <- k);
      as_current = Some t;
      owner = Unowned }
  in
  let handler =
    { Effect.Deep.retc = (fun () -> finish t);
      exnc =
        (fun e ->
           finish t;
           match e with Killed -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
           match eff with
           | Park -> (t.park : ((a, unit) Effect.Deep.continuation -> unit) option)
           | _ -> None) }
  in
  ignore
    (Engine.schedule_now engine (fun () ->
         if t.pending_kill then finish t
         else enter t (Some (fun () -> Effect.Deep.match_with main () handler)))
     : Engine.handle);
  t

(* File the running fiber's suspension, then park it.  Outside any fiber
   nothing handles [Park], so it raises [Effect.Unhandled]. *)
let suspend register =
  match !current with
  | Some t ->
    t.epoch <- t.epoch + 1;
    t.state <- Suspended;
    register t;
    Effect.perform Park
  | None -> Effect.perform Park

(* Wake a parked fiber: its resume is queued, or with [~last] fired in
   place when the engine allows (see {!Engine.follow}). *)
let wake_with ~last t w =
  match t.state with
  | Suspended ->
    t.state <- Ready;
    t.reason <- w;
    if last then Engine.follow t.eng t.resume
    else ignore (Engine.schedule_now t.eng t.resume : Engine.handle);
    true
  | Ready | Running | Dead -> false

let wake t w = wake_with ~last:false t w

let kill t =
  match t.state with
  | Dead -> ()
  | Suspended ->
    (* The resume sees the pending kill and discontinues. *)
    t.pending_kill <- true;
    ignore (wake t Normal : bool)
  | Ready -> t.pending_kill <- true
  | Running ->
    (* Only the fiber itself can observe state Running. *)
    raise Killed

let interrupt t = wake t Interrupted

let yield engine =
  let w =
    suspend (fun fiber ->
        ignore (Engine.schedule_now engine (fun () -> ignore (wake fiber Normal)) : Engine.handle))
  in
  ignore (w : wake)

let epoch t = t.epoch

let wake_epoch t ~epoch w = if t.epoch = epoch then wake t w else false

(* The timer's wake is its last act, so its resume goes through
   [Engine.follow]. *)
let wake_after engine t ns w =
  let epoch = t.epoch in
  ignore
    (Engine.schedule_after engine ns (fun () ->
         if t.epoch = epoch then ignore (wake_with ~last:true t w : bool))
     : Engine.handle)

(* When nothing can fire before the wake instant, suspending changes
   nothing: the timer and the resume would fire back to back, alone in
   their ready sets.  [Engine.advance] accounts for both and moves the
   clock, and the epoch is bumped as a suspension would bump it.  A
   pending kill must still be delivered by the resume, so a fiber with
   one always suspends.  The suspension is [suspend]'s, with the timer
   armed directly rather than through a register closure. *)
let sleep engine ns =
  match !current with
  | Some t when (not t.pending_kill) && Engine.advance engine ns ->
    t.epoch <- t.epoch + 1;
    Normal
  | Some t ->
    t.epoch <- t.epoch + 1;
    t.state <- Suspended;
    wake_after engine t ns Normal;
    Effect.perform Park
  | None -> Effect.perform Park
