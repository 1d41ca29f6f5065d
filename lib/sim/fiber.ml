exception Killed

type wake = Normal | Interrupted | Timeout

type state =
  | Ready                     (* spawned or resumed, start/continue queued *)
  | Running
  | Suspended of susp
  | Dead

and susp = {
  mutable fired : bool;
  resume : wake -> unit;
  discontinue_killed : unit -> unit;
}

and t = {
  fid : int;
  fname : string;
  mutable state : state;
  mutable pending_kill : bool;
  mutable exits : (unit -> unit) list;
  (* Bumped at every suspension.  A timer armed for one suspension must not
     wake a later one: wakers capture the epoch and compare before waking. *)
  mutable epoch : int;
}

type _ Effect.t += Suspend : (t -> unit) -> wake Effect.t

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

let on_exit t fn = t.exits <- fn :: t.exits

let finish t =
  t.state <- Dead;
  let fns = t.exits in
  t.exits <- [];
  List.iter (fun fn -> fn ()) fns

(* Run [step] as fiber [t]'s execution: set the current-fiber cell around it
   and translate a Killed unwind into a normal death.  A direct match
   rather than [Fun.protect], which allocates closures on every resume. *)
let enter t step =
  let saved = !current in
  current := Some t;
  t.state <- Running;
  match step () with
  | () -> current := saved
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    current := saved;
    Printexc.raise_with_backtrace e bt

let handler engine t =
  let open Effect.Deep in
  { retc = (fun () -> finish t);
    exnc =
      (fun e ->
         finish t;
         match e with Killed -> () | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
         match eff with
         | Suspend register ->
           Some
             (fun (k : (a, unit) continuation) ->
                let susp =
                  { fired = false;
                    resume =
                      (fun w ->
                         ignore
                           (Engine.schedule_now engine (fun () ->
                                if t.pending_kill then
                                  enter t (fun () -> discontinue k Killed)
                                else enter t (fun () -> continue k w))
                            : Engine.handle));
                    discontinue_killed =
                      (fun () ->
                         ignore
                           (Engine.schedule_now engine (fun () ->
                                enter t (fun () -> discontinue k Killed))
                            : Engine.handle)) }
                in
                t.epoch <- t.epoch + 1;
                t.state <- Suspended susp;
                register t)
         | _ -> None) }

let spawn engine ?name:(fname = "fiber") main =
  incr next_id;
  let t =
    { fid = !next_id; fname; state = Ready; pending_kill = false; exits = []; epoch = 0 }
  in
  ignore
    (Engine.schedule_now engine (fun () ->
         if t.pending_kill then finish t
         else
           enter t (fun () -> Effect.Deep.match_with main () (handler engine t)))
     : Engine.handle);
  t

let suspend register = Effect.perform (Suspend register)

let wake t w =
  match t.state with
  | Suspended s when not s.fired ->
    s.fired <- true;
    t.state <- Ready;
    s.resume w;
    true
  | Ready | Running | Dead | Suspended _ -> false

let kill t =
  match t.state with
  | Dead -> ()
  | Suspended s when not s.fired ->
    s.fired <- true;
    t.state <- Ready;
    t.pending_kill <- true;
    s.discontinue_killed ()
  | Suspended _ | Ready -> t.pending_kill <- true
  | Running ->
    (* Only the fiber itself can observe state Running. *)
    raise Killed

let interrupt t =
  match t.state with
  | Suspended s when not s.fired ->
    s.fired <- true;
    t.state <- Ready;
    s.resume Interrupted;
    true
  | Ready | Running | Dead | Suspended _ -> false

let yield engine =
  let w =
    suspend (fun fiber ->
        ignore (Engine.schedule_now engine (fun () -> ignore (wake fiber Normal)) : Engine.handle))
  in
  ignore (w : wake)

let epoch t = t.epoch

let wake_epoch t ~epoch w = if t.epoch = epoch then wake t w else false

let sleep engine ns =
  suspend (fun fiber ->
      let epoch = fiber.epoch in
      ignore
        (Engine.schedule_after engine ns (fun () ->
             ignore (wake_epoch fiber ~epoch Normal : bool))
         : Engine.handle))
