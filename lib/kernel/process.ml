exception Rlimit_exceeded of string

type sched_policy = Normal | Realtime

type t = {
  ppid : int;
  puid : int;
  pname : string;
  plabel : string;
  eng : Engine.t;
  mutable alive : bool;
  mutable fibers : Fiber.t list;
  mutable exit_hooks : (unit -> unit) list;
  mutable mem_limit : int option;
  mutable mem_used : int;
  mutable policy : sched_policy;
}

type table = {
  teng : Engine.t;
  mutable next_pid : int;
  mutable procs : t list;
  kernel : t;
}

(* A fiber's process in a table, cached on the fiber by [current].  Two
   kernels can share an engine (netperf's DUT and peer), so the entry
   names its table. *)
type Fiber.owner += Proc of table * t

let make_proc eng ~pid ~uid ~name =
  { ppid = pid;
    puid = uid;
    pname = name;
    plabel = "proc:" ^ name;
    eng;
    alive = true;
    fibers = [];
    exit_hooks = [];
    mem_limit = None;
    mem_used = 0;
    policy = Normal }

let create_table eng =
  let kernel = make_proc eng ~pid:0 ~uid:0 ~name:"kernel" in
  { teng = eng; next_pid = 1; procs = [ kernel ]; kernel }

let kernel_process table = table.kernel

let spawn table ~name ~uid =
  let p = make_proc table.teng ~pid:table.next_pid ~uid ~name in
  table.next_pid <- table.next_pid + 1;
  table.procs <- p :: table.procs;
  p

let pid t = t.ppid
let uid t = t.puid
let name t = t.pname
let cpu_label t = t.plabel
let is_alive t = t.alive
let find table ~pid = List.find_opt (fun p -> p.ppid = pid) table.procs
let all table = List.rev table.procs

let spawn_fiber t ?name fn =
  if not t.alive then failwith (t.pname ^ ": process is dead");
  let fname = Option.value ~default:(t.pname ^ "-fiber") name in
  let fiber = Fiber.spawn t.eng ~name:fname fn in
  t.fibers <- fiber :: t.fibers;
  fiber

let current table =
  match Fiber.self () with
  | fiber ->
    (match Fiber.owner fiber with
     | Proc (tb, p) when tb == table -> p
     | _ ->
       (* Walk the process fiber lists on the fiber's first lookup in
          this table and cache the result, the kernel fallback included:
          a fiber joins a list only before it first runs. *)
       let fid = Fiber.id fiber in
       let p =
         match
           List.find_opt
             (fun p -> List.exists (fun f -> Fiber.id f = fid) p.fibers)
             table.procs
         with
         | Some p -> p
         | None -> table.kernel
       in
       Fiber.set_owner fiber (Proc (table, p));
       p)
  | exception Failure _ -> table.kernel

let kill t =
  if t.alive then begin
    t.alive <- false;
    let fibers = t.fibers in
    t.fibers <- [];
    List.iter Fiber.kill fibers;
    let hooks = t.exit_hooks in
    t.exit_hooks <- [];
    List.iter (fun h -> h ()) hooks;
    t.mem_used <- 0
  end

let interrupt t =
  List.iter (fun f -> ignore (Fiber.interrupt f : bool)) t.fibers

let on_exit t h = t.exit_hooks <- h :: t.exit_hooks

let setrlimit_memory t ~bytes = t.mem_limit <- bytes

let charge_memory t ~bytes =
  (match t.mem_limit with
   | Some limit when t.mem_used + bytes > limit ->
     raise (Rlimit_exceeded (Printf.sprintf "%s: RLIMIT %d + %d > %d" t.pname t.mem_used bytes limit))
   | Some _ | None -> ());
  t.mem_used <- t.mem_used + bytes

let uncharge_memory t ~bytes = t.mem_used <- max 0 (t.mem_used - bytes)
let memory_used t = t.mem_used

let set_scheduler t policy = t.policy <- policy
let scheduler t = t.policy
