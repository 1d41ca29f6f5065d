(* Scheduler policies over Engine's same-instant choice points, plus the
   recorder/replayer and the versioned schedule-file format.  Nothing here
   needs more than the stdlib and the Json codec, so any layer (attacks
   soaks included) can dump a replayable schedule on failure. *)

type decision = { d_step : int; d_ready : int; d_pick : int }

type spec =
  | Fifo
  | Random of { seed : int64; p_preempt : int }
  | Replay of decision list

type recorder = {
  mutable rec_rev : decision list;
  mutable rec_points : int;
  mutable rec_divergence : string option;
}

let spec_label = function
  | Fifo -> "fifo"
  | Random _ -> "random"
  | Replay _ -> "replay"

let decisions r = List.rev r.rec_rev

let install ?(strict = false) eng spec =
  let r = { rec_rev = []; rec_points = 0; rec_divergence = None } in
  let picker =
    match spec with
    | Fifo -> fun ~step:_ ~ready:_ -> 0
    | Random { seed; p_preempt } ->
      let rng = Rng.create ~seed in
      fun ~step:_ ~ready ->
        if Rng.int rng 100 < p_preempt then Rng.int rng ready else 0
    | Replay ds when strict ->
      (* Verification replay: every decision must line up exactly with the
         choice point it was recorded at; the first mismatch is reported
         and the rest of the run falls back to FIFO. *)
      let rest = ref ds in
      fun ~step ~ready ->
        (match !rest with
         | [] -> 0
         | d :: tl ->
           if d.d_step = step && d.d_ready = ready && d.d_pick < ready then begin
             rest := tl;
             d.d_pick
           end else begin
             if r.rec_divergence = None then
               r.rec_divergence <-
                 Some
                   (Printf.sprintf
                      "divergence at step %d (ready %d): recorded (step %d, ready %d, pick %d)"
                      step ready d.d_step d.d_ready d.d_pick);
             rest := tl;
             0
           end)
    | Replay ds ->
      (* Permissive replay, used by the shrinker: decisions are keyed by
         engine step; anything missing or out of range degrades to FIFO so
         every edited subset of a schedule is still a well-defined run. *)
      let tbl = Hashtbl.create (List.length ds * 2 + 1) in
      List.iter (fun d -> Hashtbl.replace tbl d.d_step d) ds;
      fun ~step ~ready ->
        (match Hashtbl.find_opt tbl step with
         | None -> 0
         | Some d -> if d.d_pick < ready then d.d_pick else d.d_pick mod ready)
  in
  Engine.set_picker eng (Some picker);
  Engine.set_observer eng
    (Some
       (fun ~step ~time:_ ~ready ~pick ->
          r.rec_points <- r.rec_points + 1;
          r.rec_rev <- { d_step = step; d_ready = ready; d_pick = pick } :: r.rec_rev));
  r

(* ---- schedule files: versioned JSONL, one decision per line ---- *)

let version = "sud-sched/1"

type file = {
  f_scenario : string;
  f_seed : int64;  (* scenario seed (root of the run's derived streams) *)
  f_policy : string;
  f_policy_seed : int64;
  f_p_preempt : int;
  f_decisions : decision list;
  f_points : int;
  f_steps : int;
  f_trace_hash : int64;
  f_metrics_hash : int64;
}

let file_of ~scenario ~seed ~spec ~trace_hash ~metrics_hash ~steps r =
  let policy_seed, p_preempt =
    match spec with Random { seed; p_preempt } -> (seed, p_preempt) | _ -> (0L, 0)
  in
  { f_scenario = scenario;
    f_seed = seed;
    f_policy = spec_label spec;
    f_policy_seed = policy_seed;
    f_p_preempt = p_preempt;
    f_decisions = decisions r;
    f_points = r.rec_points;
    f_steps = steps;
    f_trace_hash = trace_hash;
    f_metrics_hash = metrics_hash }

(* Seeds and hashes are full 64-bit values, so they travel as "0x…"
   strings rather than JSON numbers. *)
let hex v = Json.Str (Printf.sprintf "0x%Lx" v)

let save ~path f =
  let oc = open_out path in
  let line v =
    output_string oc (Json.to_line v);
    output_char oc '\n'
  in
  line
    (Obj
       [ ("schedule", Str version); ("scenario", Str f.f_scenario); ("seed", hex f.f_seed);
         ("policy", Str f.f_policy); ("policy_seed", hex f.f_policy_seed);
         ("p_preempt", Int f.f_p_preempt) ]);
  List.iter
    (fun d -> line (Obj [ ("step", Int d.d_step); ("ready", Int d.d_ready); ("pick", Int d.d_pick) ]))
    f.f_decisions;
  line
    (Obj
       [ ("end", Bool true); ("points", Int f.f_points); ("steps", Int f.f_steps);
         ("trace_hash", hex f.f_trace_hash); ("metrics_hash", hex f.f_metrics_hash) ]);
  close_out oc

let int64 k o =
  match Int64.of_string_opt (Json.str k o) with
  | Some v -> v
  | None -> raise (Json.Bad (k ^ " is not a 64-bit hex string"))

let is_footer = function
  | Json.Obj fs -> List.assoc_opt "end" fs = Some (Json.Bool true)
  | _ -> false

(* Every line must parse, the header must carry this version, and the
   footer must close the file: a truncated schedule is an error here,
   not a replay that cannot reproduce its hashes. *)
let load path =
  let open Json in
  let decision d =
    if is_footer d then raise (Bad "footer before the last line");
    { d_step = int "step" d; d_ready = int "ready" d; d_pick = int "pick" d }
  in
  let rec split acc = function
    | [] -> raise (Bad "no footer (truncated file?)")
    | [ foot ] when is_footer foot -> (List.rev acc, foot)
    | d :: tl -> split (decision d :: acc) tl
  in
  Result.bind (of_jsonl_file path) (fun lines ->
      Result.map_error (( ^ ) (path ^ ": "))
        (decode (fun () ->
             match lines with
             | [] -> raise (Bad "empty schedule file")
             | header :: rest ->
               let v = str "schedule" header in
               if v <> version then
                 raise (Bad (Printf.sprintf "schedule version %s (want %s)" v version));
               let f_decisions, foot = split [] rest in
               { f_scenario = str "scenario" header;
                 f_seed = int64 "seed" header;
                 f_policy = str "policy" header;
                 f_policy_seed = int64 "policy_seed" header;
                 f_p_preempt = int "p_preempt" header;
                 f_decisions;
                 f_points = int "points" foot;
                 f_steps = int "steps" foot;
                 f_trace_hash = int64 "trace_hash" foot;
                 f_metrics_hash = int64 "metrics_hash" foot })))
