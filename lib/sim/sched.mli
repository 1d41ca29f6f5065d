(** Scheduler policies, the deterministic schedule recorder/replayer, and
    the versioned schedule-file format.

    The engine's only nondeterminism is which same-instant event fires
    next ({!Engine.set_picker}); a schedule is therefore fully described
    by the sequence of picks taken at choice points.  [Sched] installs a
    policy, records every pick, and can replay a recorded decision list
    bit-for-bit — verified via {!Engine.trace_hash} equality. *)

type decision = {
  d_step : int;  (** engine step (events fired) at the choice point *)
  d_ready : int;  (** ready-set size offered *)
  d_pick : int;  (** index picked, 0 = FIFO order *)
}

type spec =
  | Fifo  (** historical order: lowest seq first — always pick 0 *)
  | Random of { seed : int64; p_preempt : int }
      (** schedule fuzzing: with probability [p_preempt]% pick uniformly
          among the ready set, else FIFO.  Deterministic per seed. *)
  | Replay of decision list
      (** re-execute recorded picks; see {!install}'s [strict] flag *)

type recorder = {
  mutable rec_rev : decision list;  (** recorded picks, newest first *)
  mutable rec_points : int;  (** choice points encountered *)
  mutable rec_divergence : string option;  (** first strict-replay mismatch *)
}

val install : ?strict:bool -> Engine.t -> spec -> recorder
(** Install [spec] as the engine's scheduler and start recording.  With
    [strict] (Replay only), every decision must match its recorded
    (step, ready) exactly or [rec_divergence] is set; without it, replay
    is permissive — decisions are keyed by step and anything missing
    degrades to FIFO, which is what makes shrinking well-defined on
    arbitrary subsets of a schedule. *)

val decisions : recorder -> decision list
(** Recorded picks in execution order. *)

val spec_label : spec -> string

(** {1 Schedule files} *)

val version : string
(** Format tag written in the header line; currently ["sud-sched/1"]. *)

type file = {
  f_scenario : string;
  f_seed : int64;
  f_policy : string;
  f_policy_seed : int64;
  f_p_preempt : int;
  f_decisions : decision list;
  f_points : int;
  f_steps : int;
  f_trace_hash : int64;
  f_metrics_hash : int64;
}

val file_of :
  scenario:string ->
  seed:int64 ->
  spec:spec ->
  trace_hash:int64 ->
  metrics_hash:int64 ->
  steps:int ->
  recorder ->
  file

val save : path:string -> file -> unit
(** Write as JSONL, one {!Json.to_line} object per line: a version header
    ([schedule], [scenario], [seed], [policy], [policy_seed],
    [p_preempt]), one [{step, ready, pick}] line per decision, and a
    footer ([end: true], [points], [steps], [trace_hash],
    [metrics_hash]).  Seeds and hashes are ["0x…"] strings, since they
    use all 64 bits. *)

val load : string -> (file, string) result
(** Read a {!save} file back.  [Error], naming the file, when a line is
    not valid JSON or lacks a field, when the header is not
    ["sud-sched/1"], or when the footer is missing or is not the last
    line: a truncated file never loads. *)
