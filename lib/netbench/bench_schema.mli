(** The machine-readable bench format.

    Every [bench/main.exe] mode produces one {!doc}: flat measurement
    {!row}s plus the {!gate}s judged on them, written by {!write} as
    schema ["sud-bench/10"].  The gates' reference values live in one
    read-only file in the same schema, read through {!baseline}; no mode
    writes it.

    The JSON layer underneath is general: the parser reads every
    document ever checked in, including the frozen [BENCH_1..9.json]
    history (schemas [sud-bench/1] to [/9]).  The printer is
    deterministic (two-space indent, short collections inlined) and the
    parser is total on its output: for every [v],
    [of_string (to_string v) = Ok v] once floats are built through
    {!fnum}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val fnum : ?dp:int -> float -> t
(** A float field rounded to [dp] decimal places (default 3).  NaN and
    infinities become [Null], the convention for "no estimate". *)

val to_string : t -> string
(** Render with a trailing newline, ready for the file. *)

val of_string : string -> (t, string) result
(** Full JSON parser (numbers, strings with escapes, nested
    collections).  Numbers without [.]/[e] that fit in [int] parse as
    {!Int}, everything else as {!Float}.  Errors carry the byte
    offset. *)

val of_file : string -> (t, string) result
(** [Error] on unreadable files as well as unparseable ones. *)

(** {1 The sud-bench/10 document} *)

type row = {
  metric : string;                  (** e.g. ["mq.kpps"] *)
  labels : (string * string) list;  (** the point: e.g. [["queues", "4"]] *)
  unit : string;
  value : float;                    (** NaN for "no estimate" *)
}

val row : ?dp:int -> ?labels:(string * string) list -> string -> string -> float -> row
(** [row ?dp ?labels metric unit value], [value] rounded to [dp] decimal
    places (default 3). *)

type op = Lt | Le | Eq | Ge | Gt

val op_to_string : op -> string

type gate = { name : string; value : float; op : op; bound : float; pass : bool }

val gate : string -> float -> op -> float -> gate
(** [gate name value op bound] passes iff [value op bound] holds.  A NaN
    value, which is what a missing baseline yields, fails every op. *)

type doc = { mode : string; rows : row list; gates : gate list; pass : bool }

val to_json : doc -> t
val of_json : t -> (doc, string) result

val write : path:string -> doc -> unit

val read : string -> (doc, string) result
(** Parse a file as a [sud-bench/10] document; [Error] for any other
    schema. *)

(** {1 Baselines} *)

val baseline : ?file:string -> metric:string -> (string * string) list -> float
(** [baseline ~metric labels] is the value of the row of [file] (default
    ["bench/baseline.json"], relative to the repository root) with that
    metric and exactly those labels, in any order.
    NaN when the file, the row or its value is missing, so any {!gate}
    computed from it fails: there is no fallback value. *)
