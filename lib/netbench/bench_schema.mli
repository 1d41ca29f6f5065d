(** The machine-readable bench format.

    Every [bench/main.exe] mode produces one {!doc}: flat measurement
    {!row}s plus the {!gate}s judged on them, written by {!write} as
    schema ["sud-bench/10"] through the {!Json} codec.  The gates'
    reference values live in one read-only file in the same schema,
    [bench/baseline.json], read through {!baseline}; no mode writes
    it. *)

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

type gate = private { name : string; value : float; op : op; bound : float; pass : bool }

val gate : string -> float -> op -> float -> gate
(** [gate name value op bound] passes iff [value op bound] holds.  A NaN
    value, which is what a missing baseline yields, fails every op.
    This is the only way to build a gate, so a gate line never
    contradicts itself. *)

type doc = { mode : string; rows : row list; gates : gate list; pass : bool }

val to_json : doc -> Json.t

val of_json : Json.t -> (doc, string) result
(** Each gate's [pass] is recomputed from the value, op and bound as
    read. *)

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
