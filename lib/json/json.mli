(** The one JSON codec: every file the repo writes or reads goes through
    it — [sud-bench/10] documents, the metrics snapshot, the causal trace
    JSONL and [sud-sched/1] schedule files.  Dependency-free, so every
    layer can link it.

    Two printers over one value type: {!to_string} lays out a whole
    document (two-space indent, short collections inlined) and
    {!to_line} keeps a value on one line, for JSONL.  Both are
    deterministic, and the parser is total on their output: for every
    [v], [of_string (to_string v) = Ok v] and [of_string (to_line v) = Ok
    v] once floats are built through {!fnum}. *)

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
(** Render a whole document, with a trailing newline, ready for the
    file. *)

val to_line : t -> string
(** Render on one line with no trailing newline: one JSONL record. *)

val of_string : string -> (t, string) result
(** Full JSON parser (numbers, strings with escapes, nested
    collections).  Numbers without [.]/[e] that fit in [int] parse as
    {!Int}, everything else as {!Float}.  Errors carry the byte
    offset. *)

val of_file : string -> (t, string) result
(** [Error] on unreadable files as well as unparseable ones. *)

val of_jsonl_file : string -> (t list, string) result
(** Read a JSONL file, one value per line.  [Error] on an unreadable
    file, or naming the first line that is not valid JSON. *)

(** {1 Reading fields}

    The decoders every format on this codec shares: [str k v] is field
    [k] of the object [v] as a string, and so on.  Each raises {!Bad},
    naming the field, when it is missing or has another type. *)

exception Bad of string

val str : string -> t -> string
val int : string -> t -> int
val bool : string -> t -> bool
val list : string -> t -> t list

val strings : string -> t -> (string * string) list
(** An object whose values are all strings, as pairs in file order. *)

val float : string -> t -> float
(** An [Int] or a [Float]; [Null] reads as NaN ("no estimate"). *)

val decode : (unit -> 'a) -> ('a, string) result
(** Run a decoder, turning {!Bad} into [Error]. *)
