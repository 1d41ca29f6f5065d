let version = "sud-bench/10"

type row = { metric : string; labels : (string * string) list; unit : string; value : float }

let round ~dp v = match Json.fnum ~dp v with Json.Float f -> f | _ -> nan

let row ?(dp = 3) ?(labels = []) metric unit value =
  { metric; labels; unit; value = round ~dp value }

type op = Lt | Le | Eq | Ge | Gt

let op_to_string = function Lt -> "<" | Le -> "<=" | Eq -> "==" | Ge -> ">=" | Gt -> ">"

let ops = [ Lt; Le; Eq; Ge; Gt ]

type gate = { name : string; value : float; op : op; bound : float; pass : bool }

(* IEEE comparisons are false on NaN, so a gate fed a missing baseline
   fails whatever its op. *)
let gate name value op bound =
  let pass =
    match op with
    | Lt -> value < bound
    | Le -> value <= bound
    | Eq -> value = bound
    | Ge -> value >= bound
    | Gt -> value > bound
  in
  { name; value; op; bound; pass }

type doc = { mode : string; rows : row list; gates : gate list; pass : bool }

(* Whole values print as integers: counts and nanoseconds stay
   readable, and both forms read back as the same float. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
  else Json.fnum ~dp:3 v

let to_json d : Json.t =
  let row (r : row) : Json.t =
    Obj
      [ ("metric", Str r.metric);
        ("labels", Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.labels));
        ("unit", Str r.unit);
        ("value", num r.value) ]
  in
  let gate (g : gate) : Json.t =
    Obj
      [ ("name", Str g.name); ("value", num g.value); ("op", Str (op_to_string g.op));
        ("bound", num g.bound); ("pass", Bool g.pass) ]
  in
  Obj
    [ ("schema", Str version); ("mode", Str d.mode); ("rows", List (List.map row d.rows));
      ("gates", List (List.map gate d.gates)); ("pass", Bool d.pass) ]

let of_json v =
  let open Json in
  let row r =
    { metric = str "metric" r; labels = strings "labels" r; unit = str "unit" r;
      value = float "value" r }
  in
  (* A gate's verdict is derived, so it is recomputed from the values as
     read rather than trusted from the file. *)
  let gate g =
    match List.find_opt (fun o -> op_to_string o = str "op" g) ops with
    | None -> raise (Bad ("unknown op " ^ str "op" g))
    | Some op -> gate (str "name" g) (float "value" g) op (float "bound" g)
  in
  decode (fun () ->
      if str "schema" v <> version then raise (Bad ("schema is not " ^ version));
      { mode = str "mode" v;
        rows = List.map row (list "rows" v);
        gates = List.map gate (list "gates" v);
        pass = bool "pass" v })

let write ~path d =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json d));
  close_out oc

let read path =
  Result.bind (Json.of_file path) (fun v -> Result.map_error (( ^ ) (path ^ ": ")) (of_json v))

(* ---- baselines ---- *)

let baseline_file = "bench/baseline.json"

let baseline ?(file = baseline_file) ~metric labels =
  let same = List.sort compare labels in
  match read file with
  | Error _ -> nan
  | Ok d ->
    List.find_opt (fun r -> r.metric = metric && List.sort compare r.labels = same) d.rows
    |> Option.fold ~none:nan ~some:(fun (r : row) -> r.value)
