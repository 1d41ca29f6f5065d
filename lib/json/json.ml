type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let fnum ?(dp = 3) v =
  if not (Float.is_finite v) then Null
  else begin
    let scale = Float.pow 10. (float_of_int dp) in
    Float (Float.round (v *. scale) /. scale)
  end

(* ---- printing ---- *)

let add_str b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* A float always renders with a decimal point (or exponent) so it
   parses back as a Float, not an Int: 100. -> "100.0". *)
let float_str v =
  if not (Float.is_finite v) then "null"
  else
    let s = Printf.sprintf "%.12g" v in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s else s ^ ".0"

(* A collection's members, [sep]-separated; an object's carry their
   keys. *)
let add_members b sep item v =
  let add i k v =
    if i > 0 then Buffer.add_string b sep;
    Option.iter (fun k -> add_str b k; Buffer.add_string b ": ") k;
    item v
  in
  match v with
  | List vs -> List.iteri (fun i v -> add i None v) vs
  | Obj fs -> List.iteri (fun i (k, v) -> add i (Some k) v) fs
  | _ -> ()

let rec add_line b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_str f)
  | Str s -> add_str b s
  | (List _ | Obj _) as v ->
    let opening, closing = match v with List _ -> ("[", "]") | _ -> ("{ ", " }") in
    Buffer.add_string b opening;
    add_members b ", " (add_line b) v;
    Buffer.add_string b closing

let to_line v =
  let b = Buffer.create 128 in
  add_line b v;
  Buffer.contents b

(* Rows and short arrays stay on one line (the diffable table style of
   the checked-in baselines); anything wider breaks. *)
let inline_budget = 160

let rec render b indent v =
  match v with
  | Null | Bool _ | Int _ | Float _ | Str _ -> add_line b v
  | List [] -> Buffer.add_string b "[]"
  | Obj [] -> Buffer.add_string b "{}"
  | _ when String.length (to_line v) + indent <= inline_budget -> add_line b v
  | _ ->
    let pad = "\n" ^ String.make (indent + 2) ' ' in
    let opening, closing = match v with List _ -> ('[', ']') | _ -> ('{', '}') in
    Buffer.add_char b opening;
    Buffer.add_string b pad;
    add_members b ("," ^ pad) (render b (indent + 2)) v;
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make indent ' ');
    Buffer.add_char b closing

let to_string v =
  let b = Buffer.create 2048 in
  render b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ---- parsing ---- *)

exception Parse of int * string

let escapes =
  [ ('"', '"'); ('\\', '\\'); ('/', '/'); ('b', '\b'); ('f', '\012'); ('n', '\n');
    ('r', '\r'); ('t', '\t') ]

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () = while !pos < n && String.contains " \t\n\r" s.[!pos] do advance () done in
  let expect c = if peek () = Some c then advance () else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  (* [pos] is on the 'u' of a \uXXXX escape.  UTF-8 encode the code
     point: escaped control bytes and the BMP are all the files carry. *)
  let unicode b =
    if !pos + 4 >= n then fail "truncated \\u escape";
    let cp = try int_of_string ("0x" ^ String.sub s (!pos + 1) 4) with _ -> fail "bad \\u escape" in
    pos := !pos + 4;
    let byte c = Buffer.add_char b (Char.chr c) in
    if cp < 0x80 then byte cp
    else if cp < 0x800 then begin
      byte (0xC0 lor (cp lsr 6));
      byte (0x80 lor (cp land 0x3F))
    end
    else begin
      byte (0xE0 lor (cp lsr 12));
      byte (0x80 lor ((cp lsr 6) land 0x3F));
      byte (0x80 lor (cp land 0x3F))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | None -> fail "unterminated escape"
         | Some 'u' -> unicode b
         | Some c ->
           (match List.assoc_opt c escapes with
            | Some d -> Buffer.add_char b d
            | None -> fail (Printf.sprintf "bad escape '\\%c'" c)));
        advance ();
        loop ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let digits () = while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do advance () done in
    if peek () = Some '-' then advance ();
    digits ();
    let frac = peek () = Some '.' in
    if frac then begin
      advance ();
      digits ()
    end;
    let exp = peek () = Some 'e' || peek () = Some 'E' in
    if exp then begin
      advance ();
      if peek () = Some '+' || peek () = Some '-' then advance ();
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    (* Integers that overflow [int] fall back to floats. *)
    match ((if frac || exp then None else int_of_string_opt lit), float_of_string_opt lit) with
    | Some i, _ -> Int i
    | None, Some f -> Float f
    | None, None -> fail ("bad number " ^ lit)
  in
  (* The items of a collection whose opening bracket is at [pos]. *)
  let seq close item =
    advance ();
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          go (x :: acc)
        | Some c when c = close ->
          advance ();
          List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      Obj
        (seq '}' (fun () ->
             skip_ws ();
             let k = parse_string () in
             skip_ws ();
             expect ':';
             (k, value ())))
    | Some '[' -> List (seq ']' value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at byte %d" !pos) else Ok v
  with Parse (at, msg) -> Error (Printf.sprintf "parse error at byte %d: %s" at msg)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let of_file path =
  match read_file path with
  | exception Sys_error e -> Error e
  | s -> Result.map_error (( ^ ) (path ^ ": ")) (of_string s)

let of_jsonl_file path =
  match read_file path with
  | exception Sys_error e -> Error e
  | s ->
    (* A final newline ends the last record; it does not start one. *)
    let body =
      if String.ends_with ~suffix:"\n" s then String.sub s 0 (String.length s - 1) else s
    in
    let lines = if body = "" then [] else String.split_on_char '\n' body in
    let rec parse i acc = function
      | [] -> Ok (List.rev acc)
      | l :: tl ->
        (match of_string l with
         | Ok v -> parse (i + 1) (v :: acc) tl
         | Error e -> Error (Printf.sprintf "%s:%d: %s" path i e))
    in
    parse 1 [] lines

(* ---- reading fields ---- *)

exception Bad of string

let field k = function
  | Obj fs -> (match List.assoc_opt k fs with Some v -> v | None -> raise (Bad ("missing " ^ k)))
  | _ -> raise (Bad ("no object around " ^ k))

let str k o = match field k o with Str s -> s | _ -> raise (Bad (k ^ " is not a string"))
let int k o = match field k o with Int i -> i | _ -> raise (Bad (k ^ " is not an int"))
let bool k o = match field k o with Bool b -> b | _ -> raise (Bad (k ^ " is not a bool"))
let list k o = match field k o with List l -> l | _ -> raise (Bad (k ^ " is not a list"))

let strings k o =
  match field k o with
  | Obj kvs ->
    List.map
      (function
        | k', Str s -> (k', s)
        | k', _ -> raise (Bad (k ^ "." ^ k' ^ " is not a string")))
      kvs
  | _ -> raise (Bad (k ^ " is not an object"))

let float k o =
  match field k o with
  | Int i -> float_of_int i
  | Float f -> f
  | Null -> nan
  | _ -> raise (Bad (k ^ " is not a number"))

let decode f = match f () with v -> Ok v | exception Bad e -> Error e
