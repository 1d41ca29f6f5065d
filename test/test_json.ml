(* The one JSON codec: both printers round-trip through the parser, float
   fields stay floats, the hand-printf style of the historical bench
   emitters still parses, and malformed input is rejected. *)

module J = Json

let rec pp_value fmt = function
  | J.Null -> Format.fprintf fmt "null"
  | J.Bool b -> Format.fprintf fmt "%b" b
  | J.Int i -> Format.fprintf fmt "%d" i
  | J.Float f -> Format.fprintf fmt "%h" f
  | J.Str s -> Format.fprintf fmt "%S" s
  | J.List vs ->
    Format.fprintf fmt "[%a]" (Format.pp_print_list pp_value) vs
  | J.Obj fs ->
    Format.fprintf fmt "{%a}"
      (Format.pp_print_list (fun fmt (k, v) -> Format.fprintf fmt "%s: %a" k pp_value v))
      fs

let value = Alcotest.testable pp_value ( = )

(* A document exercising every constructor, nesting, and the string
   escapes the emitters produce (quotes, backslashes, newlines, raw
   control bytes). *)
let sample =
  J.Obj
    [ ("schema", J.Str "sud-bench/7");
      ("bench", J.Str "blkperf");
      ("empty_list", J.List []);
      ("empty_obj", J.Obj []);
      ("nothing", J.Null);
      ("flags", J.List [ J.Bool true; J.Bool false ]);
      ("negative", J.Int (-42));
      ("big", J.Int 1_000_000_007);
      ("ratio", J.fnum 0.123456);
      ("whole", J.Float 100.);
      ("tiny", J.Float 1.5e-9);
      ("nasty", J.Str "a \"quoted\" \\ back\nslash \001 ctrl\ttab\rcr");
      ( "points",
        J.List
          [ J.Obj [ ("depth", J.Int 1); ("kiops", J.Float 75.6) ];
            J.Obj [ ("depth", J.Int 16); ("kiops", J.Float 334.2) ] ] ) ]

let test_roundtrip () =
  (match J.of_string (J.to_string sample) with
   | Ok v -> Alcotest.check value "print |> parse is the identity" sample v
   | Error e -> Alcotest.failf "reparse failed: %s" e);
  let line = J.to_line sample in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match J.of_string line with
  | Ok v -> Alcotest.check value "to_line |> parse is the identity" sample v
  | Error e -> Alcotest.failf "line reparse failed: %s" e

let test_fnum () =
  Alcotest.check value "rounded to 3 decimals" (J.Float 0.123) (J.fnum 0.1234999);
  Alcotest.check value "dp override" (J.Float 7.1) (J.fnum ~dp:1 7.06);
  Alcotest.check value "nan is null" J.Null (J.fnum Float.nan);
  Alcotest.check value "infinity is null" J.Null (J.fnum Float.infinity)

(* Whole-float fields must reparse as floats, not collapse into ints —
   a gate comparing kpps values would otherwise see 100 <> 100.0. *)
let test_float_identity () =
  match J.of_string (J.to_string (J.Float 100.)) with
  | Ok (J.Float f) -> Alcotest.(check (float 0.)) "value survives" 100. f
  | Ok v -> Alcotest.failf "parsed as %s, not a float" (J.to_string v)
  | Error e -> Alcotest.fail e

(* Excerpt in the exact style of the historical hand-printf emitters
   (sud-bench/2 .. /6): the parser reads JSON however it is laid out. *)
let legacy =
  {|{
  "schema": "sud-bench/4",
  "micro": {
    "ring_push_pop": { "name": "uchan ring push+pop", "ns_per_op": 10.0 },
    "gone": { "name": "removed", "ns_per_op": null }
  },
  "points": [
    { "queues": 1, "kpps": 508.9, "rxq_frames": [150335] },
    { "queues": 4, "kpps": 1126.5, "rxq_frames": [86397, 86398] }
  ],
  "seed": "0xB12A7",
  "pass": true
}
|}

let test_legacy_lookups () =
  let doc =
    match J.of_string legacy with
    | Ok v -> v
    | Error e -> Alcotest.failf "legacy style did not parse: %s" e
  in
  let field k = function
    | J.Obj fs -> List.assoc_opt k fs
    | _ -> None
  in
  Alcotest.(check (option value)) "schema" (Some (J.Str "sud-bench/4")) (field "schema" doc);
  Alcotest.(check (option value)) "pass" (Some (J.Bool true)) (field "pass" doc);
  Alcotest.(check (option value))
    "micro row" (Some (J.Float 10.0))
    Option.(bind (bind (field "micro" doc) (field "ring_push_pop")) (field "ns_per_op"));
  Alcotest.(check (option value))
    "null estimate" (Some J.Null)
    Option.(bind (bind (field "micro" doc) (field "gone")) (field "ns_per_op"));
  match field "points" doc with
  | Some (J.List [ _; p4 ]) ->
    Alcotest.(check (option value)) "sweep row" (Some (J.Float 1126.5)) (field "kpps" p4);
    Alcotest.(check (option value))
      "int list" (Some (J.List [ J.Int 86397; J.Int 86398 ])) (field "rxq_frames" p4)
  | _ -> Alcotest.fail "points did not parse as a two-row list"

(* A document read in one layout and reprinted in the codec's own
   reparses to the same value. *)
let test_reprint () =
  match J.of_string legacy with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    (match J.of_string (J.to_string doc) with
     | Ok doc2 -> Alcotest.check value "reprint of legacy reparses equal" doc doc2
     | Error e -> Alcotest.failf "reprint did not parse: %s" e)

let test_errors () =
  let fails s =
    match J.of_string s with
    | Ok _ -> Alcotest.failf "accepted malformed input %S" s
    | Error _ -> ()
  in
  fails "";
  fails "{";
  fails "[1, 2";
  fails "{\"a\" 1}";
  fails "\"unterminated";
  fails "{\"a\": 1} trailing";
  fails "nul";
  fails "{\"a\": 00x}"

let suite =
  [ Alcotest.test_case "print/parse round-trip" `Quick test_roundtrip;
    Alcotest.test_case "fnum rounding and null" `Quick test_fnum;
    Alcotest.test_case "whole floats stay floats" `Quick test_float_identity;
    Alcotest.test_case "legacy emitter style parses, readers work" `Quick
      test_legacy_lookups;
    Alcotest.test_case "reprinted documents reparse equal" `Quick
      test_reprint;
    Alcotest.test_case "malformed inputs are rejected" `Quick test_errors ]
