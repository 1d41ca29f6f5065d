(* The bench format: the JSON printer/parser round-trip, the promise that
   every historical BENCH_* emitter style still parses, the sud-bench/10
   row document, and the read-only baseline file the gates compare
   against. *)

module J = Bench_schema

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
      ("nasty", J.Str "a \"quoted\" \\ back\nslash \001 ctrl");
      ( "points",
        J.List
          [ J.Obj [ ("depth", J.Int 1); ("kiops", J.Float 75.6) ];
            J.Obj [ ("depth", J.Int 16); ("kiops", J.Float 334.2) ] ] ) ]

let test_roundtrip () =
  match J.of_string (J.to_string sample) with
  | Ok v -> Alcotest.check value "print |> parse is the identity" sample v
  | Error e -> Alcotest.failf "reparse failed: %s" e

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
   (sud-bench/2 .. /6): the parser must keep reading the checked-in
   baselines older sessions wrote. *)
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
  (match field "points" doc with
   | Some (J.List [ _; p4 ]) ->
     Alcotest.(check (option value)) "sweep row" (Some (J.Float 1126.5)) (field "kpps" p4);
     Alcotest.(check (option value))
       "int list" (Some (J.List [ J.Int 86397; J.Int 86398 ])) (field "rxq_frames" p4)
   | _ -> Alcotest.fail "points did not parse as a two-row list");
  (* History is readable as JSON but is not a sud-bench/10 document. *)
  match J.of_json doc with
  | Ok _ -> Alcotest.fail "a sud-bench/4 document read as sud-bench/10"
  | Error _ -> ()

let test_checked_in_baselines () =
  (* Tests run sandboxed away from the repo root, so round-trip a
     representative whole document instead: every construct the real
     baselines use is in [sample] and [legacy]. *)
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

(* ---- the sud-bench/10 document ---- *)

let doc =
  { J.mode = "mq";
    rows =
      [ J.row ~dp:1 ~labels:[ ("queues", "1") ] "mq.kpps" "kpps" 979.06;
        J.row ~labels:[ ("queues", "4"); ("rxq", "3") ] "mq.rxq_frames" "count" 86398.;
        J.row "trace_guard.ratio" "ratio" 1.0374;
        J.row "micro.ns_per_op" "ns" Float.nan ];
    gates =
      [ J.gate "speedup_4q_over_1q" 1.15 Ge 2.0; J.gate "irqs_per_frame" 0.0 Lt 0.2 ];
    pass = false }

let test_doc_roundtrip () =
  Alcotest.(check (float 0.)) "row rounded to dp" 979.1 (List.hd doc.rows).value;
  match J.of_string (J.to_string (J.to_json doc)) with
  | Error e -> Alcotest.failf "document did not reparse: %s" e
  | Ok v ->
    (match J.of_json v with
     | Error e -> Alcotest.failf "document did not read back: %s" e
     | Ok d ->
       Alcotest.(check string) "mode" doc.mode d.mode;
       Alcotest.(check bool) "pass" doc.pass d.pass;
       Alcotest.(check int) "row count" (List.length doc.rows) (List.length d.rows);
       List.iter2
         (fun (a : J.row) (b : J.row) ->
            Alcotest.(check string) "metric" a.metric b.metric;
            Alcotest.(check (list (pair string string))) "labels" a.labels b.labels;
            Alcotest.(check string) "unit" a.unit b.unit;
            Alcotest.(check (float 0.)) ("value of " ^ a.metric) a.value b.value)
         doc.rows d.rows;
       Alcotest.(check bool) "gates" true (doc.gates = d.gates))

(* Every op keeps its strictness, and NaN, what a missing baseline
   yields, fails them all. *)
let test_gate_ops () =
  let pass v op bound = (J.gate "g" v op bound).pass in
  Alcotest.(check (list bool)) "on the bound"
    [ false; true; true; true; false ]
    (List.map (fun op -> pass 0.2 op 0.2) [ J.Lt; Le; Eq; Ge; Gt ]);
  Alcotest.(check (list bool)) "NaN" [ false; false; false; false; false ]
    (List.map (fun op -> pass Float.nan op 0.2) [ J.Lt; Le; Eq; Ge; Gt ])

(* Tests run in the build tree, where dune copies the declared dep. *)
let baseline_file = "../bench/baseline.json"

(* The exact values the gates compare against, copied from BENCH_2 (micro
   ns/op), BENCH_4 (kpps), BENCH_5 (kpps at 8q/b32) and BENCH_7 (cold
   blk outage).  Re-baselining is a deliberate act and shows up here. *)
let pinned =
  [ ("micro.ns_per_op", [ ("key", "ring_push_pop") ], 10.0);
    ("micro.ns_per_op", [ ("key", "iommu_translate_hit") ], 8.8);
    ("micro.ns_per_op", [ ("key", "msg_marshal_unmarshal") ], 59.7);
    ("mq.kpps", [ ("queues", "1") ], 508.9);
    ("mq.kpps", [ ("queues", "4") ], 1126.5);
    ("batch.kpps", [ ("queues", "8"); ("batch", "32") ], 3213.5);
    ("recovery.outage_ns", [ ("fault", "blk_crash") ], 614704.);
    ("recovery.outage_ns", [ ("fault", "blk_hang") ], 610744.);
    ("recovery.outage_ns", [ ("fault", "blk_corrupt_completion") ], 610744.);
    ("recovery.outage_ns", [ ("fault", "blk_drop_completion") ], 610744.);
    ("recovery.outage_ns", [ ("fault", "blk_drop_flush") ], 610744.);
    ("recovery.outage_ns", [ ("fault", "blk_crash_mid_barrier") ], 614704.) ]

let test_baseline_pins () =
  (match J.read baseline_file with
   | Error e -> Alcotest.failf "baseline unreadable: %s" e
   | Ok d ->
     Alcotest.(check int) "nothing but the pinned rows" (List.length pinned)
       (List.length d.rows));
  List.iter
    (fun (metric, labels, v) ->
       Alcotest.(check (float 0.)) metric v (J.baseline ~file:baseline_file ~metric labels))
    pinned;
  Alcotest.(check (float 0.)) "labels match in any order" 3213.5
    (J.baseline ~file:baseline_file ~metric:"batch.kpps" [ ("batch", "32"); ("queues", "8") ])

let test_missing_baseline_fails () =
  let missing = J.baseline ~file:baseline_file ~metric:"mq.kpps" [ ("queues", "2") ] in
  Alcotest.(check bool) "missing row reads as NaN" true (Float.is_nan missing);
  Alcotest.(check bool) "no partial label match" true
    (Float.is_nan (J.baseline ~file:baseline_file ~metric:"batch.kpps" [ ("queues", "8") ]));
  Alcotest.(check bool) "missing file reads as NaN" true
    (Float.is_nan (J.baseline ~file:"no-such-baseline.json" ~metric:"mq.kpps" [ ("queues", "1") ]));
  (* The batch gate's shape: a measured figure over its baseline. *)
  Alcotest.(check bool) "the gate fed by it fails" false
    (J.gate "single_frame_ratio_1q_b1" (816.4 /. missing) Ge 0.95).pass

let suite =
  [ Alcotest.test_case "print/parse round-trip" `Quick test_roundtrip;
    Alcotest.test_case "fnum rounding and null" `Quick test_fnum;
    Alcotest.test_case "whole floats stay floats" `Quick test_float_identity;
    Alcotest.test_case "legacy emitter style parses, readers work" `Quick
      test_legacy_lookups;
    Alcotest.test_case "reprinted documents reparse equal" `Quick
      test_checked_in_baselines;
    Alcotest.test_case "malformed inputs are rejected" `Quick test_errors;
    Alcotest.test_case "sud-bench/10 document round-trip" `Quick test_doc_roundtrip;
    Alcotest.test_case "gate ops and NaN" `Quick test_gate_ops;
    Alcotest.test_case "baseline file pins the copied values" `Quick test_baseline_pins;
    Alcotest.test_case "missing baseline key fails its gate" `Quick
      test_missing_baseline_fails ]
