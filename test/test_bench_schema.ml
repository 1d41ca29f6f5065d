(* The bench format: the sud-bench/10 row document, its gates, and the
   read-only baseline file the gates compare against.  The JSON codec
   underneath is tested in test_json.ml. *)

module J = Bench_schema

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
  match Json.of_string (Json.to_string (J.to_json doc)) with
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

(* Only sud-bench/10 reads as a document, and a gate's verdict is
   recomputed from what was read, never taken from the file. *)
let test_of_json_checks () =
  let parse s = match Json.of_string s with Ok v -> v | Error e -> Alcotest.fail e in
  let doc schema pass =
    parse
      (Printf.sprintf
         {|{ "schema": "%s", "mode": "mq", "rows": [],
            "gates": [ { "name": "g", "value": 1.5, "op": ">=", "bound": 2, "pass": %b } ],
            "pass": true }|}
         schema pass)
  in
  (match J.of_json (doc "sud-bench/9" false) with
   | Ok _ -> Alcotest.fail "a sud-bench/9 document read as sud-bench/10"
   | Error _ -> ());
  match J.of_json (doc "sud-bench/10" true) with
  | Error e -> Alcotest.fail e
  | Ok d ->
    Alcotest.(check (list bool)) "1.5 >= 2 fails whatever the file says" [ false ]
      (List.map (fun (g : J.gate) -> g.pass) d.gates)

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

(* The exact values the gates compare against: micro ns/op, the 1q and 4q
   mq kpps, the 8q/b32 batch kpps and the cold blk outages.  Re-baselining
   is a deliberate act and shows up here. *)
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
  [ Alcotest.test_case "sud-bench/10 document round-trip" `Quick test_doc_roundtrip;
    Alcotest.test_case "other schemas rejected, verdicts recomputed" `Quick
      test_of_json_checks;
    Alcotest.test_case "gate ops and NaN" `Quick test_gate_ops;
    Alcotest.test_case "baseline file pins the copied values" `Quick test_baseline_pins;
    Alcotest.test_case "missing baseline key fails its gate" `Quick
      test_missing_baseline_fails ]
