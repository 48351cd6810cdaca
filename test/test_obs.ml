(* The observability plane: JSON round-trips, histogram bucket
   boundaries, counter atomicity under Domain parallelism, trace-buffer
   validity (everything we emit parses back), and the no-allocation
   guarantee on the always-on fast path. *)

module Obs = Rsim_obs.Obs
module J = Obs.Json

(* ---------------- JSON ---------------- *)

let roundtrip j =
  match J.parse (J.to_string j) with
  | Ok j' -> j'
  | Error e -> Alcotest.failf "parse error on %s: %s" (J.to_string j) e

let test_json_roundtrip () =
  let samples =
    [
      J.Null;
      J.Bool true;
      J.Int 0;
      J.Int (-42);
      J.Int max_int;
      J.Float 0.5;
      J.Str "";
      J.Str "plain";
      J.Str "esc \" \\ \n \t \r quotes";
      J.Str "control \001 \031 bytes";
      J.Arr [];
      J.Arr [ J.Int 1; J.Str "two"; J.Null ];
      J.Obj [];
      J.Obj
        [
          ("a", J.Int 1);
          ("nested", J.Obj [ ("b", J.Arr [ J.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      if roundtrip j <> j then
        Alcotest.failf "round-trip changed %s" (J.to_string j))
    samples;
  (* pretty rendering parses back to the same value too *)
  let big = J.Obj [ ("xs", J.Arr [ J.Int 1; J.Int 2 ]); ("s", J.Str "hi") ] in
  (match J.parse (J.to_string_pretty big) with
  | Ok j -> Alcotest.(check bool) "pretty round-trip" true (j = big)
  | Error e -> Alcotest.fail e);
  (* non-finite floats become null *)
  Alcotest.(check string) "nan is null" "null" (J.to_string (J.Float nan))

let test_json_errors () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "parsed garbage %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_member () =
  let j = J.Obj [ ("a", J.Int 1); ("b", J.Str "x") ] in
  Alcotest.(check bool) "member a" true (J.member "a" j = Some (J.Int 1));
  Alcotest.(check bool) "member missing" true (J.member "c" j = None);
  Alcotest.(check bool) "member of non-obj" true (J.member "a" (J.Int 3) = None)

(* ---------------- histogram buckets ---------------- *)

let test_bucket_boundaries () =
  let cases =
    [
      (0, 0); (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (8, 3); (9, 4);
      (1024, 10); (1025, 11); ((1 lsl 30) - 1, 30); (1 lsl 30, 30);
      ((1 lsl 30) + 1, 31); (max_int, 31);
    ]
  in
  List.iter
    (fun (v, want) ->
      Alcotest.(check int)
        (Printf.sprintf "bucket_index %d" v)
        want (Obs.Metrics.bucket_index v))
    cases;
  Alcotest.(check int) "n_buckets" 32 Obs.Metrics.n_buckets;
  (* every non-overflow bucket's upper bound maps back to that bucket,
     and one more maps to the next *)
  for i = 0 to Obs.Metrics.n_buckets - 2 do
    match Obs.Metrics.bucket_upper_bound i with
    | None -> Alcotest.failf "bucket %d has no upper bound" i
    | Some ub ->
      Alcotest.(check int) (Printf.sprintf "ub(%d) self" i) i
        (Obs.Metrics.bucket_index ub);
      if i < Obs.Metrics.n_buckets - 2 then
        Alcotest.(check int)
          (Printf.sprintf "ub(%d)+1 next" i)
          (i + 1)
          (Obs.Metrics.bucket_index (ub + 1))
  done;
  Alcotest.(check bool) "overflow unbounded" true
    (Obs.Metrics.bucket_upper_bound (Obs.Metrics.n_buckets - 1) = None)

let test_histogram_observe () =
  let h = Obs.Metrics.histogram "t.hist.observe" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 3; 4; 1000; 1 lsl 40 ];
  Alcotest.(check int) "count" 7 (Obs.Metrics.histogram_count h);
  Alcotest.(check int) "sum" (10 + 1000 + (1 lsl 40)) (Obs.Metrics.histogram_sum h);
  let counts = Obs.Metrics.histogram_counts h in
  Alcotest.(check int) "bucket 0 (v<=1)" 2 counts.(0);
  Alcotest.(check int) "bucket 1 (v=2)" 1 counts.(1);
  Alcotest.(check int) "bucket 2 (3..4)" 2 counts.(2);
  Alcotest.(check int) "bucket 10 (1000)" 1 counts.(10);
  Alcotest.(check int) "overflow" 1 counts.(Obs.Metrics.n_buckets - 1)

(* ---------------- registry ---------------- *)

let test_registry () =
  let c = Obs.Metrics.counter "t.reg.c" in
  let c' = Obs.Metrics.counter "t.reg.c" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c' 4;
  Alcotest.(check int) "idempotent registration" 5 (Obs.Metrics.counter_value c);
  (match Obs.Metrics.gauge "t.reg.c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch not rejected");
  let g = Obs.Metrics.gauge "t.reg.g" in
  Obs.Metrics.set g 7;
  Obs.Metrics.set g (-3);
  Alcotest.(check int) "gauge last-wins" (-3) (Obs.Metrics.gauge_value g)

let test_metrics_json () =
  let c = Obs.Metrics.counter "t.json.c" in
  let h = Obs.Metrics.histogram "t.json.h" in
  Obs.Metrics.add c 9;
  Obs.Metrics.observe h 3;
  let j = Obs.Metrics.to_json () in
  (* the dump itself is valid JSON *)
  (match J.parse (J.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics dump does not parse: %s" e);
  let counters = Option.get (J.member "counters" j) in
  Alcotest.(check bool) "counter in dump" true
    (J.member "t.json.c" counters = Some (J.Int 9));
  let hist = Option.get (J.member "t.json.h" (Option.get (J.member "histograms" j))) in
  Alcotest.(check bool) "hist count" true (J.member "count" hist = Some (J.Int 1));
  Alcotest.(check bool) "hist buckets non-empty only" true
    (J.member "buckets" hist = Some (J.Arr [ J.Arr [ J.Int 4; J.Int 1 ] ]))

(* ---------------- Domain parallelism ---------------- *)

let test_counter_atomicity () =
  let c = Obs.Metrics.counter "t.par.c" in
  let h = Obs.Metrics.histogram "t.par.h" in
  let before = Obs.Metrics.counter_value c in
  let hbefore = Obs.Metrics.histogram_count h in
  let per_domain = 100_000 and n_domains = 4 in
  let worker () =
    for i = 1 to per_domain do
      Obs.Metrics.incr c;
      Obs.Metrics.observe h (i land 1023)
    done
  in
  let ds = List.init n_domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost increments"
    (before + (n_domains * per_domain))
    (Obs.Metrics.counter_value c);
  Alcotest.(check int) "no lost observations"
    (hbefore + (n_domains * per_domain))
    (Obs.Metrics.histogram_count h)

(* ---------------- tracing ---------------- *)

let test_trace_roundtrip () =
  Obs.Trace.start ();
  Obs.Trace.instant ~name:"evt" ~pid:0 ~ts:1 ~args:[ ("k", J.Str "v") ] ();
  Obs.Trace.complete ~name:"span" ~pid:1 ~ts:2 ~dur:5 ();
  Obs.Trace.stop ();
  Alcotest.(check int) "buffered" 2 (Obs.Trace.length ());
  (* the Chrome export parses back and has the right shape *)
  let j =
    match J.parse (J.to_string (Obs.Trace.to_chrome ())) with
    | Ok j -> j
    | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  in
  let evs =
    match J.member "traceEvents" j with
    | Some (J.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check int) "two events" 2 (List.length evs);
  List.iter
    (fun ev ->
      List.iter
        (fun field ->
          if J.member field ev = None then
            Alcotest.failf "event missing %s: %s" field (J.to_string ev))
        [ "name"; "ph"; "pid"; "tid"; "ts" ])
    evs;
  let phs =
    List.filter_map (fun ev -> J.member "ph" ev) evs
  in
  Alcotest.(check bool) "phases" true
    (phs = [ J.Str "i"; J.Str "X" ]);
  (* every JSONL line parses *)
  let lines =
    String.split_on_char '\n' (String.trim (Obs.Trace.to_jsonl ()))
  in
  Alcotest.(check int) "jsonl lines" 2 (List.length lines);
  List.iter
    (fun l ->
      match J.parse l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bad JSONL line %S: %s" l e)
    lines;
  Obs.Trace.clear ();
  Alcotest.(check int) "cleared" 0 (Obs.Trace.length ())

let test_trace_off_drops () =
  Obs.Trace.clear ();
  Alcotest.(check bool) "off by default" false (Obs.Trace.enabled ());
  Obs.Trace.instant ~name:"dropped" ~pid:0 ~ts:0 ();
  Obs.Trace.complete ~name:"dropped" ~pid:0 ~ts:0 ~dur:1 ();
  Alcotest.(check int) "nothing buffered" 0 (Obs.Trace.length ())

(* ---------------- no allocation when off ---------------- *)

(* The always-on instruments — counter increments, histogram
   observations, and the [Trace.enabled] guard — must not allocate, or
   they would perturb the GC behaviour of every run that is not being
   observed. [Gc.minor_words] itself boxes a float per call, so allow a
   few words of slack but nothing proportional to the loop. *)
let test_no_alloc_when_off () =
  let c = Obs.Metrics.counter "t.alloc.c" in
  let h = Obs.Metrics.histogram "t.alloc.h" in
  Obs.Metrics.incr c;
  Obs.Metrics.observe h 17;
  ignore (Obs.Trace.enabled ());
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    Obs.Metrics.incr c;
    Obs.Metrics.observe h i;
    if Obs.Trace.enabled () then
      Obs.Trace.complete ~name:"op" ~pid:0 ~ts:i ~dur:1 ()
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 64. then
    Alcotest.failf "fast path allocated %.0f minor words over %d iterations" dw n

(* ---------------- instrumented fast path ---------------- *)

(* Running an augmented-snapshot workload bumps the aug.* metrics: the
   instrumentation is live, not dead code. *)
let test_aug_counters_move () =
  let open Rsim_augmented in
  let c_bu = Obs.Metrics.counter "aug.bu.total" in
  let before = Obs.Metrics.counter_value c_bu in
  let aug = Aug.create ~f:2 ~m:2 () in
  let bu me =
    Aug.Prog.bind
      (Aug.block_update_prog (Aug.config aug) ~me
         [ (me, Rsim_value.Value.Int (me + 1)) ])
      (fun _ -> Aug.Prog.return ())
  in
  Aug.Prog.run ~sched:Rsim_shmem.Schedule.round_robin
    (Aug.Prog.start ~apply:(Aug.apply aug) ~emit:(Aug.record aug)
       [ bu 0; bu 1 ]);
  Alcotest.(check int) "two block-updates counted" (before + 2)
    (Obs.Metrics.counter_value c_bu)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "member" `Quick test_json_member;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "json dump" `Quick test_metrics_json;
          Alcotest.test_case "counter atomicity (4 domains)" `Quick
            test_counter_atomicity;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome + jsonl round trip" `Quick
            test_trace_roundtrip;
          Alcotest.test_case "off drops" `Quick test_trace_off_drops;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "no allocation when off" `Quick
            test_no_alloc_when_off;
          Alcotest.test_case "aug counters move" `Quick test_aug_counters_move;
        ] );
    ]
