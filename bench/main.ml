(* Benchmark & experiment harness.

   Two halves:
   1. Regenerate every experiment table (E1..E10 of EXPERIMENTS.md) —
      the paper has no measured tables of its own, so these executable
      checks of its lemmas and bounds are what we reproduce.
   2. Bechamel micro-benchmarks, one per experiment workload, measuring
      the cost of the machinery itself (augmented-snapshot operations,
      spec checking, full simulations, replay analysis, solo-path
      search, bound tables). *)

open Core
open Bechamel
open Toolkit

(* -------- part 2: one Test.make per experiment workload -------- *)

let stage = Staged.stage

let e1_aug_ops =
  Test.make ~name:"e1/aug-workload f=3 m=3"
    (stage (fun () -> Rsim_experiments.Exp_common.aug_workload ~f:3 ~m:3 ~n_ops:6 ~seed:11))

let e2_yield_probe =
  Test.make ~name:"e2/aug-workload f=4 m=3"
    (stage (fun () -> Rsim_experiments.Exp_common.aug_workload ~f:4 ~m:3 ~n_ops:6 ~seed:12))

let e3_spec_check =
  let aug, trace = Rsim_experiments.Exp_common.aug_workload ~f:3 ~m:3 ~n_ops:8 ~seed:13 in
  Test.make ~name:"e3/spec-check (fixed trace)"
    (stage (fun () -> Aug_spec.check aug trace))

let e4_replay =
  let spec, result = Rsim_experiments.Exp_common.racing_sim ~n:6 ~m:3 ~f:2 ~d:0 ~seed:14 in
  Test.make ~name:"e4/lemma26-replay (fixed run)"
    (stage (fun () -> Analysis.check spec result))

let e5_reduction_small =
  Test.make ~name:"e5/simulation n=4 m=2 f=2"
    (stage (fun () -> Rsim_experiments.Exp_common.racing_sim ~n:4 ~m:2 ~f:2 ~d:0 ~seed:15))

let e5_reduction_mid =
  Test.make ~name:"e5/simulation n=8 m=2 f=4"
    (stage (fun () -> Rsim_experiments.Exp_common.racing_sim ~n:8 ~m:2 ~f:4 ~d:0 ~seed:16))

let e5_reduction_direct =
  Test.make ~name:"e5/simulation n=7 m=5 f=2 d=1"
    (stage (fun () -> Rsim_experiments.Exp_common.racing_sim ~n:7 ~m:5 ~f:2 ~d:1 ~seed:17))

let e6_complexity =
  Test.make ~name:"e6/a-b-bounds m<=6"
    (stage (fun () ->
         for m = 1 to 6 do
           for i = 1 to 6 do
             ignore (Complexity.b ~m i)
           done
         done))

let e7_tables =
  Test.make ~name:"e7/bound-tables"
    (stage (fun () ->
         ignore
           (Tables.kset_rows ~ns:[ 8; 16; 32; 64 ] ~ks:[ 1; 2; 4; 7 ]
              ~xs:[ 1; 2; 4 ])))

let e8_solo_search =
  let nd = Nd_examples.coin_consensus ~me:0 () in
  let state = nd.Ndproto.init (Value.Int 1) in
  let ep = Ndproto.initial_ep nd in
  Test.make ~name:"e8/solo-path-search"
    (stage (fun () -> Solo_path.shortest nd ~state ~ep ~cap:10_000))

let e8_derand_run =
  Test.make ~name:"e8/derandomized-run"
    (stage (fun () ->
         let procs =
           [
             Derandomize.convert (Nd_examples.coin_consensus ~me:0 ()) ~cap:10_000
               ~input:(Value.Int 1);
             Derandomize.convert (Nd_examples.coin_consensus ~me:1 ()) ~cap:10_000
               ~input:(Value.Int 2);
           ]
         in
         Mrun.run ~max_steps:500 ~sched:(Schedule.random ~seed:18)
           (Mrun.init procs)))

let explore_workload () =
  match
    Explore.Aug_target.builtin
      ~oracles:[ Explore.Aug_target.no_failure; Explore.Aug_target.spec ]
      ~name:"bu-conflict" ~f:2 ~m:2 ()
  with
  | Some w -> w
  | None -> assert false

let explore_exhaustive =
  let w = explore_workload () in
  Test.make ~name:"explore/exhaustive f=2 m=2 <=8"
    (stage (fun () -> Explore.exhaustive ~max_steps:8 w))

let explore_sweep_1d =
  let w = explore_workload () in
  Test.make ~name:"explore/sweep 64 scheds 1 domain"
    (stage (fun () -> Explore.sweep ~domains:1 ~max_steps:40 ~budget:64 ~seed:21 w))

let explore_sweep_4d =
  let w = explore_workload () in
  Test.make ~name:"explore/sweep 64 scheds 4 domains"
    (stage (fun () -> Explore.sweep ~domains:4 ~max_steps:40 ~budget:64 ~seed:21 w))

(* Fault-plane overhead: the same two conflicting Block-Updates run with
   no control hook at all, with the hook installed but an empty fault
   plan (the faults-off cost every supervised run now pays per
   H-operation), and with a real injected crash. The first two should be
   indistinguishable. *)
let bu_run ?control () =
  let aug = Aug.create ~f:2 ~m:2 () in
  Aug.F.run ?control ~sched:Schedule.round_robin ~apply:(Aug.apply aug)
    [
      (fun _ -> ignore (Aug.block_update aug ~me:0 [ (0, Value.Int 1) ]));
      (fun _ -> ignore (Aug.block_update aug ~me:1 [ (1, Value.Int 2) ]));
    ]

let faults_no_hook =
  Test.make ~name:"faults/bu-run no hook" (stage (fun () -> bu_run ()))

let faults_empty_plan =
  Test.make ~name:"faults/bu-run empty plan (off)"
    (stage (fun () ->
         let plan = Faults.plan ~adapter:Aug.fault_adapter [] in
         bu_run ~control:(Faults.control plan) ()))

let faults_crash =
  let specs =
    match Faults.of_string "crash@1:3" with Ok s -> s | Error _ -> assert false
  in
  Test.make ~name:"faults/bu-run crash@1:3"
    (stage (fun () ->
         let plan = Faults.plan ~adapter:Aug.fault_adapter specs in
         bu_run ~control:(Faults.control plan) ()))

let substrate_regsnap =
  Test.make ~name:"substrate/regsnap scan f=3"
    (stage (fun () ->
         let t = Regsnap.create ~f:3 in
         ignore
           (Regsnap.F.run ~sched:Schedule.round_robin ~apply:(Regsnap.apply t)
              [
                (fun _ -> Regsnap.update t ~me:0 (Value.Int 1));
                (fun _ -> Regsnap.update t ~me:1 (Value.Int 2));
                (fun _ -> ignore (Regsnap.scan t ~me:2));
              ])))

let substrate_sperner =
  Test.make ~name:"substrate/sperner walk s=12"
    (stage (fun () ->
         let coloring = Sperner.random_coloring ~s:12 ~seed:99 in
         Sperner.find_by_walk ~s:12 ~coloring))

let tests =
  [
    e1_aug_ops;
    e2_yield_probe;
    e3_spec_check;
    e4_replay;
    e5_reduction_small;
    e5_reduction_mid;
    e5_reduction_direct;
    e6_complexity;
    e7_tables;
    e8_solo_search;
    e8_derand_run;
    explore_exhaustive;
    explore_sweep_1d;
    explore_sweep_4d;
    faults_no_hook;
    faults_empty_plan;
    faults_crash;
    substrate_regsnap;
    substrate_sperner;
  ]

let run_benchmarks () =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Printf.printf "%-36s %14s %10s\n" "benchmark" "time/run" "r2";
  print_endline (String.make 64 '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let estimates = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let time =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> t
            | _ -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> Printf.sprintf "%.4f" r
            | None -> "-"
          in
          let human t =
            if t > 1e9 then Printf.sprintf "%8.2f s " (t /. 1e9)
            else if t > 1e6 then Printf.sprintf "%8.2f ms" (t /. 1e6)
            else if t > 1e3 then Printf.sprintf "%8.2f us" (t /. 1e3)
            else Printf.sprintf "%8.0f ns" t
          in
          Printf.printf "%-36s %14s %10s\n" name (human time) r2)
        estimates)
    tests

(* -------- explorer throughput: schedules per second -------- *)

let explore_throughput () =
  let w = explore_workload () in
  let report name executions dt =
    Printf.printf "%-36s %8d scheds %8.2f s %10.0f scheds/s\n" name executions
      dt
      (if dt > 0. then float_of_int executions /. dt else nan)
  in
  let t0 = Unix.gettimeofday () in
  let rep = Explore.exhaustive ~max_steps:10 w in
  report "exhaustive f=2 m=2 <=10"
    (rep.Explore.complete + rep.Explore.truncated)
    (Unix.gettimeofday () -. t0);
  let budget = 2048 in
  List.iter
    (fun domains ->
      let t0 = Unix.gettimeofday () in
      let rep = Explore.sweep ~domains ~max_steps:60 ~budget ~seed:31 w in
      report
        (Printf.sprintf "sweep %d scheds %d domain%s" budget domains
           (if domains = 1 then "" else "s"))
        rep.Explore.executions
        (Unix.gettimeofday () -. t0))
    [ 1; 2; 4 ]

(* -------- explorer snapshot: BENCH_explore.json -------- *)

(* Measure the parallel prefix-sharing engine against the pre-PR
   sequential DFS (kept as [Explore.exhaustive_naive]) on the standard
   f=2 m=2 conflicting Block-Update workload, plus how exhaustive
   throughput scales with domains on a fixed tree (pruning off so every
   domain count does identical work). Written to BENCH_explore.json so
   CI can track the engine's speedup and scaling across commits. *)
let explore_snapshot () =
  let w = explore_workload () in
  let max_steps = 12 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* warm up the allocator / code paths before timing *)
  ignore (Explore.exhaustive ~max_steps:8 w);
  let naive, dt_naive =
    time (fun () -> Explore.exhaustive_naive ~max_steps w)
  in
  let engine, dt_engine = time (fun () -> Explore.exhaustive ~max_steps w) in
  let speedup = if dt_engine > 0. then dt_naive /. dt_engine else nan in
  let rate n dt = if dt > 0. then float_of_int n /. dt else nan in
  let scale_steps = 14 in
  let scaling =
    List.map
      (fun domains ->
        let rep, dt =
          time (fun () ->
              Explore.exhaustive ~max_steps:scale_steps ~domains ~dedup:false w)
        in
        (domains, rep.Explore.executions, dt, rate rep.Explore.executions dt))
      [ 1; 2; 4 ]
  in
  let rate_at d =
    match List.find_opt (fun (d', _, _, _) -> d' = d) scaling with
    | Some (_, _, _, r) -> r
    | None -> nan
  in
  let scaling_1_to_4 =
    if rate_at 1 > 0. then rate_at 4 /. rate_at 1 else nan
  in
  let side name (rep : Explore.exhaustive_report) dt =
    ( name,
      Obs.Json.Obj
        [
          ("wall_s", Obs.Json.Float dt);
          ("executions", Obs.Json.Int rep.Explore.executions);
          ("prefixes", Obs.Json.Int rep.Explore.prefixes);
          ("complete", Obs.Json.Int rep.Explore.complete);
          ("truncated", Obs.Json.Int rep.Explore.truncated);
          ("dedup_hits", Obs.Json.Int rep.Explore.dedup_hits);
          ("domains", Obs.Json.Int rep.Explore.domains);
          ("violations", Obs.Json.Int (List.length rep.Explore.violations));
        ] )
  in
  let j =
    Obs.Json.Obj
      [
        ("workload", Obs.Json.Str "bu-conflict f=2 m=2");
        ("max_steps", Obs.Json.Int max_steps);
        side "naive" naive dt_naive;
        side "engine" engine dt_engine;
        ("speedup_vs_naive", Obs.Json.Float speedup);
        ("scaling_max_steps", Obs.Json.Int scale_steps);
        ( "scaling",
          Obs.Json.Arr
            (List.map
               (fun (domains, executions, dt, r) ->
                 Obs.Json.Obj
                   [
                     ("domains", Obs.Json.Int domains);
                     ("executions", Obs.Json.Int executions);
                     ("wall_s", Obs.Json.Float dt);
                     ("scheds_per_sec", Obs.Json.Float r);
                   ])
               scaling) );
        ("scaling_1_to_4", Obs.Json.Float scaling_1_to_4);
      ]
  in
  let oc = open_out "BENCH_explore.json" in
  output_string oc (Obs.Json.to_string_pretty j);
  output_string oc "\n";
  close_out oc;
  Printf.printf "%-36s %8.3f s  %6d executions\n" "naive DFS (pre-PR engine)"
    dt_naive naive.Explore.executions;
  Printf.printf "%-36s %8.3f s  %6d executions  (%.1fx)\n"
    "parallel prefix-sharing engine" dt_engine engine.Explore.executions
    speedup;
  List.iter
    (fun (domains, executions, dt, r) ->
      Printf.printf "%-36s %8.3f s  %6d executions  %10.0f scheds/s\n"
        (Printf.sprintf "exhaustive (pruning off) %d domain%s" domains
           (if domains = 1 then "" else "s"))
        dt executions r)
    scaling;
  Printf.printf "%-36s %10.2fx\n" "scaling 1 -> 4 domains" scaling_1_to_4;
  print_endline "wrote BENCH_explore.json"

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* -------- observability snapshot: BENCH_obs.json -------- *)

(* Measure what the observability plane costs and what it reports:
   sweep schedules/sec with the tracer off (the default) and on
   (sampled), and raw augmented-snapshot op throughput. Written to
   BENCH_obs.json so CI can track the obs-on overhead and the
   throughput numbers across commits. *)
let obs_snapshot () =
  let w = explore_workload () in
  let budget = 1024 and max_steps = 60 in
  let sweep () = Explore.sweep ~domains:1 ~max_steps ~budget ~seed:31 w in
  ignore (sweep ());
  (* warmed up *)
  let rep_off, dt_off = time sweep in
  Obs.Trace.start ~sample:16 ();
  let _, dt_on = time sweep in
  Obs.Trace.stop ();
  let trace_events = Obs.Trace.length () in
  Obs.Trace.clear ();
  let n_runs = 2048 in
  let total_ops, dt_ops =
    time (fun () ->
        let total = ref 0 in
        for _ = 1 to n_runs do
          let r = bu_run () in
          total := !total + r.Aug.F.total_ops
        done;
        !total)
  in
  let rate n dt = if dt > 0. then float_of_int n /. dt else nan in
  let sched_off = rate rep_off.Explore.executions dt_off in
  let sched_on = rate rep_off.Explore.executions dt_on in
  let overhead_pct =
    if dt_off > 0. then (dt_on -. dt_off) /. dt_off *. 100. else nan
  in
  let j =
    Obs.Json.Obj
      [
        ("sweep_budget", Obs.Json.Int budget);
        ("sweep_max_steps", Obs.Json.Int max_steps);
        ("schedules_per_sec_obs_off", Obs.Json.Float sched_off);
        ("schedules_per_sec_obs_on", Obs.Json.Float sched_on);
        ("obs_on_overhead_pct", Obs.Json.Float overhead_pct);
        ("trace_events", Obs.Json.Int trace_events);
        ("bu_runs", Obs.Json.Int n_runs);
        ("aug_ops_per_sec", Obs.Json.Float (rate total_ops dt_ops));
      ]
  in
  let oc = open_out "BENCH_obs.json" in
  output_string oc (Obs.Json.to_string_pretty j);
  output_string oc "\n";
  close_out oc;
  Printf.printf
    "%-36s %10.0f scheds/s\n%-36s %10.0f scheds/s (%+.1f%%)\n%-36s %10.0f ops/s\n"
    "sweep obs-off" sched_off "sweep obs-on (trace, 1/16 sampled)" sched_on
    overhead_pct "augmented-snapshot H ops" (rate total_ops dt_ops);
  print_endline "wrote BENCH_obs.json"

let () =
  if Array.exists (( = ) "--explore-only") Sys.argv then begin
    print_endline "======================================================";
    print_endline " Explorer snapshot (BENCH_explore.json)";
    print_endline "======================================================";
    explore_snapshot ();
    exit 0
  end;
  if Array.exists (( = ) "--obs-only") Sys.argv then begin
    print_endline "======================================================";
    print_endline " Observability snapshot (BENCH_obs.json)";
    print_endline "======================================================";
    obs_snapshot ();
    exit 0
  end;
  print_endline "======================================================";
  print_endline " Experiment tables (EXPERIMENTS.md, E1..E10)";
  print_endline "======================================================";
  Rsim_experiments.Experiments.print_all Format.std_formatter;
  Format.pp_print_flush Format.std_formatter ();
  print_newline ();
  print_endline "======================================================";
  print_endline " Micro-benchmarks (bechamel, monotonic clock)";
  print_endline "======================================================";
  run_benchmarks ();
  print_newline ();
  print_endline "======================================================";
  print_endline " Explorer throughput (schedules per second)";
  print_endline "======================================================";
  explore_throughput ();
  print_newline ();
  print_endline "======================================================";
  print_endline " Explorer snapshot (BENCH_explore.json)";
  print_endline "======================================================";
  explore_snapshot ();
  print_newline ();
  print_endline "======================================================";
  print_endline " Observability snapshot (BENCH_obs.json)";
  print_endline "======================================================";
  obs_snapshot ()
