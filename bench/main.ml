(* The explorer and observability snapshots that CI gates read.

   [--explore-only] writes BENCH_explore.json: the parallel engine
   against the sequential DFS, and exhaustive throughput at 1, 2 and 4
   domains. [--obs-only] writes BENCH_obs.json: what tracing costs a
   sweep, and raw augmented-snapshot throughput. The experiment tables
   are printed by [rsim experiments]; per-layer costs are measured by
   perfbench. *)

open Core

let explore_workload () =
  match
    Explore.Aug_target.builtin
      ~oracles:[ Explore.Aug_target.no_failure; Explore.Aug_target.spec ]
      ~name:"bu-conflict" ~f:2 ~m:2 ()
  with
  | Some w -> w
  | None -> assert false

let bu_programs =
  let cfg = Aug.config (Aug.create ~f:2 ~m:2 ()) in
  let bu me comp =
    Aug.Prog.bind
      (Aug.block_update_prog cfg ~me [ (comp, Value.Int (me + 1)) ])
      (fun _ -> Aug.Prog.return ())
  in
  [ bu 0 0; bu 1 1 ]

let bu_run () =
  let aug = Aug.create ~f:2 ~m:2 () in
  Aug.Prog.run ~sched:Schedule.round_robin
    (Aug.Prog.start ~apply:(Aug.apply aug) ~emit:(Aug.record aug)
       bu_programs)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

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
          total := !total + r.Aug.Prog.total_ops
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
  let banner title =
    print_endline "======================================================";
    Printf.printf " %s\n" title;
    print_endline "======================================================"
  in
  if Array.exists (( = ) "--explore-only") Sys.argv then begin
    banner "Explorer snapshot (BENCH_explore.json)";
    explore_snapshot ()
  end
  else if Array.exists (( = ) "--obs-only") Sys.argv then begin
    banner "Observability snapshot (BENCH_obs.json)";
    obs_snapshot ()
  end
  else begin
    prerr_endline "usage: main.exe (--explore-only | --obs-only)";
    exit 2
  end
