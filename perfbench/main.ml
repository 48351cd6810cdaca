(* The rsim benchmark.

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (verify, sweep-faults, reduce or hunt; see
   perfbench/README.md for why each exists), checks the verdict of every
   job, prints a human-readable report and, as the last line of standard
   output, one JSON object: {"correct", "attempted", "failed",
   "metrics"}. Any wrong verdict exits 1.

   The passes run in worker processes (this executable with --worker),
   one after another, each building and warming up its own workload: an
   execution stopped or cut off midway leaves its fibers' stacks
   allocated, so a process that runs many trees or sweeps grows without
   bound. The parent merges what the workers report.

   --trace 0 measures the end-to-end metrics with nothing wrapped.
   --trace 1 is a separate run: plain passes with nothing wrapped,
   then passes whose calls into each layer are wrapped in spans (see
   Span), both on one domain, then untraced passes on two domains; it
   reports the per-layer metrics.

   --domains, --first, --passes and --budget-ms are the parent's
   instructions to a worker and are accepted only with --worker. *)

open Core
module W = Workloads
module J = Obs.Json

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  worker : bool;
  domains : int;
  first : int;
  passes : int;
  budget_ms : int;
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.;
        trace = false;
        worker = false;
        domains = 1;
        first = 0;
        passes = 0;
        budget_ms = 0;
      }
  in
  let int_of name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s expects an integer, got %S" name v
  in
  let worker = Array.mem "--worker" Sys.argv in
  let rec go = function
    | "--workload" :: v :: rest ->
      a := { !a with workload = v };
      go rest
    | "--seed" :: v :: rest ->
      a := { !a with seed = int_of "--seed" v };
      go rest
    | "--seconds" :: v :: rest ->
      a := { !a with seconds = float_of_int (int_of "--seconds" v) };
      go rest
    | "--trace" :: v :: rest ->
      a := { !a with trace = int_of "--trace" v <> 0 };
      go rest
    | "--worker" :: rest ->
      a := { !a with worker = true };
      go rest
    | "--domains" :: v :: rest when worker ->
      a := { !a with domains = int_of "--domains" v };
      go rest
    | "--first" :: v :: rest when worker ->
      a := { !a with first = int_of "--first" v };
      go rest
    | "--passes" :: v :: rest when worker ->
      a := { !a with passes = int_of "--passes" v };
      go rest
    | "--budget-ms" :: v :: rest when worker ->
      a := { !a with budget_ms = int_of "--budget-ms" v };
      go rest
    | [] -> ()
    | x :: _ -> die "unexpected argument %S" x
  in
  go (List.tl (Array.to_list Sys.argv));
  !a

(* ---------------------------------------------------------------- *)
(* Statistics                                                        *)
(* ---------------------------------------------------------------- *)

let sorted xs = Array.of_list (List.sort compare xs)

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let s_of_ns ns = float_of_int ns /. 1e9

(* ---------------------------------------------------------------- *)
(* The worker: one process, one set-up, some passes                  *)
(* ---------------------------------------------------------------- *)

(* Every counter of the public Obs.Metrics registry, and each
   histogram's sum and count. *)
let metrics_snapshot () =
  let tbl = Hashtbl.create 64 in
  let j = Obs.Metrics.to_json () in
  let fields k = match J.member k j with Some (J.Obj kv) -> kv | _ -> [] in
  List.iter
    (function name, J.Int v -> Hashtbl.replace tbl name v | _ -> ())
    (fields "counters");
  List.iter
    (fun (name, h) ->
      List.iter
        (fun k ->
          match J.member k h with
          | Some (J.Int v) -> Hashtbl.replace tbl (name ^ "." ^ k) v
          | _ -> ())
        [ "sum"; "count" ])
    (fields "histograms");
  tbl

let gc_snapshot () =
  let g = Gc.quick_stat () in
  let tbl = Hashtbl.create 4 in
  Hashtbl.replace tbl "gc.minor_words" (int_of_float g.Gc.minor_words);
  Hashtbl.replace tbl "gc.minor_collections" g.Gc.minor_collections;
  Hashtbl.replace tbl "gc.major_collections" g.Gc.major_collections;
  tbl

(* Add [after - before] into [into]. *)
let add_deltas into ~before after =
  Hashtbl.iter
    (fun k v ->
      let d = v - Option.value ~default:0 (Hashtbl.find_opt before k) in
      if d <> 0 then
        Hashtbl.replace into k
          (d + Option.value ~default:0 (Hashtbl.find_opt into k)))
    after

(* Peak resident set size in MB (VmHWM), or the OCaml heap's peak where
   /proc is not available. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec find () =
          let line = input_line ic in
          if String.starts_with ~prefix:"VmHWM:" line then
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
          else find ()
        in
        find ())
  in
  try from_proc ()
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

let ints xs = J.Arr (List.map (fun x -> J.Int x) xs)

(* Set up once, run passes [first], [first + 1], ...: exactly [passes]
   of them, so that peak memory does not depend on speed, or with
   [passes] 0 until [budget_ms] has gone, at least one. The set-up and
   each pass are preceded by a timing of the Reference computation, and
   each pass by a full major collection; the counter deltas are summed
   over the passes alone. Print a JSON line with everything measured. *)
let worker (w : W.t) ctx ~first ~passes ~budget_ms =
  let _, setup_ref_ns = W.timed Reference.run in
  let run, setup_ns = W.timed (fun () -> w.W.prepare ctx) in
  Span.reset ();
  let wrap fn = if ctx.W.traced then Span.with_span "pass" fn else fn () in
  let deltas = Hashtbl.create 64 in
  let t0 = Span.now () in
  let rec go i acc =
    let n = i - first in
    let spent_ms = (Span.now () - t0) / 1_000_000 in
    if n >= 1 && if passes > 0 then n >= passes else spent_ms >= budget_ms then
      List.rev acc
    else begin
      let _, ref_ns = W.timed Reference.run in
      Gc.full_major ();
      Span.set_job i;
      let m0 = metrics_snapshot () in
      let g0 = gc_snapshot () in
      let p, ns = W.timed (fun () -> wrap (fun () -> run i)) in
      let g1 = gc_snapshot () in
      add_deltas deltas ~before:g0 g1;
      add_deltas deltas ~before:m0 (metrics_snapshot ());
      go (i + 1) ((p, ns, ref_ns) :: acc)
    end
  in
  let results = go first [] in
  let counters = Hashtbl.fold (fun k d acc -> (k, J.Int d) :: acc) deltas [] in
  let spans =
    Hashtbl.fold
      (fun name (a : Span.agg) acc ->
        (name, ints [ a.Span.calls; a.Span.total_ns; a.Span.self_ns ]) :: acc)
      (Span.totals ()) []
  in
  if ctx.W.traced then begin
    let path = Filename.concat W.artifact_dir ("spans-" ^ w.W.name ^ ".jsonl") in
    try
      if not (Sys.file_exists W.artifact_dir) then Sys.mkdir W.artifact_dir 0o755;
      Span.write ~path
    with Sys_error e -> Printf.eprintf "perfbench: spans not written: %s\n%!" e
  end;
  let pass_json ((p : W.pass), ns, ref_ns) =
    J.Obj
      [
        ("wall_ns", J.Int ns);
        ("ref_ns", J.Int ref_ns);
        ("items", J.Int p.W.items);
        ("wrong", J.Int p.W.wrong);
        ("jobs_ns", ints p.W.jobs_ns);
        ("facts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) p.W.facts));
      ]
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("setup_ns", J.Int setup_ns);
            ("setup_ref_ns", J.Int setup_ref_ns);
            ("peak_rss_mb", J.Float (peak_rss_mb ()));
            ("passes", J.Arr (List.map pass_json results));
            ("counters", J.Obj counters);
            ("spans", J.Obj spans);
          ]))

(* ---------------------------------------------------------------- *)
(* The parent: run workers, merge what they report                  *)
(* ---------------------------------------------------------------- *)

type tally = {
  mutable walls : float list;  (** pass wall times, s *)
  mutable scaled : float list;  (** pass wall times at the nominal speed, s *)
  mutable refs : float list;  (** Reference times, s *)
  mutable jobs : float list;  (** job latencies, ms *)
  mutable per_job : float list list;  (** each pass's job latencies, ms *)
  mutable fact_sets : (string * int) list list;  (** each pass's facts *)
  mutable items : int;
  mutable wrong : int;
  mutable busy : float;  (** summed pass wall, s *)
  mutable setups : float list;  (** each worker's set-up, s *)
  mutable setups_scaled : float list;  (** the same at the nominal speed, s *)
  mutable rss : float list;  (** each worker's peak RSS, MB *)
  counters : (string, int) Hashtbl.t;
  spans : (string, int * int * int) Hashtbl.t;
}

let tally () =
  {
    walls = [];
    scaled = [];
    refs = [];
    jobs = [];
    per_job = [];
    fact_sets = [];
    items = 0;
    wrong = 0;
    busy = 0.;
    setups = [];
    setups_scaled = [];
    rss = [];
    counters = Hashtbl.create 64;
    spans = Hashtbl.create 32;
  }

let n_passes t = List.length t.walls

(* A time [ns] measured next to a Reference run that took [ref_ns], as
   it would read on a host where that run takes [Reference.nominal_s]. *)
let scaled_s ns ref_ns = s_of_ns ns *. Reference.nominal_s /. s_of_ns ref_ns

let int_field k j = match J.member k j with Some (J.Int v) -> v | _ -> 0

let float_field k j =
  match J.member k j with
  | Some (J.Float v) -> v
  | Some (J.Int v) -> float_of_int v
  | _ -> 0.

let list_field k j = match J.member k j with Some (J.Arr l) -> l | _ -> []
let obj_field k j = match J.member k j with Some (J.Obj l) -> l | _ -> []

(* Run one worker process and return its report. Its stderr is ours;
   its stdout's last line is the report. *)
let spawn args =
  let exe = Sys.executable_name in
  let r, wfd = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wfd
      Unix.stderr
  in
  Unix.close wfd;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> die "worker exited with code %d" c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> die "worker killed by signal %d" s);
  let last =
    List.fold_left
      (fun acc l -> if String.length l > 0 && l.[0] = '{' then l else acc)
      "" (String.split_on_char '\n' out)
  in
  match J.parse last with Ok j -> j | Error e -> die "bad worker report: %s" e

let merge t report =
  let setup_ns = int_field "setup_ns" report in
  t.setups <- s_of_ns setup_ns :: t.setups;
  t.setups_scaled <-
    scaled_s setup_ns (int_field "setup_ref_ns" report) :: t.setups_scaled;
  t.rss <- float_field "peak_rss_mb" report :: t.rss;
  List.iter
    (fun p ->
      let wall_ns = int_field "wall_ns" p and ref_ns = int_field "ref_ns" p in
      let wall = s_of_ns wall_ns in
      let jobs =
        List.filter_map
          (function J.Int ns -> Some (float_of_int ns /. 1e6) | _ -> None)
          (list_field "jobs_ns" p)
      in
      t.walls <- wall :: t.walls;
      t.scaled <- scaled_s wall_ns ref_ns :: t.scaled;
      t.refs <- s_of_ns ref_ns :: t.refs;
      t.busy <- t.busy +. wall;
      t.items <- t.items + int_field "items" p;
      t.wrong <- t.wrong + int_field "wrong" p;
      t.jobs <- List.rev_append jobs t.jobs;
      t.per_job <- jobs :: t.per_job;
      t.fact_sets <-
        List.filter_map
          (function k, J.Int v -> Some (k, v) | _ -> None)
          (obj_field "facts" p)
        :: t.fact_sets)
    (list_field "passes" report);
  List.iter
    (function
      | k, J.Int v ->
        Hashtbl.replace t.counters k
          (v + Option.value ~default:0 (Hashtbl.find_opt t.counters k))
      | _ -> ())
    (obj_field "counters" report);
  List.iter
    (function
      | k, J.Arr [ J.Int c; J.Int tot; J.Int self ] ->
        let c0, t0, s0 =
          Option.value ~default:(0, 0, 0) (Hashtbl.find_opt t.spans k)
        in
        Hashtbl.replace t.spans k (c0 + c, t0 + tot, s0 + self)
      | _ -> ())
    (obj_field "spans" report)

(* Run workers one after another for [seconds], at least [min_workers]
   of them, each with a share of the time, on [domains] domains; returns
   the next pass number. *)
let run_workers (w : W.t) t ~seed ~trace ~domains ~seconds ~min_workers ~first
    =
  let t0 = Span.now () in
  let share_ms = int_of_float (1000. *. seconds /. float_of_int min_workers) in
  let rec go k first =
    let elapsed = s_of_ns (Span.now () - t0) in
    if k >= min_workers && elapsed >= seconds then first
    else begin
      let report =
        spawn
          [
            "--worker";
            "--workload"; w.W.name;
            "--seed"; string_of_int seed;
            "--trace"; (if trace then "1" else "0");
            "--domains"; string_of_int domains;
            "--first"; string_of_int first;
            "--passes"; string_of_int w.W.per_process;
            "--budget-ms";
            string_of_int
              (min share_ms (int_of_float (1000. *. (seconds -. elapsed))));
          ]
      in
      let before = n_passes t in
      merge t report;
      go (k + 1) (first + n_passes t - before)
    end
  in
  go 0 first

(* Passes whose facts differ from the first pass's, for workloads whose
   facts must not depend on the repetition or the domain count. *)
let drifted (w : W.t) tallies =
  if not w.W.fixed_facts then 0
  else
    match List.concat_map (fun t -> List.rev t.fact_sets) tallies with
    | [] -> 0
    | first :: rest ->
      let bad = List.length (List.filter (fun f -> f <> first) rest) in
      if bad > 0 then
        Printf.eprintf "%s: %d passes report other tree counts than the first\n%!"
          w.W.name bad;
      bad

(* ---------------------------------------------------------------- *)
(* Output                                                            *)
(* ---------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let print_metric mt = Printf.printf "  %-36s %18.6f %s\n" mt.name mt.value mt.unit_

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  List.iter print_metric metrics;
  let body =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
             (json_number mt.value) mt.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed body

let print_verdicts (w : W.t) ~items ~wrong =
  Printf.printf "  %-36s %18.6f (%d of %d %s)\n" "wrong_verdict_frac"
    (ratio (float_of_int wrong) (float_of_int items))
    wrong items w.W.counts

let print_jobs (w : W.t) t =
  List.iteri
    (fun k label ->
      let lat = List.filter_map (fun js -> List.nth_opt js k) t.per_job in
      Printf.printf "    %-40s %10.3f ms fastest %10.3f ms median\n" label
        (List.fold_left Float.min infinity lat)
        (median lat))
    w.W.labels

(* The names of each workload's headline numbers, printed beside the
   generic end-to-end metrics the JSON line carries. *)
let headline (w : W.t) ~pass_s ~rate ~p50 ~p99 =
  match w.W.name with
  | "verify" -> [ m "verify_s" "s" pass_s ]
  | "sweep-faults" -> [ m "sweep_scheds_per_s" "1/s" rate ]
  | "reduce" ->
    [
      m "reduce_sims_per_s" "1/s" rate;
      m "reduce_sim_p50_ms" "ms" p50;
      m "reduce_sim_p99_ms" "ms" p99;
    ]
  | "hunt" -> [ m "hunt_s" "s" pass_s ]
  | _ -> []

(* ---------------------------------------------------------------- *)
(* --trace 0: the end-to-end metrics                                 *)
(* ---------------------------------------------------------------- *)

let untraced (w : W.t) ~seed ~seconds =
  let t = tally () in
  ignore
    (run_workers w t ~seed ~trace:false ~domains:1 ~seconds ~min_workers:10
       ~first:0);
  let wrong = t.wrong + drifted w [ t ] in
  let pass_s = median t.scaled in
  let rate =
    ratio (float_of_int t.items /. float_of_int (n_passes t)) pass_s
  in
  let p50 = percentile 0.5 t.jobs and p99 = percentile 0.99 t.jobs in
  let n_jobs = List.length t.jobs in
  Printf.printf "%s: %d workers, %d passes, %d %s, %d jobs (%s)\n" w.W.name
    (List.length t.setups) (n_passes t) t.items w.W.counts n_jobs w.W.job;
  List.iter print_metric (headline w ~pass_s ~rate ~p50 ~p99);
  print_metric
    (m "sustained_items_per_s" "1/s" (ratio (float_of_int t.items) t.busy));
  (* as measured, without the scaling to the nominal host speed *)
  print_metric (m "reference_ms" "ms" (1e3 *. median t.refs));
  print_metric (m "measured_pass_s" "s" (median t.walls));
  print_metric (m "measured_setup_s" "s" (median t.setups));
  print_metric (m "job_p50_ms" "ms" p50);
  (* the highest percentile with at least ten samples beyond it *)
  (match
     List.find_opt
       (fun p -> float_of_int n_jobs *. (1. -. p) >= 10.)
       [ 0.999; 0.99; 0.9 ]
   with
  | Some p ->
    Printf.printf "  %-36s %18.6f ms (of %d jobs)\n"
      (Printf.sprintf "job_p%g_ms" (100. *. p))
      (percentile p t.jobs) n_jobs
  | None -> ());
  print_jobs w t;
  print_verdicts w ~items:t.items ~wrong;
  ( t.items,
    wrong,
    [
      m "pass_s" "s" pass_s;
      m "peak_rss_mb" "MB" (median t.rss);
      m "setup_s" "s" (median t.setups_scaled);
    ] )

(* ---------------------------------------------------------------- *)
(* --trace 1: the per-layer metrics                                  *)
(* ---------------------------------------------------------------- *)

let oracle_names =
  [
    "no-failure";
    "aug-spec";
    "theorem20";
    "progress";
    "linearizable";
    "crash-robust";
    "race";
    "lemma26-replay";
    "consensus";
  ]

let traced (w : W.t) ~seed ~parallel ~seconds =
  (* plain passes with nothing wrapped, for the tracing overhead *)
  let plain = tally () in
  let next =
    run_workers w plain ~seed ~trace:false ~domains:1 ~seconds:(0.3 *. seconds)
      ~min_workers:2 ~first:0
  in
  (* passes with spans, whose counter deltas the per-layer metrics use *)
  let tr = tally () in
  let next =
    run_workers w tr ~seed ~trace:true ~domains:1 ~seconds:(0.5 *. seconds)
      ~min_workers:2 ~first:next
  in
  (* the same passes on every processor, for the scaling ratio *)
  let wide = tally () in
  if w.W.fans_out && parallel > 1 then
    ignore
      (run_workers w wide ~seed ~trace:false ~domains:parallel
         ~seconds:(0.2 *. seconds) ~min_workers:1 ~first:next);
  let tallies = [ plain; tr; wide ] in
  let items = List.fold_left (fun acc t -> acc + t.items) 0 tallies in
  let wrong =
    List.fold_left (fun acc t -> acc + t.wrong) 0 tallies + drifted w tallies
  in
  let passes = float_of_int (n_passes tr) in
  let per_pass x = x /. passes in
  let count t name =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt t.counters name))
  in
  let d = count tr in
  let fact name =
    float_of_int
      (List.fold_left
         (fun acc f -> acc + Option.value ~default:0 (List.assoc_opt name f))
         0 tr.fact_sets)
  in
  let sp name =
    match Hashtbl.find_opt tr.spans name with
    | Some (calls, _, self) -> (float_of_int calls, float_of_int self)
    | None -> (0., 0.)
  in
  let pass_ns =
    match Hashtbl.find_opt tr.spans "pass" with
    | Some (_, total, _) -> float_of_int total
    | None -> 0.
  in
  let pct self_ns = 100. *. ratio self_ns pass_ns in
  let us_per_call name =
    let calls, self = sp name in
    ratio self calls /. 1e3
  in
  let hops = d "fiber.ops" in
  let exec_calls, exec_self = sp "exec" in
  let sim_runs, sim_self = sp "sim.run" in
  let oracle_self =
    List.fold_left (fun acc o -> acc +. snd (sp ("oracle." ^ o))) 0. oracle_names
  in
  let engine_self = snd (sp "explore.exhaustive") +. snd (sp "explore.sweep") in
  let prefixes = fact "explore.prefixes" in
  let shrink_calls, shrink_self = sp "shrink" in
  let analysis_calls, _ = sp "analysis" in
  Printf.printf "%s: %d plain, %d traced, %d %d-domain passes\n" w.W.name
    (n_passes plain) (n_passes tr) (n_passes wide) parallel;
  print_verdicts w ~items ~wrong;
  let metrics =
    [
      m "exec.calls" "count" (per_pass exec_calls);
      m "exec.us_per_call" "us/call" (us_per_call "exec");
      m "exec.hops_per_call" "hops/call" (ratio hops exec_calls);
      m "exec.busy_pct" "%" (pct exec_self);
      m "runtime.fiber_ops" "count" (per_pass hops);
      m "runtime.ns_per_hop" "ns/hop" (ratio (exec_self +. sim_self) hops);
      m "gc.minor_words_per_hop" "words/hop" (ratio (d "gc.minor_words") hops);
      m "gc.minor_collections" "count" (per_pass (d "gc.minor_collections"));
      m "gc.major_collections" "count" (per_pass (d "gc.major_collections"));
      m "augmented.scan_total" "count" (per_pass (d "aug.scan.total"));
      m "augmented.scan_retry_ratio" "ratio"
        (ratio (d "aug.scan.retries") (d "aug.scan.total"));
      m "augmented.bu_total" "count" (per_pass (d "aug.bu.total"));
      m "augmented.bu_yield_ratio" "ratio"
        (ratio (d "aug.bu.yield") (d "aug.bu.total"));
      m "augmented.helping_writes" "count" (per_pass (d "aug.helping.writes"));
      m "explore.prefixes" "count" (per_pass prefixes);
      m "explore.executions" "count" (per_pass (d "explore.executions"));
      m "explore.execs_per_prefix" "ratio"
        (ratio (fact "explore.tree_executions") prefixes);
      m "explore.dedup_hits" "count" (per_pass (d "explore.dedup.hits"));
      m "explore.dedup_ratio" "ratio" (ratio (d "explore.dedup.hits") prefixes);
      m "explore.sleep_prunes" "count" (per_pass (d "explore.sleep.prunes"));
      m "explore.tasks" "count" (per_pass (d "explore.tasks"));
      (* steals need a second domain: read off the scaling passes *)
      m "explore.steal_ratio" "ratio"
        (ratio (count wide "explore.steals") (count wide "explore.tasks"));
      m "explore.judge_busy_pct" "%" (pct oracle_self);
      m "explore.engine_self_pct" "%" (pct engine_self);
      m "explore.scaling_2d" "x" (ratio (median plain.scaled) (median wide.scaled));
    ]
    @ List.concat_map
        (fun o ->
          let calls, _ = sp ("oracle." ^ o) in
          [
            m ("oracle." ^ o ^ ".calls") "count" (per_pass calls);
            m ("oracle." ^ o ^ ".us_per_call") "us/call"
              (us_per_call ("oracle." ^ o));
          ])
        oracle_names
    @ [
        m "faults.crash" "count" (per_pass (d "fiber.faults.crash"));
        m "faults.restart" "count" (per_pass (d "fiber.faults.restart"));
        m "sim.run.us_per_call" "us/call" (us_per_call "sim.run");
        m "sim.hops_per_run" "hops/run" (ratio hops sim_runs);
        m "sim.revisions_per_run" "count/run"
          (ratio (d "harness.sim.revisions.sum") (d "harness.runs"));
        m "analysis.us_per_call" "us/call" (us_per_call "analysis");
        m "analysis.hidden_steps_per_run" "steps/run"
          (ratio (fact "analysis.hidden_steps") analysis_calls);
        m "augspec.us_per_call" "us/call" (us_per_call "augspec");
        m "validate.us_per_call" "us/call" (us_per_call "validate");
        m "hunt.job_p50_ms" "ms/job"
          (if w.W.name = "hunt" then percentile 0.5 tr.jobs else 0.);
        m "shrink.ms_per_call" "ms/call" (ratio shrink_self shrink_calls /. 1e6);
        m "shrink.attempts" "count" (per_pass (d "explore.shrink.attempts"));
        m "shrink.in_steps" "count" (per_pass (fact "shrink.in_steps"));
        m "shrink.out_steps" "count" (per_pass (fact "shrink.out_steps"));
        m "artifact.us_per_call" "us/call" (us_per_call "artifact");
        m "replay.us_per_call" "us/call" (us_per_call "replay");
        m "self.bench_pct" "%" (pct (snd (sp "pass")));
        m "self.shrink_pct" "%" (pct shrink_self);
        m "self.artifact_pct" "%" (pct (snd (sp "artifact")));
        m "self.replay_pct" "%" (pct (snd (sp "replay")));
        m "self.sim_run_pct" "%" (pct sim_self);
        m "self.analysis_pct" "%" (pct (snd (sp "analysis")));
        m "self.validate_pct" "%" (pct (snd (sp "validate")));
        m "self.augspec_pct" "%" (pct (snd (sp "augspec")));
        m "obs.trace_overhead" "x" (ratio (median tr.scaled) (median plain.scaled));
      ]
  in
  (items, wrong, metrics)

let () =
  let args = parse_args () in
  let w =
    match List.find_opt (fun (w : W.t) -> w.W.name = args.workload) W.all with
    | Some w -> w
    | None ->
      die "unknown workload %S (expected one of: %s)" args.workload
        (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all))
  in
  (* The measured and traced passes run on one domain: on a small shared
     host, two domains on two processors feel every neighbour, and the
     run-to-run spread doubles. The traced run measures the scaling to
     [parallel] domains, never more than the machine has processors. *)
  let parallel = max 1 (min 2 (Domain.recommended_domain_count ())) in
  if args.worker then
    worker w
      {
        W.seed = args.seed;
        domains = max 1 (min parallel args.domains);
        traced = args.trace;
      }
      ~first:args.first ~passes:args.passes ~budget_ms:args.budget_ms
  else begin
    Printf.printf "perfbench %s: seed %d, %.0f s, trace %b\n%!" w.W.name
      args.seed args.seconds args.trace;
    if w.W.name = "sweep-faults" then
      Printf.printf "  fault profile %s\n%!" W.sweep_profile;
    let seed = args.seed and seconds = args.seconds in
    let attempted, failed, metrics =
      if args.trace then traced w ~seed ~parallel ~seconds
      else untraced w ~seed ~seconds
    in
    print_result ~attempted ~failed metrics;
    if failed > 0 then exit 1
  end
