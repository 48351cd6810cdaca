(* rsim — command-line interface to the revisionist-simulation library. *)

open Core
open Cmdliner
module Log = Obs.Log

(* ---------------- shared observability options ---------------- *)

let metrics_arg =
  Arg.(
    value
    & opt (some (enum [ ("json", `Json); ("pretty", `Pretty) ])) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Print run telemetry before exiting: $(b,json) emits one compact \
           JSON object as the final stdout line (machine-extractable even \
           when mixed with regular output); $(b,pretty) prints a readable \
           dump of every non-zero metric.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record the run as a Chrome trace_event file — open it in \
           chrome://tracing or Perfetto (ui.perfetto.dev). If $(docv) ends \
           in .jsonl, compact JSONL (one event per line) is written instead.")

let obs_start ~trace_out = if trace_out <> None then Obs.Trace.start ()

(* Flush observability outputs. Runs after all of a command's regular
   output, so a [--metrics json] dump is always the last stdout line. *)
let obs_finish ~metrics ~trace_out =
  (match trace_out with
  | None -> ()
  | Some path ->
    Obs.Trace.stop ();
    Obs.Trace.write ~path ();
    Log.info (fun k -> k "trace: %d events -> %s" (Obs.Trace.length ()) path));
  match metrics with
  | None -> ()
  | Some `Pretty -> Format.printf "%a@?" Obs.Metrics.pp ()
  | Some `Json -> print_endline (Obs.Json.to_string (Obs.Metrics.to_json ()))

(* ---------------- bounds ---------------- *)

let bounds_cmd =
  let table =
    Arg.(
      value
      & opt (enum [ ("kset", `Kset); ("approx", `Approx); ("headline", `Headline) ]) `Headline
      & info [ "table" ] ~doc:"Which table: kset, approx, or headline.")
  in
  let ns =
    Arg.(value & opt (list int) [ 8; 16; 32 ] & info [ "n" ] ~doc:"Values of n.")
  in
  let run table ns =
    let fmt = Format.std_formatter in
    (match table with
    | `Kset ->
      Tables.print_kset fmt (Tables.kset_rows ~ns ~ks:[ 1; 2; 4; 7 ] ~xs:[ 1; 2; 4 ])
    | `Approx ->
      Tables.print_approx fmt
        (Tables.approx_rows ~ns ~epss:[ 0.1; 1e-3; 1e-6; 1e-12; 1e-24 ])
    | `Headline -> Tables.print_headline fmt ~ns);
    Format.pp_print_flush fmt ()
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the paper's lower/upper bound tables (Corollaries 33-34).")
    Term.(const run $ table $ ns)

(* ---------------- simulate ---------------- *)

let simulate_cmd =
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Simulated processes.") in
  let m = Arg.(value & opt int 2 & info [ "m" ] ~doc:"Snapshot components.") in
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Simulators.") in
  let d = Arg.(value & opt int 0 & info [ "d" ] ~doc:"Direct simulators (the paper's x).") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scheduler seed.") in
  let arch = Arg.(value & flag & info [ "show-architecture" ] ~doc:"Print Figure 1 for this spec.") in
  let check = Arg.(value & flag & info [ "check" ] ~doc:"Run the Aug spec checker and the Lemma 26 replay.") in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the full run: M-operations, journals, revisions.") in
  let run n m f d seed arch check trace metrics trace_out =
    (match Harness.check_shape ~n ~m ~f ~d with
    | Ok () -> ()
    | Error e ->
      Log.err (fun k -> k "simulate: %s" e);
      exit 2);
    obs_start ~trace_out;
    let spec = Explore.Harness_target.racing_spec ~n ~m ~f ~d in
    if arch then print_string (Harness.architecture spec);
    let result = Harness.run ~sched:(Schedule.random ~seed) spec in
    Printf.printf "wait-free: %b   H-operations: %d\n" result.Harness.all_done
      result.Harness.total_ops;
    List.iter
      (fun (i, v) -> Printf.printf "simulator q%d output %s\n" i (Value.show v))
      result.Harness.outputs;
    (match Harness.validate spec result ~task:Task.consensus with
    | Ok () -> print_endline "consensus: valid"
    | Error e -> Printf.printf "consensus: VIOLATED (%s)\n" (Harness.explain e));
    if trace then Trace_pp.pp_run Format.std_formatter spec result;
    let checks_ok =
      if not check then true
      else
        let aug_rep = Aug_spec.report result.Harness.index in
        Format.printf "augmented-snapshot spec: %s@."
          (if aug_rep.Aug_spec.ok then "all lemmas hold" else "FAILED");
        if not aug_rep.Aug_spec.ok then
          Format.printf "%a@." Aug_spec.pp_report aug_rep;
        let rep = Analysis.check spec result in
        Format.printf
          "Lemma 26 replay: %s (lin=%d revisions=%d hidden steps=%d)@."
          (if rep.Analysis.ok then "execution reconstructed and replayed"
           else "FAILED")
          rep.Analysis.stats.Analysis.n_lin_items
          rep.Analysis.stats.Analysis.n_revisions
          rep.Analysis.stats.Analysis.n_hidden_steps;
        if not rep.Analysis.ok then Format.printf "%a@." Analysis.pp_report rep;
        aug_rep.Aug_spec.ok && rep.Analysis.ok
    in
    obs_finish ~metrics ~trace_out;
    if not checks_ok then exit 1
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the revisionist simulation of racing consensus (Theorem 21's construction)."
       ~exits:
         [
           Cmd.Exit.info 0
             ~doc:
               "the run finished and, with $(b,--check), both checkers passed. \
                A consensus violation still exits 0: Corollary 33 predicts \
                one when m < n.";
           Cmd.Exit.info 1
             ~doc:
               "with $(b,--check): the augmented-snapshot spec or the Lemma 26 \
                replay failed.";
           Cmd.Exit.info 2
             ~doc:
               "the shape is invalid: it needs f >= 1, 0 <= d <= f, m >= 1 \
                and (f-d)*m + d <= n.";
           Cmd.Exit.info Cmd.Exit.cli_error ~doc:"command-line parse error.";
         ])
    Term.(
      const run $ n $ m $ f $ d $ seed $ arch $ check $ trace $ metrics_arg
      $ trace_out_arg)

(* ---------------- witness ---------------- *)

let witness_cmd =
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Simulated processes.") in
  let m = Arg.(value & opt int 2 & info [ "m" ] ~doc:"Snapshot components.") in
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Simulators.") in
  let d = Arg.(value & opt int 0 & info [ "d" ] ~doc:"Direct simulators.") in
  let seeds = Arg.(value & opt int 200 & info [ "seeds" ] ~doc:"Schedules to search.") in
  let run n m f d seeds =
    (match Harness.check_shape ~n ~m ~f ~d with
    | Ok () -> ()
    | Error e ->
      Log.err (fun k -> k "witness: %s" e);
      exit 2);
    let bound = Lower.consensus ~n in
    Printf.printf "Corollary 33: consensus among n=%d needs >= %d registers; trying m=%d.\n"
      n bound m;
    let found = ref 0 in
    let first = ref None in
    for seed = 0 to seeds - 1 do
      let spec = Explore.Harness_target.racing_spec ~n ~m ~f ~d in
      let result = Harness.run ~sched:(Schedule.random ~seed) spec in
      match Harness.validate spec result ~task:Task.consensus with
      | Error _ when result.Harness.all_done ->
        incr found;
        if !first = None then first := Some seed
      | _ -> ()
    done;
    (match !first with
    | Some s ->
      Printf.printf
        "violations in %d/%d schedules (first seed %d): the simulation drives the\n\
         under-provisioned protocol to disagreement, as the reduction predicts.\n"
        !found seeds s
    | None ->
      Printf.printf "no violation in %d schedules (space is sufficient here).\n" seeds)
  in
  Cmd.v
    (Cmd.info "witness"
       ~doc:"Search schedules for the disagreement the space lower bound predicts."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"the search ran, whether or not it found a violation.";
           Cmd.Exit.info 2
             ~doc:
               "the shape is invalid: it needs f >= 1, 0 <= d <= f, m >= 1 \
                and (f-d)*m + d <= n.";
           Cmd.Exit.info Cmd.Exit.cli_error ~doc:"command-line parse error.";
         ])
    Term.(const run $ n $ m $ f $ d $ seeds)

(* ---------------- derand ---------------- *)

let derand_cmd =
  let proto =
    Arg.(
      value
      & opt (enum [ ("coin", `Coin); ("ticket", `Ticket) ]) `Coin
      & info [ "protocol" ] ~doc:"Which nondeterministic protocol: coin or ticket.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scheduler seed.") in
  let run proto seed =
    match proto with
    | `Coin ->
      let procs =
        [
          Derandomize.convert (Nd_examples.coin_consensus ~me:0 ()) ~cap:10_000
            ~input:(Value.Int 1);
          Derandomize.convert (Nd_examples.coin_consensus ~me:1 ()) ~cap:10_000
            ~input:(Value.Int 2);
        ]
      in
      let c = Mrun.init procs in
      Printf.printf "initial shortest solo paths: %s\n"
        (String.concat ", "
           (List.map
              (fun pid ->
                match Derandomize.solo_distance (Mrun.proc c pid) with
                | Some d -> Printf.sprintf "p%d: %d" pid d
                | None -> Printf.sprintf "p%d: none" pid)
              [ 0; 1 ]));
      let c', outcome = Mrun.run ~max_steps:500 ~sched:(Schedule.random ~seed) c in
      Printf.printf "outcome: %s\n"
        (match outcome with
        | Mrun.All_done -> "all decided"
        | Mrun.Step_limit -> "step limit (lockstep livelock; OF still holds solo)"
        | Mrun.Schedule_exhausted -> "schedule exhausted");
      List.iter
        (fun (pid, v) -> Printf.printf "p%d decided %s\n" pid (Value.show v))
        (Mrun.outputs c')
    | `Ticket ->
      let procs =
        List.init 3 (fun _ ->
            Derandomize.convert Nd_examples.ticket ~cap:10_000 ~input:(Value.Int 0))
      in
      let c = Mrun.init procs in
      let c', _ = Mrun.run ~sched:(Schedule.random ~seed) c in
      List.iter
        (fun (pid, v) -> Printf.printf "p%d got ticket %s\n" pid (Value.show v))
        (Mrun.outputs c')
  in
  Cmd.v
    (Cmd.info "derand"
       ~doc:"Derandomize a nondeterministic solo-terminating protocol (Theorem 35) and run it.")
    Term.(const run $ proto $ seed)

(* ---------------- sperner ---------------- *)

let sperner_cmd =
  let scale = Arg.(value & opt int 8 & info [ "s"; "scale" ] ~doc:"Subdivision scale.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Coloring seed.") in
  let run scale seed =
    let coloring = Sperner.random_coloring ~s:scale ~seed in
    let tri = Sperner.trichromatic ~s:scale ~coloring in
    Printf.printf
      "random Sperner coloring at scale %d: %d trichromatic cells (odd, per the lemma)\n"
      scale (List.length tri);
    (match Sperner.find_by_walk ~s:scale ~coloring with
    | Some ((a1, a2), (b1, b2), (c1, c2)) ->
      Printf.printf "door-to-door walk found {(%d,%d) (%d,%d) (%d,%d)}\n" a1 a2
        b1 b2 c1 c2
    | None -> print_endline "walk failed (invalid coloring?)");
    (* render the coloring as a triangle of digits *)
    for k = scale downto 0 do
      print_string (String.make k ' ');
      for i = 0 to scale - k do
        let j = scale - k - i in
        Printf.printf "%d " (coloring (i, j))
      done;
      print_newline ()
    done
  in
  Cmd.v
    (Cmd.info "sperner"
       ~doc:"Sperner's lemma demo: the combinatorial core of the reduction's target.")
    Term.(const run $ scale $ seed)

(* ---------------- explore ---------------- *)

let print_violation i (v : Explore.violation) =
  Printf.printf "violation %d:\n" (i + 1);
  Printf.printf "  original (%d steps): [%s]\n"
    (List.length v.Explore.original)
    (String.concat "; " (List.map string_of_int v.Explore.original));
  Printf.printf "  shrunk   (%d steps): [%s]\n"
    (List.length v.Explore.script)
    (String.concat "; " (List.map string_of_int v.Explore.script));
  List.iter (fun e -> Printf.printf "  - %s\n" e) v.Explore.errors

let save_violations ~out ~workload ~max_steps violations =
  match out with
  | None -> ()
  | Some path ->
    List.iteri
      (fun i v ->
        let path =
          if i = 0 then path else Printf.sprintf "%s.%d" path (i + 1)
        in
        Artifact.save ~path (Artifact.of_violation ~workload ~max_steps v);
        Printf.printf "artifact saved to %s (replay with: rsim replay %s)\n"
          path path)
      violations

let build_workload ~workload ~f ~m ~n ~d ~inject ~faults ~seed =
  let faults =
    (* a named family (crashy, ...) draws its specs from (f, seed), so
       the same command line always injects the same faults; an f < 1
       is refused by the decoder *)
    match faults with
    | None -> Ok []
    | Some s -> Faults.resolve ~n_procs:(max f 0) ~seed s
  in
  Result.bind faults (fun faults ->
      Explore.build_workload ~name:workload
        ~params:[ ("n", n); ("m", m); ("f", f); ("d", d) ]
        ?inject ~faults ())

(* Engine bounds a run cannot honour. Each would read as a pass: a
   negative step or preemption bound and an empty sweep explore
   nothing, and an engine that may keep no violation stops at the first
   one and drops it. *)
let check_bounds ~mode ~max_steps ~preemption_bound ~budget ~max_violations =
  let below flag lo v =
    Error (Printf.sprintf "%s must be >= %d (got %d)" flag lo v)
  in
  match preemption_bound with
  | Some b when b < 0 -> below "--preemption-bound" 0 b
  | Some _ | None ->
    if max_steps < 0 then below "--max-steps" 0 max_steps
    else if max_violations < 1 then below "--max-violations" 1 max_violations
    else if mode = `Sweep && budget < 1 then below "--budget" 1 budget
    else Ok ()

let explore_cmd =
  let workload =
    Arg.(
      value
      & opt string "bu-conflict"
      & info [ "workload" ]
          ~doc:
            "Workload to explore: bu-conflict, bu-scan, bu-then-scan, mixed \
             (augmented snapshot), or racing (full simulation).")
  in
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Processes / simulators.") in
  let m = Arg.(value & opt int 2 & info [ "m" ] ~doc:"Snapshot components.") in
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Simulated processes (racing only).") in
  let d = Arg.(value & opt int 0 & info [ "d" ] ~doc:"Direct simulators (racing only).") in
  let mode =
    Arg.(
      value
      & opt (enum [ ("exhaustive", `Exhaustive); ("sweep", `Sweep) ]) `Exhaustive
      & info [ "mode" ]
          ~doc:"exhaustive: DFS over all schedules; sweep: parallel randomized.")
  in
  let max_steps =
    Arg.(
      value & opt int 0
      & info [ "max-steps" ]
          ~doc:"Step bound per execution (0 = 12 for exhaustive, 200 for sweep).")
  in
  let preemption_bound =
    Arg.(
      value
      & opt (some int) None
      & info [ "preemption-bound" ]
          ~doc:"Only explore schedules with at most this many preemptions.")
  in
  let budget =
    Arg.(value & opt int 2000 & info [ "budget" ] ~doc:"Sweep: schedules to run.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ]
          ~doc:"Parallel domains for both modes (default: auto).")
  in
  let no_dedup =
    Arg.(
      value & flag
      & info [ "no-dedup" ]
          ~doc:
            "Exhaustive: disable state-fingerprint deduplication and explore \
             the literal schedule tree (the default under \
             --preemption-bound or --faults).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Sweep: base seed.") in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ]
          ~doc:
            "Seed a bug: skip-yield-check, yield-on-higher or spin-on-yield.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"PROFILE"
          ~doc:
            "Fault-plane profile: a named family (crashy, restarting, chaos — \
             drawn deterministically from --f and --seed) or a literal \
             profile like 'crash@1:3,restart@0:2+4'. Crashed processes lose \
             their local state; shared memory persists.")
  in
  let max_violations =
    Arg.(
      value & opt int 1
      & info [ "max-violations" ] ~doc:"Stop after this many distinct counterexamples.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH" ~doc:"Save counterexample artifacts here.")
  in
  let run workload f m n d mode max_steps preemption_bound budget domains
      no_dedup seed inject faults max_violations out
      metrics trace_out =
    match
      Result.bind
        (check_bounds ~mode ~max_steps ~preemption_bound ~budget
           ~max_violations)
        (fun () -> build_workload ~workload ~f ~m ~n ~d ~inject ~faults ~seed)
    with
    | Error e ->
      Log.err (fun k -> k "explore: %s" e);
      exit 2
    | Ok w ->
      obs_start ~trace_out;
      (match w.Explore.faults with
      | None -> ()
      | Some profile -> Printf.printf "fault profile: %s\n" profile);
      let violations =
        match mode with
        | `Exhaustive ->
          let max_steps = if max_steps = 0 then 12 else max_steps in
          let rep =
            Explore.exhaustive ~max_steps ?preemption_bound ~max_violations
              ?domains
              ?dedup:(if no_dedup then Some false else None)
              w
          in
          Printf.printf
            "exhaustive %s: %d prefixes, %d complete + %d truncated executions \
             (max %d steps%s) on %d domains; %d dedup cuts\n"
            w.Explore.name rep.Explore.prefixes rep.Explore.complete
            rep.Explore.truncated max_steps
            (match preemption_bound with
            | None -> ""
            | Some b -> Printf.sprintf ", <= %d preemptions" b)
            rep.Explore.domains rep.Explore.dedup_hits;
          List.iteri print_violation rep.Explore.violations;
          save_violations ~out ~workload:w ~max_steps rep.Explore.violations;
          if rep.Explore.violations = [] then
            print_endline
              "no violations: every explored schedule satisfies the oracles";
          rep.Explore.violations
        | `Sweep ->
          let max_steps = if max_steps = 0 then 200 else max_steps in
          let rep =
            Explore.sweep ?domains ~max_steps ~max_violations ~budget ~seed w
          in
          Printf.printf "sweep %s: %d executions on %d domains (max %d steps)\n"
            w.Explore.name rep.Explore.executions rep.Explore.domains max_steps;
          List.iteri print_violation rep.Explore.violations;
          save_violations ~out ~workload:w ~max_steps rep.Explore.violations;
          if rep.Explore.violations = [] then print_endline "no violations found";
          rep.Explore.violations
      in
      obs_finish ~metrics ~trace_out;
      if violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Model-check a workload over schedules: exhaustive bounded DFS or \
          parallel randomized sweeps, with shrinking and replayable artifacts."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"no oracle violation was found.";
           Cmd.Exit.info 1 ~doc:"at least one violation was found.";
           Cmd.Exit.info 2
             ~doc:
               "the workload could not be built (unknown name, bad seeded bug \
                or fault profile, f or m below 1, a seeded bug on racing, or \
                a racing shape that Harness rejects, such as (f-d)*m + d > \
                n), or a bound is out of range (a negative --max-steps or \
                --preemption-bound, --max-violations below 1, or a sweep \
                --budget below 1).";
           Cmd.Exit.info Cmd.Exit.cli_error ~doc:"command-line parse error.";
         ])
    Term.(
      const run $ workload $ f $ m $ n $ d $ mode $ max_steps $ preemption_bound
      $ budget $ domains $ no_dedup $ seed $ inject
      $ faults $ max_violations $ out $ metrics_arg $ trace_out_arg)

(* ---------------- replay ---------------- *)

let replay_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ARTIFACT" ~doc:"Counterexample artifact (JSON).")
  in
  let run path metrics trace_out =
    match Artifact.load ~path with
    | Error e ->
      Log.err (fun k -> k "replay: %s" e);
      exit 2
    | Ok art -> (
      match Artifact.to_workload art with
      | Error e ->
        Log.err (fun k -> k "replay: %s" e);
        exit 2
      | Ok w ->
        obs_start ~trace_out;
        Printf.printf "replaying %s%s%s (%d-step script) from %s\n"
          art.Artifact.workload
          (match art.Artifact.inject with
          | None -> ""
          | Some s -> Printf.sprintf " [seeded bug: %s]" s)
          (match art.Artifact.faults with
          | None -> ""
          | Some s -> Printf.sprintf " [faults: %s]" s)
          (List.length art.Artifact.script)
          path;
        let out =
          Explore.replay w ~max_steps:art.Artifact.max_steps
            ~script:art.Artifact.script
        in
        let code =
          if out.Explore.errors = [] then begin
            print_endline "NOT reproduced: the script passes all oracles";
            1
          end
          else begin
            print_endline "reproduced:";
            List.iter (fun e -> Printf.printf "  - %s\n" e) out.Explore.errors;
            0
          end
        in
        obs_finish ~metrics ~trace_out;
        exit code)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run a saved counterexample artifact and confirm it still fails."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"the violation was reproduced.";
           Cmd.Exit.info 1 ~doc:"the script now passes all oracles.";
           Cmd.Exit.info 2
             ~doc:
               "the artifact cannot be read or rebuilt: missing file, \
                directory, unreadable permissions, malformed JSON, unknown \
                workload, bad fault profile, a shape that $(b,explore) \
                refuses, a newer schema version, or a script it cannot \
                run as written (max_steps below 1 or below the script's \
                length, a pid the workload does not have).";
           Cmd.Exit.info Cmd.Exit.cli_error ~doc:"command-line parse error.";
         ])
    Term.(const run $ path $ metrics_arg $ trace_out_arg)

(* ---------------- stats ---------------- *)

let stats_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ARTIFACT" ~doc:"Counterexample artifact (JSON).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("json", `Json); ("pretty", `Pretty) ]) `Pretty
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Telemetry format: $(b,pretty) (default) or $(b,json).")
  in
  let run path format trace_out =
    match Artifact.load ~path with
    | Error e ->
      Log.err (fun k -> k "stats: %s" e);
      exit 2
    | Ok art -> (
      match Artifact.to_workload art with
      | Error e ->
        Log.err (fun k -> k "stats: %s" e);
        exit 2
      | Ok w ->
        (* Telemetry for this run only: zero whatever start-up touched. *)
        Obs.Metrics.reset ();
        obs_start ~trace_out;
        let out =
          Explore.replay w ~max_steps:art.Artifact.max_steps
            ~script:art.Artifact.script
        in
        Printf.printf "%s: %s %s (%d-step script, %d oracle error(s))\n" path
          art.Artifact.workload
          (if out.Explore.errors = [] then "passes" else "reproduces")
          (List.length art.Artifact.script)
          (List.length out.Explore.errors);
        obs_finish ~metrics:(Some format) ~trace_out)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Re-run a saved artifact and print its telemetry: the metrics \
          registry after the run (counters, gauges, histograms) and, with \
          $(b,--trace-out), a Chrome trace of the execution. The oracle \
          verdict does not affect the exit code."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"telemetry was printed.";
           Cmd.Exit.info 2 ~doc:"the artifact cannot be read or rebuilt.";
           Cmd.Exit.info Cmd.Exit.cli_error ~doc:"command-line parse error.";
         ])
    Term.(const run $ path $ format $ trace_out_arg)

(* ---------------- lint ---------------- *)

let lint_cmd =
  let root =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Workspace root to scan (lib/, bin/, dev/ under it).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"PATH"
          ~doc:
            "Findings baseline; only findings not in it fail the run \
             (default: DIR/lint.baseline.json).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH" ~doc:"Write the JSON report here.")
  in
  let update =
    Arg.(
      value & flag
      & info [ "update-baseline" ]
          ~doc:"Rewrite the baseline to the current findings and exit 0.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Print baselined findings too, not only fresh ones.")
  in
  let run root baseline out update all =
    let bpath =
      match baseline with
      | Some p -> p
      | None -> Filename.concat root "lint.baseline.json"
    in
    let report = Lint.scan ~root () in
    match Lint.load_baseline ~path:bpath with
    | Error e ->
      Log.err (fun k -> k "lint: %s" e);
      exit 2
    | Ok base ->
      let fresh = Lint.fresh_against ~baseline:base report.Lint.findings in
      (match out with
      | None -> ()
      | Some p ->
        let oc = open_out p in
        output_string oc
          (Obs.Json.to_string_pretty
             (Lint.report_to_json ~tool:"rsim-lint" ~fresh report));
        output_string oc "\n";
        close_out oc);
      if update then begin
        let oc = open_out bpath in
        output_string oc
          (Lint.baseline_to_string ~previous:base report.Lint.findings);
        close_out oc;
        Printf.printf "baseline updated: %d findings\n"
          (List.length report.Lint.findings)
      end
      else begin
        Printf.printf
          "rsim-lint: %d files, %d findings (%d baselined, %d fresh)\n"
          report.Lint.files
          (List.length report.Lint.findings)
          (List.length report.Lint.findings - List.length fresh)
          (List.length fresh);
        List.iter
          (fun f -> Format.printf "%a@." Lint.pp_finding f)
          (if all then report.Lint.findings else fresh);
        if fresh <> [] then exit 1
      end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis of the workspace: shared-mutability discipline \
          (R1), no direct printing in libraries (R2), determinism of the \
          model-checked paths (R3), no partial functions on hot paths (R4), \
          interfaces everywhere (R5), and interfaces that hold only what \
          modules outside their library use (R6). Fails only on findings \
          not in the committed baseline."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"no fresh findings.";
           Cmd.Exit.info 1 ~doc:"at least one finding not in the baseline.";
           Cmd.Exit.info 2 ~doc:"the baseline file is unreadable.";
           Cmd.Exit.info Cmd.Exit.cli_error ~doc:"command-line parse error.";
         ])
    Term.(const run $ root $ baseline $ out $ update $ all)

(* ---------------- experiments ---------------- *)

let experiments_cmd =
  let id =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id (E1..E10); all if omitted.")
  in
  let run id =
    match id with
    | None -> Rsim_experiments.Experiments.print_all Format.std_formatter
    | Some id -> (
      match Rsim_experiments.Experiments.find id with
      | Some e ->
        Format.printf "=== %s — %s ===@." e.Rsim_experiments.Experiments.id
          e.Rsim_experiments.Experiments.title;
        List.iter print_endline (e.Rsim_experiments.Experiments.run ())
      | None ->
        Log.err (fun k -> k "unknown experiment: %s" id);
        exit 2)
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the EXPERIMENTS.md tables (E1..E10).")
    Term.(const run $ id)

let main_cmd =
  let doc = "Revisionist simulations: executable space-lower-bound machinery (PODC 2018)." in
  Cmd.group
    (Cmd.info "rsim" ~version:Core.version ~doc)
    [
      bounds_cmd;
      simulate_cmd;
      witness_cmd;
      derand_cmd;
      sperner_cmd;
      explore_cmd;
      replay_cmd;
      stats_cmd;
      lint_cmd;
      experiments_cmd;
    ]

let () =
  (* All diagnostics go through the observability plane's logger:
     errors-only by default, RSIM_LOG=debug|info|warn|error|quiet
     overrides, always on stderr so machine-readable stdout stays
     clean. *)
  Obs.Log.init_from_env ();
  exit (Cmd.eval main_cmd)
