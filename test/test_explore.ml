open Rsim_value
open Rsim_shmem
open Rsim_augmented
open Rsim_explore

module Faults = Rsim_faults.Faults
module Harness = Rsim_simulation.Harness
module Obs = Rsim_obs.Obs

let get_builtin ?inject ?faults ?oracles name ~f ~m =
  match Explore.Aug_target.builtin ?inject ?faults ?oracles ~name ~f ~m () with
  | Some w -> w
  | None -> Alcotest.failf "unknown builtin workload %s" name

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let any_error ~sub (errors : string list) = List.exists (contains ~sub) errors

(* ---- exhaustive: Theorem 20 over ALL schedules ---- *)

let test_theorem20_exhaustive () =
  (* The acceptance check of the explorer: every schedule of two
     conflicting Block-Updates (f=2, m=2) up to 10 steps satisfies the
     full §3 spec — in particular Theorem 20: process 0 never yields. *)
  let w = get_builtin "bu-conflict" ~f:2 ~m:2 in
  (* Pruning off: this test is about enumerating the literal full space,
     so the coverage thresholds below count every interleaving. *)
  let rep = Explore.exhaustive ~max_steps:10 ~dedup:false w in
  Alcotest.(check (list (list int)))
    "no violations over all schedules" []
    (List.map (fun v -> v.Explore.script) rep.Explore.violations);
  Alcotest.(check bool)
    (Printf.sprintf "substantial coverage (%d executions, %d prefixes)"
       (rep.Explore.complete + rep.Explore.truncated)
       rep.Explore.prefixes)
    true
    (rep.Explore.complete + rep.Explore.truncated >= 500
    && rep.Explore.prefixes >= 1000)

let test_exhaustive_completes_at_12 () =
  (* At 12 steps both Block-Updates can finish (6 H-operations each), so
     the DFS must report complete executions — still violation-free. *)
  let w = get_builtin "bu-conflict" ~f:2 ~m:2 in
  let rep = Explore.exhaustive ~max_steps:12 w in
  Alcotest.(check int) "no violations" 0 (List.length rep.Explore.violations);
  Alcotest.(check bool) "some executions complete" true (rep.Explore.complete > 0)

let test_preemption_bound () =
  (* Context bounding: bound 0 explores only non-preemptive schedules, a
     tiny violation-free fragment of the full space. *)
  let w = get_builtin "bu-conflict" ~f:2 ~m:2 in
  let full = Explore.exhaustive ~max_steps:12 w in
  let np = Explore.exhaustive ~max_steps:12 ~preemption_bound:0 w in
  Alcotest.(check int) "no violations" 0 (List.length np.Explore.violations);
  Alcotest.(check bool) "bound-0 explores something" true (np.Explore.complete > 0);
  Alcotest.(check bool)
    (Printf.sprintf "bound 0 is a strict fragment (%d < %d prefixes)"
       np.Explore.prefixes full.Explore.prefixes)
    true
    (np.Explore.prefixes < full.Explore.prefixes)

(* ---- seeded bugs: the checker must catch, shrink, persist, replay ---- *)

let test_seeded_yield_on_higher () =
  (* Mutating Line 9 of Algorithm 4 to yield on HIGHER-identifier
     updates breaks Theorem 20 (process 0 now yields). The explorer must
     catch it, and the shrunk counterexample must be 1-minimal: removing
     any single step makes the script pass again. *)
  (* Judged by the Theorem 20 oracle alone: the injected bug also breaks
     the window lemmas, and which counterexample surfaces first depends
     on the engine's merge order. Pruning stays on (defaults): this test
     doubles as dedup-soundness evidence for the seeded bug. *)
  let w =
    get_builtin ~inject:Aug.Yield_on_higher
      ~oracles:[ Explore.Aug_target.theorem20 ]
      "bu-conflict" ~f:2 ~m:2
  in
  let rep = Explore.exhaustive ~max_steps:12 w in
  match rep.Explore.violations with
  | [] -> Alcotest.fail "seeded yield-on-higher bug was not caught"
  | v :: _ ->
    Alcotest.(check bool) "errors blame Theorem 20" true
      (any_error ~sub:"Theorem 20" v.Explore.errors
      || any_error ~sub:"theorem20" v.Explore.errors);
    Alcotest.(check bool) "shrunk no longer than original" true
      (List.length v.Explore.script <= List.length v.Explore.original);
    let replayed = Explore.replay w ~max_steps:12 ~script:v.Explore.script in
    Alcotest.(check bool) "shrunk script still fails" true
      (replayed.Explore.errors <> []);
    List.iteri
      (fun i _ ->
        let script = List.filteri (fun j _ -> j <> i) v.Explore.script in
        let out = Explore.replay w ~max_steps:12 ~script in
        Alcotest.(check (list string))
          (Printf.sprintf "dropping step %d makes it pass (1-minimal)" i)
          [] out.Explore.errors)
      v.Explore.script

let test_seeded_bug_artifact_roundtrip () =
  (* The full pipeline of the issue's acceptance criterion: catch the
     seeded bug, persist the shrunk counterexample as a JSON artifact,
     reload it from disk, rebuild the workload (including the injected
     fault), and reproduce the violation from the artifact alone. *)
  let w =
    get_builtin ~inject:Aug.Yield_on_higher
      ~oracles:[ Explore.Aug_target.theorem20 ]
      "bu-conflict" ~f:2 ~m:2
  in
  let rep = Explore.exhaustive ~max_steps:12 w in
  match rep.Explore.violations with
  | [] -> Alcotest.fail "seeded bug not caught"
  | v :: _ -> (
    let art = Artifact.of_violation ~workload:w ~max_steps:12 v in
    let path = Filename.temp_file "rsim-cex" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Artifact.save ~path art;
        match Artifact.load ~path with
        | Error e -> Alcotest.failf "artifact failed to load: %s" e
        | Ok art' -> (
          Alcotest.(check (list int)) "script survives the round trip"
            art.Artifact.script art'.Artifact.script;
          Alcotest.(check (option string)) "fault survives the round trip"
            (Some "yield-on-higher") art'.Artifact.inject;
          match Artifact.to_workload art' with
          | Error e -> Alcotest.failf "artifact failed to rebuild: %s" e
          | Ok w' ->
            let out =
              Explore.replay w' ~max_steps:art'.Artifact.max_steps
                ~script:art'.Artifact.script
            in
            Alcotest.(check bool) "replay from artifact reproduces" true
              (out.Explore.errors <> []);
            Alcotest.(check bool) "replay blames Theorem 20" true
              (any_error ~sub:"Theorem 20" out.Explore.errors
              || any_error ~sub:"theorem20" out.Explore.errors))))

let test_seeded_skip_yield_check () =
  (* Skipping Line 9 entirely lets a Block-Update return a stale view
     under contention; the window lemmas (16-19) or Lemma 11 must flag
     it once both conflicting Block-Updates can complete (12 steps). *)
  let w = get_builtin ~inject:Aug.Skip_yield_check "bu-conflict" ~f:2 ~m:2 in
  let rep = Explore.exhaustive ~max_steps:12 w in
  match rep.Explore.violations with
  | [] -> Alcotest.fail "seeded skip-yield-check bug was not caught"
  | v :: _ ->
    Alcotest.(check bool) "errors blame a lemma" true
      (any_error ~sub:"Lemma" v.Explore.errors)

let test_json_roundtrip_is_identity () =
  let art =
    {
      Artifact.version = Artifact.current_version;
      workload = "bu-scan";
      params = [ ("f", 3); ("m", 2) ];
      inject = None;
      faults = Some "crash@1:3,stall@0:2*4";
      max_steps = 40;
      errors = [ "spec: \"quoted\" error\nwith a newline"; "plain" ];
      original = [ 0; 1; 2; 1; 0 ];
      script = [ 1; 0 ];
    }
  in
  match Artifact.of_json (Artifact.to_json art) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok art' ->
    Alcotest.(check bool) "write/parse is the identity" true (art = art')

(* ---- parallel randomized sweeps ---- *)

let test_sweep_clean () =
  let w = get_builtin "mixed" ~f:3 ~m:2 in
  let rep = Explore.sweep ~domains:2 ~max_steps:200 ~budget:200 ~seed:5 w in
  Alcotest.(check int) "no violations" 0 (List.length rep.Explore.violations);
  Alcotest.(check int) "whole budget executed" 200 rep.Explore.executions;
  Alcotest.(check int) "ran on 2 domains" 2 rep.Explore.domains

let test_sweep_finds_seeded_bug () =
  let w = get_builtin ~inject:Aug.Yield_on_higher "bu-conflict" ~f:3 ~m:2 in
  let rep = Explore.sweep ~domains:2 ~max_steps:100 ~budget:500 ~seed:1 w in
  match rep.Explore.violations with
  | [] -> Alcotest.fail "sweep missed the seeded bug"
  | v :: _ ->
    Alcotest.(check bool) "errors blame Theorem 20" true
      (any_error ~sub:"Theorem 20" v.Explore.errors
      || any_error ~sub:"theorem20" v.Explore.errors);
    let out = Explore.replay w ~max_steps:100 ~script:v.Explore.script in
    Alcotest.(check bool) "shrunk sweep counterexample replays" true
      (out.Explore.errors <> [])

(* ---- crash faults: Corollary 15 for the survivors ---- *)

(* q1 starts a Block-Update of component 0 and crashes after
   [crash_after] H-operations (with_crashes removes it from the live
   set); q0 then Scans. Step 1 of the Block-Update is its Line-2 scan,
   step 2 the Line-4 append of the timestamped triples (the paper's X):
   crashing before X hides the update, crashing after exposes it. *)
let crash_run ~crash_after =
  let seen = ref [||] in
  let aug = Aug.create ~f:2 ~m:2 () in
  let sched =
    Schedule.with_crashes
      [ (1, crash_after) ]
      (Schedule.script (List.init 6 (fun _ -> 1) @ List.init 12 (fun _ -> 0)))
  in
  let result =
    let cfg = Aug.config aug in
    let open Aug.Prog in
    let r =
      start ~apply:(Aug.apply aug) ~emit:(Aug.record aug)
        [
          (let* v = Aug.scan_prog cfg ~me:0 in
           seen := v;
           return ());
          (let* _ = Aug.block_update_prog cfg ~me:1 [ (0, Value.Int 42) ] in
           return ());
        ]
    in
    run ~sched r;
    current r
  in
  Alcotest.(check bool) "q1 crashed mid-operation" true
    (result.Aug.Prog.statuses.(1) = Rsim_runtime.Prog.Pending);
  Alcotest.(check bool) "q0 survived" true
    (result.Aug.Prog.statuses.(0) = Rsim_runtime.Prog.Done);
  (aug, !seen)

let check_crash_spec name aug =
  (* The survivor's Scans must satisfy the spec — Corollary 15 in
     particular: every pair of views is comparable, later scans dominate
     earlier ones — even with a crashed Block-Update in the history. *)
  let report = Aug_spec.report (Aug.index aug) in
  if not report.Aug_spec.ok then
    Alcotest.failf "%s: spec violations on crashy run:@.%a" name
      Aug_spec.pp_report report

let test_crash_before_x () =
  let aug, seen = crash_run ~crash_after:1 in
  Alcotest.(check bool) "update invisible before X" true (Value.is_bot seen.(0));
  check_crash_spec "crash pre-X" aug;
  let spec, entries = Explore.mop_history aug (Aug.index aug) in
  Alcotest.(check bool) "pending update droppable: history linearizable" true
    (Linearize.check spec entries)

let test_crash_after_x () =
  let aug, seen = crash_run ~crash_after:2 in
  Alcotest.(check bool) "update visible after X" true
    (Value.equal seen.(0) (Value.Int 42));
  check_crash_spec "crash post-X" aug;
  let spec, entries = Explore.mop_history aug (Aug.index aug) in
  Alcotest.(check bool) "crashed Block-Update left a pending entry" true
    (List.exists (fun (e : _ Linearize.entry) -> e.Linearize.ret = None) entries);
  Alcotest.(check bool) "pending update takes effect: history linearizable" true
    (Linearize.check spec entries)

let test_crash_spec_across_cutoffs () =
  (* Crash q1 at every point of its Block-Update: the survivor's view of
     the world must satisfy the spec at each cutoff. *)
  for crash_after = 1 to 5 do
    let aug, _ = crash_run ~crash_after in
    check_crash_spec (Printf.sprintf "crash after %d" crash_after) aug
  done

(* ---- fault plane: injected crashes, drops, blocking bugs ---- *)

let test_exhaustive_crash_at_every_step () =
  (* The issue's acceptance criterion: exhaustive f=2 m=2 exploration
     with one injected crash at every possible (process, op-index) — the
     full spec, the progress oracle and the crash-robustness oracle must
     all stay green. A Block-Update is 6 H-operations, so every crash
     site is some [crash@pid:k] with k in 0..5. *)
  let total = ref 0 in
  for pid = 0 to 1 do
    for k = 0 to 5 do
      let faults = [ { Faults.pid; at_op = k; action = Faults.Crash } ] in
      let w =
        get_builtin ~faults
          ~oracles:
            Explore.Aug_target.(default_oracles @ [ crash_robust ])
          "bu-conflict" ~f:2 ~m:2
      in
      let rep = Explore.exhaustive ~max_steps:12 w in
      (match rep.Explore.violations with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "crash@%d:%d violates: %s" pid k
          (String.concat "; " v.Explore.errors));
      total := !total + rep.Explore.complete + rep.Explore.truncated
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "substantial coverage (%d executions)" !total)
    true (!total > 2_000)

let test_progress_catches_spin_on_yield () =
  (* Seeded blocking bug: [Spin_on_yield] makes the Block-Update busy-wait
     instead of yielding when a lower-identifier update intervenes — no
     safety oracle can see it (nothing wrong is ever written), only the
     progress oracle. On this script q1 scans Line 2, q0 appends its X,
     and q1 then spins forever. *)
  let w = get_builtin ~inject:Aug.Spin_on_yield "bu-conflict" ~f:2 ~m:2 in
  let script = [ 1; 0; 0 ] @ List.init 60 (fun _ -> 1) in
  let out = Explore.replay w ~max_steps:100 ~script in
  Alcotest.(check bool) "progress oracle fires" true
    (any_error ~sub:"progress" out.Explore.errors);
  Alcotest.(check bool) "blamed as blocking" true
    (any_error ~sub:"blocking" out.Explore.errors)

let test_sweep_finds_spin_on_yield () =
  (* The randomized sweep must find the blocking bug on its own, shrink
     it to a 1-minimal script, and the artifact must reproduce it. *)
  let w = get_builtin ~inject:Aug.Spin_on_yield "bu-conflict" ~f:2 ~m:2 in
  let rep = Explore.sweep ~domains:2 ~max_steps:120 ~budget:400 ~seed:3 w in
  match rep.Explore.violations with
  | [] -> Alcotest.fail "sweep missed the seeded blocking bug"
  | v :: _ ->
    Alcotest.(check bool) "errors blame progress" true
      (any_error ~sub:"progress" v.Explore.errors);
    List.iteri
      (fun i _ ->
        let script = List.filteri (fun j _ -> j <> i) v.Explore.script in
        let out = Explore.replay w ~max_steps:120 ~script in
        Alcotest.(check (list string))
          (Printf.sprintf "dropping step %d makes it pass (1-minimal)" i)
          [] out.Explore.errors)
      v.Explore.script;
    let art = Artifact.of_violation ~workload:w ~max_steps:120 v in
    let path = Filename.temp_file "rsim-spin" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Artifact.save ~path art;
        match Artifact.load ~path with
        | Error e -> Alcotest.failf "artifact failed to load: %s" e
        | Ok art' -> (
          Alcotest.(check (option string)) "inject survives the round trip"
            (Some "spin-on-yield") art'.Artifact.inject;
          match Artifact.to_workload art' with
          | Error e -> Alcotest.failf "artifact failed to rebuild: %s" e
          | Ok w' ->
            let out =
              Explore.replay w' ~max_steps:art'.Artifact.max_steps
                ~script:art'.Artifact.script
            in
            Alcotest.(check bool) "replay from artifact reproduces" true
              (any_error ~sub:"progress" out.Explore.errors)))

let test_dropped_helping_write_caught () =
  (* Seeded dropped-write fault: [drop@1:3] swallows q1's Line-7 helping
     append (its L-records) while q1 itself carries on none the wiser.
     Concurrent Block-Updates then disagree about the linearization
     window, which the window lemmas (18/19) flag. The counterexample
     must shrink 1-minimal, persist with its fault profile, and replay
     from the artifact alone. *)
  let faults =
    match Faults.of_string "drop@1:3" with
    | Ok fs -> fs
    | Error e -> Alcotest.failf "fault grammar rejected drop@1:3: %s" e
  in
  let w = get_builtin ~faults "bu-conflict" ~f:2 ~m:2 in
  let rep = Explore.exhaustive ~max_steps:14 w in
  match rep.Explore.violations with
  | [] -> Alcotest.fail "dropped helping write was not caught"
  | v :: _ ->
    Alcotest.(check bool) "errors blame a window lemma" true
      (any_error ~sub:"Lemma" v.Explore.errors);
    List.iteri
      (fun i _ ->
        let script = List.filteri (fun j _ -> j <> i) v.Explore.script in
        let out = Explore.replay w ~max_steps:14 ~script in
        Alcotest.(check (list string))
          (Printf.sprintf "dropping step %d makes it pass (1-minimal)" i)
          [] out.Explore.errors)
      v.Explore.script;
    let art = Artifact.of_violation ~workload:w ~max_steps:14 v in
    Alcotest.(check (option string)) "artifact carries the fault profile"
      (Some "drop@1:3") art.Artifact.faults;
    let path = Filename.temp_file "rsim-drop" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Artifact.save ~path art;
        match Artifact.load ~path with
        | Error e -> Alcotest.failf "artifact failed to load: %s" e
        | Ok art' -> (
          Alcotest.(check (option string)) "fault survives the round trip"
            (Some "drop@1:3") art'.Artifact.faults;
          match Artifact.to_workload art' with
          | Error e -> Alcotest.failf "artifact failed to rebuild: %s" e
          | Ok w' ->
            let out =
              Explore.replay w' ~max_steps:art'.Artifact.max_steps
                ~script:art'.Artifact.script
            in
            Alcotest.(check bool) "replay from artifact reproduces" true
              (any_error ~sub:"Lemma" out.Explore.errors)))

let test_racing_crashy_survivors () =
  (* Crash one simulator of the Theorem 21 simulation: with the
     survivors-only consensus oracle and the progress oracle the sweep
     must stay green — the crash model is survivable by design. *)
  let faults = Faults.resolve ~n_procs:2 ~seed:11 "crashy" in
  let faults =
    match faults with
    | Ok fs -> fs
    | Error e -> Alcotest.failf "crashy profile failed to resolve: %s" e
  in
  let w = Explore.Harness_target.racing ~faults ~n:4 ~m:2 ~f:2 ~d:0 () in
  let rep = Explore.sweep ~domains:2 ~max_steps:400 ~budget:60 ~seed:7 w in
  Alcotest.(check (list (list int)))
    "crashy racing sweep is violation-free" []
    (List.map (fun v -> v.Explore.script) rep.Explore.violations)

(* ---- artifact versioning ---- *)

let test_artifact_v1_backward_compat () =
  (* A pre-versioned (v1) artifact — no "version", no "faults" — must
     still load, as version 1 with an empty fault profile. *)
  let v1_json =
    {|{
  "workload": "bu-conflict",
  "params": {"f": 2, "m": 2},
  "inject": "yield-on-higher",
  "max_steps": 12,
  "errors": ["theorem20: process 0 yielded"],
  "original": [0, 1, 1, 0],
  "script": [0, 1]
}|}
  in
  match Artifact.of_json v1_json with
  | Error e -> Alcotest.failf "v1 artifact failed to load: %s" e
  | Ok art ->
    Alcotest.(check int) "read as version 1" 1 art.Artifact.version;
    Alcotest.(check (option string)) "no fault profile" None art.Artifact.faults;
    Alcotest.(check bool) "workload still rebuilds" true
      (Result.is_ok (Artifact.to_workload art))

let test_artifact_unsupported_version () =
  (* An artifact from a newer writer must be refused with a distinct
     error (the CLI turns this into exit code 2, not 1). *)
  let art =
    {
      Artifact.version = 99;
      workload = "bu-conflict";
      params = [ ("f", 2); ("m", 2) ];
      inject = None;
      faults = None;
      max_steps = 12;
      errors = [];
      original = [];
      script = [];
    }
  in
  match Artifact.of_json (Artifact.to_json art) with
  | Ok _ -> Alcotest.fail "version 99 artifact should not load"
  | Error e ->
    Alcotest.(check bool) "error names the unsupported version" true
      (contains ~sub:"unsupported artifact version" e)

let test_artifact_load_unreadable () =
  (* Unreadable paths must come back as [Error] (the CLI's exit 2), not
     as a raised exception: a directory... *)
  let dir = Filename.temp_file "rsim_artifact" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      match Artifact.load ~path:dir with
      | Ok _ -> Alcotest.fail "loading a directory should fail"
      | Error e ->
        Alcotest.(check bool) "error names the directory" true
          (contains ~sub:"is a directory" e));
  (* ... a missing file ... *)
  (match Artifact.load ~path:(Filename.concat dir "gone.json") with
  | Ok _ -> Alcotest.fail "loading a missing file should fail"
  | Error _ -> ());
  (* ... and malformed JSON. *)
  let bad = Filename.temp_file "rsim_artifact" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      let oc = open_out bad in
      output_string oc "{ not json";
      close_out oc;
      match Artifact.load ~path:bad with
      | Ok _ -> Alcotest.fail "malformed JSON should fail"
      | Error _ -> ())

(* A fault profile aimed at a pid the workload does not have would
   never fire, and a run would pass unfaulted: the decoder refuses it,
   for builtins and racing alike, and so does an artifact. *)
let test_fault_pids_checked () =
  let crash pid = [ { Faults.pid; at_op = 3; action = Faults.Crash } ] in
  let refused what name params faults =
    match Explore.build_workload ~name ~params ~faults () with
    | Ok _ -> Alcotest.failf "%s: built" what
    | Error e ->
      Alcotest.(check bool) (what ^ ": names the pid: " ^ e) true
        (contains ~sub:"is not one of the" e)
  in
  let builtin = [ ("f", 2); ("m", 2) ] in
  let racing = [ ("n", 4); ("m", 2); ("f", 2); ("d", 0) ] in
  refused "builtin, pid f" "bu-conflict" builtin (crash 2);
  refused "builtin, negative pid" "bu-conflict" builtin (crash (-1));
  refused "racing, pid f" "racing" racing (crash 2);
  refused "racing, negative pid" "racing" racing (crash (-1));
  Alcotest.(check bool) "pid f - 1 builds" true
    (Result.is_ok
       (Explore.build_workload ~name:"bu-conflict" ~params:builtin
          ~faults:(crash 1) ()));
  let art =
    {
      Artifact.version = 2;
      workload = "bu-conflict";
      params = builtin;
      inject = None;
      faults = Some "crash@0:1,crash@5:3";
      max_steps = 12;
      errors = [];
      original = [];
      script = [];
    }
  in
  match Artifact.to_workload art with
  | Ok _ -> Alcotest.fail "artifact with pid 5 of 2 rebuilt"
  | Error e ->
    Alcotest.(check bool) ("artifact refused: " ^ e) true
      (contains ~sub:"pid 5 is not one of the 2 processes" e)

(* ---- parallel engine: equivalence, dedup soundness, clamps ---- *)

let counts (r : Explore.exhaustive_report) =
  (r.Explore.complete, r.Explore.truncated, r.Explore.prefixes)

let scripts (r : Explore.exhaustive_report) =
  List.sort compare (List.map (fun v -> v.Explore.script) r.Explore.violations)

let clean_workload () = get_builtin "bu-conflict" ~f:2 ~m:2

let seeded_workload () =
  get_builtin ~inject:Aug.Yield_on_higher
    ~oracles:[ Explore.Aug_target.theorem20 ]
    "bu-conflict" ~f:2 ~m:2

let test_engine_matches_naive () =
  (* With pruning off and one domain the parallel engine must walk the
     exact tree the sequential DFS of [Explore_ref] walks: same complete
     and truncated counts, same prefix count, same violation set. The
     huge [max_violations] keeps both engines from stopping early, so the
     traversals are comparable. *)
  let ops = Obs.Metrics.counter "fiber.ops" in
  let hops f =
    let before = Obs.Metrics.counter_value ops in
    let r = f () in
    (r, Obs.Metrics.counter_value ops - before)
  in
  (* Returns the engine's prefix count and each engine's hops. *)
  let check name w =
    let naive, naive_hops =
      hops (fun () ->
          Explore_ref.exhaustive ~max_steps:9 ~max_violations:10_000 w)
    in
    let engine, engine_hops =
      hops (fun () ->
          Explore.exhaustive ~max_steps:9 ~max_violations:10_000 ~domains:1
            ~dedup:false w)
    in
    Alcotest.(check (triple int int int))
      (name ^ ": counts match naive") (counts naive) (counts engine);
    Alcotest.(check (list (list int)))
      (name ^ ": violation scripts match naive")
      (scripts naive) (scripts engine);
    (engine.Explore.prefixes, naive_hops, engine_hops)
  in
  (* The work each engine does, in hops (H-operations applied): the
     engine executes every tree edge once and replays no prefix, so it
     applies one hop per prefix below the root; the reference
     re-executes every prefix from the root and each leaf once more. *)
  let prefixes, naive_hops, engine_hops = check "clean" (clean_workload ()) in
  Alcotest.(check int)
    "clean: the engine applies one hop per tree edge" (prefixes - 1)
    engine_hops;
  Alcotest.(check bool)
    (Printf.sprintf
       "clean: the reference applies >= 4x the engine's hops (%d against %d)"
       naive_hops engine_hops)
    true
    (naive_hops >= 4 * engine_hops);
  ignore (check "seeded" (seeded_workload ()));
  (* simulations: a task restores the simulation state saved at its node *)
  ignore (check "racing" (Explore.Harness_target.racing ~n:2 ~m:1 ~f:2 ~d:0 ()))

let test_racing_tree_pinned () =
  (* The Corollary 33 witness tree, exhaustive under a preemption bound
     and with no early stop: each frontier task resumes the simulation
     saved at its node. The counts are pinned, so a change to the
     simulators, the runtime or the engine cannot move the tree
     silently. *)
  let r =
    Explore.exhaustive ~max_steps:80 ~preemption_bound:2
      ~max_violations:1_000_000 ~domains:2
      (Explore.Harness_target.racing ~n:4 ~m:2 ~f:2 ~d:0 ())
  in
  Alcotest.(check (list int))
    "prefixes, executions, complete, truncated, violations"
    [ 17831; 842; 842; 0; 11 ]
    [
      r.Explore.prefixes;
      r.Explore.executions;
      r.Explore.complete;
      r.Explore.truncated;
      List.length r.Explore.violations;
    ]

let test_domain_count_invariance () =
  (* Pruning off fixes the tree; the report must then be bit-identical
     at 1, 2 and 4 domains — counts and violation set both. *)
  let run w d =
    Explore.exhaustive ~max_steps:9 ~max_violations:10_000 ~domains:d
      ~dedup:false w
  in
  let invariant name w =
    let r1 = run w 1 in
    List.iter
      (fun d ->
        let r = run w d in
        Alcotest.(check (triple int int int))
          (Printf.sprintf "%s: counts at %d domains" name d)
          (counts r1) (counts r);
        Alcotest.(check (list (list int)))
          (Printf.sprintf "%s: violations at %d domains" name d)
          (scripts r1) (scripts r))
      [ 2; 4 ]
  in
  invariant "clean" (clean_workload ());
  invariant "seeded" (seeded_workload ())

let test_dedup_soundness () =
  (* State dedup may only cut redundant branches: the injected bug must
     still be caught with it on (the default), and the pruned tree must
     be domain-count invariant too (exactly one winner per claim key, so
     the cuts are deterministic). *)
  let run d = Explore.exhaustive ~max_steps:10 ~domains:d (seeded_workload ()) in
  let rep = run 1 in
  Alcotest.(check bool) "bug caught with pruning on" true
    (rep.Explore.violations <> []);
  Alcotest.(check bool)
    (Printf.sprintf "pruning actually fired (%d dedup hits, %d sleep prunes)"
       rep.Explore.dedup_hits rep.Explore.pruned)
    true
    (rep.Explore.dedup_hits > 0);
  List.iter
    (fun v ->
      Alcotest.(check bool) "blames Theorem 20" true
        (any_error ~sub:"theorem20" v.Explore.errors))
    rep.Explore.violations;
  let r4 = run 4 in
  Alcotest.(check (list (list int)))
    "pruned violation set invariant at 4 domains" (scripts rep) (scripts r4)

(* Seeded builds whose shortest counterexample the fingerprint dedup
   merges away at exactly that bound. Skip_yield_check's first violating
   schedule differs from a passing one only in the order of the Line-4
   appends of two Block-Updates. H is single-writer, so both
   orders reach the same state and are merged, but the order decides
   which Block-Update the §3 spec linearizes first. One bound later
   dedup catches the bug through a longer schedule. This is an open
   defect (ROADMAP); fixing it must empty this list. *)
let known_dedup_misses =
  [ ("bu-conflict", 2, 8); ("bu-then-scan", 3, 8); ("mixed", 2, 11) ]

let test_dedup_keeps_verdicts () =
  (* Every bound from the first at which a seeded bug can show (7 steps)
     up to 12 steps at f=2 and 8 at f=3: with dedup on, [exhaustive] must
     report a violation exactly when the literal tree has one, and the
     clean object must report none. One domain, because with dedup on
     the winner of a claim race decides which history represents a
     merged state, and so whether a known miss below is missed. *)
  let caught = ref 0 in
  List.iter
    (fun name ->
      List.iter
        (fun (f, bounds) ->
          List.iter
            (fun max_steps ->
              List.iter
                (fun inject ->
                  let w = get_builtin ?inject name ~f ~m:2 in
                  let found dedup =
                    (Explore.exhaustive ~max_steps ~domains:1 ~dedup w)
                      .Explore.violations <> []
                  in
                  let literal = found false and pruned = found true in
                  let label =
                    Printf.sprintf "%s f=%d %d steps %s" name f max_steps
                      (match inject with
                      | None -> "clean"
                      | Some b -> Explore.fault_to_string b)
                  in
                  if inject = None then
                    Alcotest.(check bool) (label ^ ": clean") false literal;
                  if literal then incr caught;
                  if
                    inject = Some Aug.Skip_yield_check
                    && List.mem (name, f, max_steps) known_dedup_misses
                  then begin
                    Alcotest.(check bool) (label ^ ": literal tree fails") true
                      literal;
                    Alcotest.(check bool) (label ^ ": known dedup miss") false
                      pruned
                  end
                  else
                    Alcotest.(check bool) (label ^ ": same verdict") literal
                      pruned)
                [ None; Some Aug.Yield_on_higher; Some Aug.Skip_yield_check ])
            bounds)
        [ (2, [ 7; 8; 9; 10; 11; 12 ]); (3, [ 7; 8 ]) ])
    [ "bu-conflict"; "bu-then-scan"; "mixed" ];
  Alcotest.(check bool)
    (Printf.sprintf "seeded bugs caught in the literal tree (%d builds)" !caught)
    true (!caught > 0);
  (* Under a preemption bound dedup is off by default; turned on
     explicitly, it must keep the verdicts on complete executions too. *)
  List.iter
    (fun inject ->
      let w = get_builtin ?inject "mixed" ~f:3 ~m:2 in
      let found dedup =
        (Explore.exhaustive ~max_steps:80 ~preemption_bound:1 ~domains:1
           ~dedup w)
          .Explore.violations <> []
      in
      let label =
        Printf.sprintf "mixed f=3 bound 1 %s"
          (match inject with
          | None -> "clean"
          | Some b -> Explore.fault_to_string b)
      in
      Alcotest.(check bool) (label ^ ": literal verdict") (inject <> None)
        (found false);
      Alcotest.(check bool) (label ^ ": same verdict with dedup") (inject <> None)
        (found true))
    [
      None;
      Some Aug.Yield_on_higher;
      Some Aug.Skip_yield_check;
      Some Aug.Spin_on_yield;
    ]

(* The walk order at one domain, pinned on the benchmark's six exhaustive
   hunt shapes: with an early stop at the first violation, the prefixes
   expanded, the executions run and the first violation's shrunk script
   all depend on the order in which tasks are taken, so a change to that
   order moves them. *)
let test_walk_order_pinned () =
  List.iter
    (fun (bug, name, f, m, max_steps, want) ->
      let w =
        get_builtin
          ?inject:(Explore.fault_of_string bug)
          ~oracles:Explore.Aug_target.default_oracles name ~f ~m
      in
      let r = Explore.exhaustive ~max_steps ~max_violations:1 ~domains:1 w in
      let script =
        match r.Explore.violations with
        | v :: _ -> String.concat "" (List.map string_of_int v.Explore.script)
        | [] -> "none"
      in
      Alcotest.(check (triple int int string))
        (Printf.sprintf "%s %s f=%d %d steps: prefixes, executions, script" bug
           name f max_steps)
        want
        (r.Explore.prefixes, r.Explore.executions, script))
    [
      ("yield-on-higher", "bu-conflict", 2, 2, 12, (25, 2, "10011111"));
      ("yield-on-higher", "mixed", 3, 2, 14, (5106, 3738, "1111222221"));
      ("yield-on-higher", "bu-then-scan", 3, 2, 14, (732, 447, "2020000"));
      ("skip-yield-check", "bu-conflict", 3, 2, 14, (29, 2, "10011111"));
      ( "skip-yield-check", "bu-then-scan", 2, 2, 14,
        (1787, 911, "100000011111") );
      ("skip-yield-check", "mixed", 3, 2, 11, (9327, 6745, "12222122222"));
    ]

(* A node resumes only in the workload that saved it: handed to an
   execution of another workload, of the other system or of the same
   one, restoring it raises [Invalid_argument] instead of misreading
   the state. *)
let test_foreign_node_refused () =
  let exec w decide =
    w.Explore.exec
      ~probe:(Some { Explore.decide; leaf = ignore })
      ~certify:false ~sched:Schedule.round_robin ~max_ops:20 ~check:false
  in
  let saved w =
    let node = ref None in
    ignore
      (exec w (fun pv ->
           node := Some (pv.Explore.save ());
           `Stop));
    Option.get !node
  in
  let refused w node =
    let first = ref true in
    match
      exec w (fun pv ->
          if !first then pv.Explore.restore node;
          first := false;
          `Continue)
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let racing = Explore.Harness_target.racing ~n:2 ~m:1 ~f:2 ~d:0 () in
  let builtin = clean_workload () in
  Alcotest.(check bool) "a racing node, restored by a builtin" true
    (refused builtin (saved racing));
  Alcotest.(check bool) "a builtin node, restored by racing" true
    (refused racing (saved builtin));
  Alcotest.(check bool) "a builtin node, restored by another builtin" true
    (refused (clean_workload ()) (saved builtin));
  Alcotest.(check bool) "a node, restored by its own workload" false
    (refused builtin (saved builtin))

(* ---- resuming saved states ---- *)

(* What a trace entry and a logged M-operation say, with every snapshot
   in it down to its triples and its L-records' headers: comparing
   snapshots structurally would walk the L-record payloads, which nest
   earlier snapshots, as a tree. *)
let snap_key (s : Hrep.snap) =
  Array.map
    (fun (c : Hrep.component) ->
      ( c.Hrep.triples,
        List.map
          (fun (r : Hrep.lrecord) -> (r.Hrep.dest, r.index, Hrep.counts r.payload))
          c.Hrep.lrecords ))
    s

let entry_key (e : Aug.Prog.trace_entry) =
  let op =
    match e.op with
    | Aug.Ops.Hscan -> snap_key [||]
    | Aug.Ops.Happend_triples ts -> [| (ts, []) |]
    | Aug.Ops.Happend_lrecords rs ->
      Array.of_list (List.map (fun (r : Hrep.lrecord) -> ([], [ (r.dest, r.index, Hrep.counts r.payload) ])) rs)
  in
  let res = match e.res with Aug.Ops.Snap s -> snap_key s | Aug.Ops.Ack -> [||] in
  (e.idx, e.pid, Aug.op_name e.op, op, res)

let mop_key = function
  | Aug.Scan_op { proc; start_idx; end_idx; n_ops; view; h } ->
    (proc, [ start_idx; end_idx; n_ops ], [], view, snap_key h, None)
  | Aug.Bu_op { proc; ts; updates; start_idx; x_idx; end_idx; n_ops; h; result } ->
    ( proc,
      [ start_idx; x_idx; end_idx; n_ops ],
      (Vts.show ts, updates) :: [],
      (match result with Aug.Atomic { view; _ } -> view | Aug.Yield -> [||]),
      snap_key h,
      Some (match result with Aug.Atomic { last; _ } -> snap_key last | Aug.Yield -> [||]) )

(* For every builtin workload, clean and seeded, with and without fault
   profiles: an execution moved at its first decision to a node saved at
   a random depth of a random schedule must give the outcome of the
   whole schedule run from scratch — script, live set, steps, trace, log
   and judged errors. Each schedule picks among the live pids by a hash
   of (decision, live set), so the resumed execution, told the node's
   depth, makes the same decisions after it. *)
(* For 30 seeds: run [w] from scratch under a pseudo-random schedule,
   save the state at a decision drawn from the seed and [salt] (for odd
   seeds, one of the last four), then
   resume a fresh execution there and check that it reports what the
   scratch run did: script, live set, steps, judged errors and what a
   capturing oracle put in [seen]. Returns the number of states
   resumed. *)
let resumes_match ~what ~salt ~max_ops (w : Explore.workload) seen =
  let resumed = ref 0 in
  for seed = 1 to 30 do
    let pick step live =
      let h = Hashtbl.hash (seed, step, live) in
      Some (List.nth live (h mod List.length live))
    in
    let run ?probe sched =
      let out = w.Explore.exec ~probe ~certify:false ~sched ~max_ops ~check:true in
      (Explore.script_of out, out.Explore.live, out.Explore.steps,
       out.Explore.errors, !seen)
    in
    let decisions = ref 0 in
    let scratch =
      run
        (Schedule.fn (fun ~step ~live ->
             decisions := step + 1;
             pick step live))
    in
    (* Odd seeds resume near the end, where the events of the whole run
       are in the saved state. *)
    let depth =
      let h = Hashtbl.hash (seed, salt) in
      if seed mod 2 = 0 then h mod max 1 !decisions
      else max 0 (!decisions - 1 - (h mod 4))
    in
    let node = ref None in
    ignore
      (run
         ~probe:
           {
             Explore.decide =
               (fun pv ->
                 if pv.step = depth then begin
                   node := Some (pv.save ());
                   `Stop
                 end
                 else `Continue);
             leaf = ignore;
           }
         (Schedule.fn (fun ~step ~live -> pick step live)));
    match !node with
    | None -> ()
    | Some n ->
      incr resumed;
      let step = ref 0 in
      let restored = ref false in
      let decide (pv : Explore.probe_view) =
        if not !restored then begin
          restored := true;
          pv.restore n;
          step := depth
        end
        else step := pv.step;
        `Continue
      in
      let probe = { Explore.decide; leaf = ignore } in
      let again = run ~probe (Schedule.fn (fun ~step:_ ~live -> pick !step live)) in
      if again <> scratch then
        Alcotest.failf "%s seed %d: resumed at %d differs" what seed depth
  done;
  !resumed

let test_resume_matches_scratch () =
  let resumed = ref 0 in
  List.iter
    (fun name ->
      List.iteri
        (fun k (inject, profile) ->
          let f = 3 and m = 2 in
          let faults =
            match profile with
            | `None -> None
            | `Chaos -> Faults.named "chaos" ~n_procs:f ~seed:(k + 3)
            | `Literal p -> (
              match Faults.of_string p with
              | Ok specs -> Some specs
              | Error e -> Alcotest.fail e)
          in
          let seen = ref ([], []) in
          let capture : Explore.Aug_target.exec Explore.Oracle.t =
            {
              Explore.Oracle.name = "capture";
              on_truncated = true;
              check =
                (fun ex ->
                  seen :=
                    ( List.map entry_key ex.result.Aug.Prog.trace,
                      List.map mop_key (Aug.log ex.aug) );
                  []);
            }
          in
          let oracles = Explore.Aug_target.default_oracles @ [ capture ] in
          let w = get_builtin ?inject ?faults ~oracles name ~f ~m in
          resumed :=
            !resumed
            + resumes_match
                ~what:(Printf.sprintf "%s (case %d)" name k)
                ~salt:(name, k) ~max_ops:60 w seen)
        [
          (None, `None);
          (None, `Chaos);
          (Some Aug.Skip_yield_check, `None);
          (Some Aug.Yield_on_higher, `Chaos);
          (Some Aug.Spin_on_yield, `None);
          (* the value-plane directives and an injected exception *)
          (None, `Literal "drop@1:1,corrupt@2:3#5,raise@0:4,stall@1:5*3");
        ])
    Explore.Aug_target.builtin_names;
  (* The simulation: clean, crashy, with a watchdog that quarantines
     simulators, and under the chaos profile (stalls and restarts), so a
     saved state carries journals, crashes, quarantines and a fired
     set. *)
  let quarantines = ref 0 and crashes = ref 0 in
  List.iter
    (fun (n, m, f, watchdog) ->
      List.iteri
        (fun k (faults, watchdog) ->
          let seen = ref ([], [||], [], [], []) in
          let capture : Explore.Harness_target.exec Explore.Oracle.t =
            {
              Explore.Oracle.name = "capture";
              on_truncated = true;
              check =
                (fun { result = _, r; _ } ->
                  let q = r.Harness.report.Harness.quarantined in
                  quarantines := !quarantines + List.length q;
                  Array.iter
                    (fun st -> if st = Rsim_runtime.Prog.Crashed then incr crashes)
                    r.Harness.statuses;
                  seen :=
                    ( List.map entry_key r.Harness.trace,
                      r.Harness.journals,
                      r.Harness.outputs,
                      List.map (fun (q : Harness.quarantine) -> (q.sim, q.at_op)) q,
                      List.map mop_key (Aug.log r.Harness.aug) );
                  []);
            }
          in
          let oracles =
            (if faults = [] then Explore.Harness_target.default_oracles
             else Explore.Harness_target.fault_oracles)
            @ [ capture ]
          in
          let w =
            Explore.Harness_target.racing ~oracles ~faults ?watchdog ~n ~m ~f
              ~d:0 ()
          in
          resumed :=
            !resumed
            + resumes_match
                ~what:(Printf.sprintf "racing n%d m%d f%d (case %d)" n m f k)
                ~salt:(n, k) ~max_ops:200 w seen)
        [
          ([], None);
          (Option.get (Faults.named "crashy" ~n_procs:f ~seed:(n + 1)), None);
          ([], Some watchdog);
          (Option.get (Faults.named "chaos" ~n_procs:f ~seed:n), None);
        ])
    [ (2, 1, 2, 8); (4, 2, 2, 20) ];
  Alcotest.(check bool)
    (Printf.sprintf "states resumed (%d), quarantines (%d) and crashes (%d) seen"
       !resumed !quarantines !crashes)
    true
    (!resumed > 600 && !quarantines > 0 && !crashes > !quarantines)

let test_sweep_domain_clamp () =
  (* Tiny budgets must not spawn idle domains. *)
  let rep =
    Explore.sweep ~budget:2 ~domains:8 ~seed:7 (clean_workload ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "domains clamped to budget (%d <= 2)" rep.Explore.domains)
    true
    (rep.Explore.domains <= 2);
  Alcotest.(check int) "budget honored" 2 rep.Explore.executions

(* The faulted sweep of the benchmark's sweep-faults shape, at one
   domain, with the counters CI pins for it at two: the sweep's counts
   do not depend on the domain count, so a change to any adversary
   family, the runtime, the augmented snapshot or the fault plane shows
   here too. *)
let test_sweep_faulted_pinned () =
  let faults =
    match
      Faults.resolve ~n_procs:4 ~seed:7 "restart@0:7+2,crash@3:12,restart@2:7+1"
    with
    | Ok fs -> fs
    | Error e -> Alcotest.failf "fault profile: %s" e
  in
  let w =
    match
      Explore.build_workload ~name:"mixed" ~params:[ ("f", 4); ("m", 2) ] ~faults ()
    with
    | Ok w -> w
    | Error e -> Alcotest.failf "workload: %s" e
  in
  let pins =
    [
      ("fiber.ops", 103_290);
      ("fiber.faults.crash", 3_845);
      ("fiber.faults.restart", 3_067);
      ("aug.scan.total", 15_684);
      ("aug.bu.total", 6_373);
      ("aug.bu.yield", 1_517);
      ("aug.helping.writes", 25_786);
    ]
  in
  let counters = List.map (fun (name, _) -> Obs.Metrics.counter name) pins in
  let before = List.map Obs.Metrics.counter_value counters in
  let rep = Explore.sweep ~domains:1 ~max_steps:200 ~budget:2000 ~seed:7 w in
  Alcotest.(check int) "executions" 2000 rep.Explore.executions;
  Alcotest.(check int) "violations" 0 (List.length rep.Explore.violations);
  List.iter2
    (fun ((name, want), c) b ->
      Alcotest.(check int) name want (Obs.Metrics.counter_value c - b))
    (List.combine pins counters) before

(* ---- linearizable oracle over full explorations ---- *)

let test_linearizable_oracle_exhaustive () =
  (* Check Wing-Gong linearizability of the M-operation history on every
     schedule (complete or truncated) of BU-vs-Scan. *)
  let w =
    get_builtin
      ~oracles:[ Explore.Aug_target.no_failure; Explore.Aug_target.linearizable ]
      "bu-scan" ~f:2 ~m:2
  in
  let rep = Explore.exhaustive ~max_steps:9 w in
  Alcotest.(check int) "all histories linearizable" 0
    (List.length rep.Explore.violations);
  Alcotest.(check bool) "covered executions" true
    (rep.Explore.complete + rep.Explore.truncated > 50)

(* ---- happens-before race oracle ---- *)

let test_race_oracle_catches () =
  (* [Skip_yield_check] makes a Block-Update return Atomic even when a
     lower-identifier process appended conflicting triples inside its
     window — exactly the unserializable overlap the index-order race
     oracle flags. The counterexample must shrink and replay. *)
  let w =
    get_builtin ~inject:Aug.Skip_yield_check
      ~oracles:[ Explore.Aug_target.race ]
      "bu-conflict" ~f:2 ~m:2
  in
  let rep = Explore.exhaustive ~max_steps:12 w in
  Alcotest.(check bool) "racy schedule caught" true
    (rep.Explore.violations <> []);
  let v = List.hd rep.Explore.violations in
  Alcotest.(check bool) "blamed on the race oracle" true
    (any_error ~sub:"race:" v.Explore.errors);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk (%d <= %d steps)"
       (List.length v.Explore.script)
       (List.length v.Explore.original))
    true
    (List.length v.Explore.script <= List.length v.Explore.original);
  (* deterministic replay of the shrunk script reproduces the race *)
  let out = Explore.replay w ~max_steps:12 ~script:v.Explore.script in
  Alcotest.(check bool) "replay reproduces the race" true
    (any_error ~sub:"race:" out.Explore.errors)

let test_race_oracle_clean () =
  (* On the clean object the Line-9 yield rule forbids exactly the
     overlap the oracle checks for: zero findings over every schedule,
     pruning off so the literal space is covered. *)
  let w =
    get_builtin ~oracles:[ Explore.Aug_target.race ] "bu-conflict" ~f:2 ~m:2
  in
  let rep = Explore.exhaustive ~max_steps:10 ~dedup:false w in
  Alcotest.(check int) "race-free" 0 (List.length rep.Explore.violations);
  Alcotest.(check bool) "covered the space" true
    (rep.Explore.complete + rep.Explore.truncated >= 500)

(* ---- catch matrix: which oracle catches which seeded bug ---- *)

(* All seven Aug_target oracles, in the order of the matrix columns. *)
let matrix_oracles =
  Explore.Aug_target.
    [
      no_failure; spec; theorem20; progress; linearizable; crash_robust; race;
    ]

let matrix_profile = "restart@0:7+2,crash@3:12,restart@2:7+1"

(* Run one corpus entry with every oracle wrapped to count the
   executions it fires on and then pass, so the engine never stops
   early and every oracle judges every execution. *)
let catch_counts ?inject (name, f, m, engine) =
  let fired = Array.make (List.length matrix_oracles) 0 in
  let oracles =
    List.mapi
      (fun i (o : _ Explore.Oracle.t) ->
        {
          o with
          Explore.Oracle.check =
            (fun ex ->
              if o.Explore.Oracle.check ex <> [] then
                fired.(i) <- fired.(i) + 1;
              []);
        })
      matrix_oracles
  in
  (match engine with
  | `Tree max_steps ->
    let w = get_builtin ?inject ~oracles name ~f ~m in
    ignore (Explore.exhaustive ~max_steps ~domains:1 ~dedup:false w)
  | `Sweep (budget, profile) ->
    let faults =
      Option.map
        (fun p ->
          match Faults.of_string p with
          | Ok specs -> specs
          | Error e -> Alcotest.failf "fault grammar: %s" e)
        profile
    in
    let w = get_builtin ?inject ?faults ~oracles name ~f ~m in
    ignore (Explore.sweep ~domains:1 ~max_steps:200 ~budget ~seed:11 w));
  Array.to_list fired

let test_catch_matrix () =
  (* Per corpus entry and build, the number of executions each oracle
     fires on, columns in [matrix_oracles] order: no-failure, aug-spec,
     theorem20, progress, linearizable, crash-robust, race. A change to
     an oracle, to the object or to an engine that moves a verdict moves
     a number here. The trees are literal (no dedup), so every schedule
     up to the bound is judged. *)
  let silent = [ 0; 0; 0; 0; 0; 0; 0 ] in
  let corpus =
    [
      ( ("bu-conflict", 2, 2, `Tree 12),
        [ 0; 394; 0; 0; 0; 0; 252 ],
        [ 0; 342; 330; 0; 0; 0; 122 ] );
      ( ("mixed", 3, 2, `Tree 10),
        silent,
        [ 0; 65; 0; 0; 0; 0; 0 ] );
      ( ("mixed", 4, 2, `Sweep (500, Some matrix_profile)),
        [ 0; 152; 0; 0; 0; 75; 113 ],
        [ 0; 239; 11; 0; 0; 112; 103 ] );
      ( ("bu-then-scan", 3, 3, `Sweep (500, None)),
        [ 0; 237; 0; 0; 0; 0; 0 ],
        [ 0; 349; 301; 0; 0; 0; 0 ] );
    ]
  in
  List.iter
    (fun (((name, f, m, _) as entry), skip, higher) ->
      List.iter
        (fun (inject, want) ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s f%dm%d %s" name f m
               (match inject with
               | None -> "clean"
               | Some b -> Explore.fault_to_string b))
            want
            (catch_counts ?inject entry))
        [
          (None, silent);
          (Some Aug.Skip_yield_check, skip);
          (Some Aug.Yield_on_higher, higher);
        ])
    corpus

(* ---- race, history and Wing-Gong against their references ---- *)

(* The violation a race error names: (q, start_idx, x_idx, p, idx). *)
let race_key msg =
  Scanf.sscanf msg
    "race: atomic Block-Update by %d over [%d,%d] did not observe \
     conflicting append by %d at %d"
    (fun q s x p i -> (q, s, x, p, i))

type ref_tally = {
  mutable executions : int;
  mutable racy : int;
  mutable searched : int;
  mutable race_diffs : int;
  mutable history_diffs : int;
  mutable search_diffs : int;
}

(* An oracle that judges nothing and compares, on every execution, the
   race oracle, the Wing-Gong history and the Wing-Gong search with the
   implementations kept in race_ref.ml and linearize_ref.ml. *)
let reference_oracle t : Explore.Aug_target.exec Explore.Oracle.t =
  {
    Explore.Oracle.name = "reference";
    on_truncated = true;
    check =
      (fun ({ aug; result; _ } as ex) ->
        t.executions <- t.executions + 1;
        let got = List.map race_key (Explore.Aug_target.race.check ex) in
        let want = List.map race_key (Race_ref.race_errors aug result) in
        if want <> [] then t.racy <- t.racy + 1;
        if got <> want then t.race_diffs <- t.race_diffs + 1;
        let spec, entries = Explore.mop_history aug ex.index in
        let _, ref_entries = Linearize_ref.mop_history aug result.Aug.Prog.trace in
        if entries <> ref_entries then t.history_diffs <- t.history_diffs + 1;
        (* the oracle searches histories of at most 16 operations *)
        if List.compare_length_with entries 16 <= 0 then begin
          t.searched <- t.searched + 1;
          if
            not
              (Linearize_ref.same_witness
                 (Linearize.linearization spec entries)
                 (Linearize_ref.linearization spec entries))
          then t.search_diffs <- t.search_diffs + 1
        end;
        []);
  }

let test_matches_references () =
  let t =
    {
      executions = 0;
      racy = 0;
      searched = 0;
      race_diffs = 0;
      history_diffs = 0;
      search_diffs = 0;
    }
  in
  let oracles = [ reference_oracle t ] in
  let profile p =
    match Faults.of_string p with
    | Ok specs -> specs
    | Error e -> Alcotest.failf "fault grammar: %s" e
  in
  let lossy = "drop@1:3,corrupt@2:6#5,restart@0:7+2,crash@2:14" in
  List.iter
    (fun inject ->
      List.iter
        (fun (name, f, m, faults) ->
          List.iter
            (fun faults ->
              let w = get_builtin ?inject ?faults ~oracles name ~f ~m in
              ignore
                (Explore.sweep ~domains:1 ~max_steps:200 ~budget:900 ~seed:f w))
            [ None; Some (profile faults) ])
        [
          ("bu-conflict", 3, 2, lossy);
          ("bu-then-scan", 3, 3, lossy);
          ("mixed", 3, 2, lossy);
          ("mixed", 4, 2, matrix_profile);
        ])
    [ None; Some Aug.Skip_yield_check; Some Aug.Yield_on_higher ];
  Alcotest.(check bool)
    (Printf.sprintf "corpus of %d executions, %d racy" t.executions t.racy)
    true
    (t.executions >= 20_000 && t.racy >= 1_000);
  Alcotest.(check int) "same race violations, in order" 0 t.race_diffs;
  Alcotest.(check int) "same Wing-Gong histories" 0 t.history_diffs;
  Alcotest.(check int)
    (Printf.sprintf "same Wing-Gong witness on %d histories" t.searched)
    0 t.search_diffs

let () =
  Alcotest.run "explore"
    [
      ( "exhaustive",
        [
          Alcotest.test_case "Theorem 20 over all schedules" `Quick
            test_theorem20_exhaustive;
          Alcotest.test_case "complete executions at 12 steps" `Quick
            test_exhaustive_completes_at_12;
          Alcotest.test_case "preemption bounding" `Quick test_preemption_bound;
        ] );
      ( "seeded bugs",
        [
          Alcotest.test_case "yield-on-higher caught + 1-minimal shrink" `Quick
            test_seeded_yield_on_higher;
          Alcotest.test_case "artifact save/load/replay" `Quick
            test_seeded_bug_artifact_roundtrip;
          Alcotest.test_case "skip-yield-check caught" `Quick
            test_seeded_skip_yield_check;
          Alcotest.test_case "artifact JSON round trip" `Quick
            test_json_roundtrip_is_identity;
        ] );
      ( "parallel engine",
        [
          Alcotest.test_case "engine matches naive DFS" `Quick
            test_engine_matches_naive;
          Alcotest.test_case "racing tree pinned" `Quick test_racing_tree_pinned;
          Alcotest.test_case "report invariant at 1/2/4 domains" `Quick
            test_domain_count_invariance;
          Alcotest.test_case "dedup cuts keep the bug" `Quick
            test_dedup_soundness;
          Alcotest.test_case "dedup keeps seeded-bug verdicts" `Quick
            test_dedup_keeps_verdicts;
          Alcotest.test_case "resumed states match scratch runs" `Quick
            test_resume_matches_scratch;
          Alcotest.test_case "walk order pinned at 1 domain" `Quick
            test_walk_order_pinned;
          Alcotest.test_case "foreign nodes refused" `Quick
            test_foreign_node_refused;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "clean workload, clean sweep" `Quick test_sweep_clean;
          Alcotest.test_case "sweep finds seeded bug" `Quick
            test_sweep_finds_seeded_bug;
          Alcotest.test_case "domains clamped to budget" `Quick
            test_sweep_domain_clamp;
          Alcotest.test_case "faulted sweep pinned at 1 domain" `Quick
            test_sweep_faulted_pinned;
        ] );
      ( "crash faults",
        [
          Alcotest.test_case "crash before X hides the update" `Quick
            test_crash_before_x;
          Alcotest.test_case "crash after X exposes the update" `Quick
            test_crash_after_x;
          Alcotest.test_case "spec holds at every cutoff" `Quick
            test_crash_spec_across_cutoffs;
        ] );
      ( "fault plane",
        [
          Alcotest.test_case "crash at every step stays green" `Quick
            test_exhaustive_crash_at_every_step;
          Alcotest.test_case "progress oracle catches spin-on-yield" `Quick
            test_progress_catches_spin_on_yield;
          Alcotest.test_case "sweep finds + shrinks + replays spin-on-yield"
            `Quick test_sweep_finds_spin_on_yield;
          Alcotest.test_case "dropped helping write caught + replayed" `Quick
            test_dropped_helping_write_caught;
          Alcotest.test_case "crashy racing sweep, survivors green" `Quick
            test_racing_crashy_survivors;
          Alcotest.test_case "fault pids outside the workload refused" `Quick
            test_fault_pids_checked;
        ] );
      ( "catch matrix",
        [
          Alcotest.test_case "oracle firings per corpus entry" `Quick
            test_catch_matrix;
        ] );
      ( "reference",
        [
          Alcotest.test_case "race, history and search match" `Quick
            test_matches_references;
        ] );
      ( "artifact versioning",
        [
          Alcotest.test_case "v1 artifact still loads" `Quick
            test_artifact_v1_backward_compat;
          Alcotest.test_case "unreadable paths are Error, not raise" `Quick
            test_artifact_load_unreadable;
          Alcotest.test_case "newer version refused" `Quick
            test_artifact_unsupported_version;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "BU vs Scan histories" `Quick
            test_linearizable_oracle_exhaustive;
        ] );
      ( "race + certify",
        [
          Alcotest.test_case "race oracle catches skip-yield-check" `Quick
            test_race_oracle_catches;
          Alcotest.test_case "race oracle clean on the clean object" `Quick
            test_race_oracle_clean;
        ] );
    ]
