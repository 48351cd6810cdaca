open Rsim_value
open Rsim_shmem
open Rsim_augmented
open Rsim_explore

module Faults = Rsim_faults.Faults

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
    Aug.F.run ~sched ~apply:(Aug.apply aug)
      [
        (fun _ -> seen := Aug.scan aug ~me:0);
        (fun _ -> ignore (Aug.block_update aug ~me:1 [ (0, Value.Int 42) ]));
      ]
  in
  Alcotest.(check bool) "q1 crashed mid-operation" true
    (result.Aug.F.statuses.(1) = Rsim_runtime.Fiber.Pending);
  Alcotest.(check bool) "q0 survived" true
    (result.Aug.F.statuses.(0) = Rsim_runtime.Fiber.Done);
  (aug, result, !seen)

let check_crash_spec name aug (result : Aug.F.result) =
  (* The survivor's Scans must satisfy the spec — Corollary 15 in
     particular: every pair of views is comparable, later scans dominate
     earlier ones — even with a crashed Block-Update in the history. *)
  let report = Aug_spec.check aug result.Aug.F.trace in
  if not report.Aug_spec.ok then
    Alcotest.failf "%s: spec violations on crashy run:@.%a" name
      Aug_spec.pp_report report

let test_crash_before_x () =
  let aug, result, seen = crash_run ~crash_after:1 in
  Alcotest.(check bool) "update invisible before X" true (Value.is_bot seen.(0));
  check_crash_spec "crash pre-X" aug result;
  let spec, entries = Explore.mop_history aug result.Aug.F.trace in
  Alcotest.(check bool) "pending update droppable: history linearizable" true
    (Linearize.check spec entries)

let test_crash_after_x () =
  let aug, result, seen = crash_run ~crash_after:2 in
  Alcotest.(check bool) "update visible after X" true
    (Value.equal seen.(0) (Value.Int 42));
  check_crash_spec "crash post-X" aug result;
  let spec, entries = Explore.mop_history aug result.Aug.F.trace in
  Alcotest.(check bool) "crashed Block-Update left a pending entry" true
    (List.exists (fun (e : _ Linearize.entry) -> e.Linearize.ret = None) entries);
  Alcotest.(check bool) "pending update takes effect: history linearizable" true
    (Linearize.check spec entries)

let test_crash_spec_across_cutoffs () =
  (* Crash q1 at every point of its Block-Update: the survivor's view of
     the world must satisfy the spec at each cutoff. *)
  for crash_after = 1 to 5 do
    let aug, result, _ = crash_run ~crash_after in
    check_crash_spec (Printf.sprintf "crash after %d" crash_after) aug result
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
     exact tree the pre-PR sequential DFS walked: same complete and
     truncated counts, same prefix count, same violation set. The huge
     [max_violations] keeps both engines from stopping early, so the
     traversals are comparable. *)
  let check name w =
    let naive = Explore.exhaustive_naive ~max_steps:9 ~max_violations:10_000 w in
    let engine =
      Explore.exhaustive ~max_steps:9 ~max_violations:10_000 ~domains:1
        ~dedup:false w
    in
    Alcotest.(check (triple int int int))
      (name ^ ": counts match naive") (counts naive) (counts engine);
    Alcotest.(check (list (list int)))
      (name ^ ": violation scripts match naive")
      (scripts naive) (scripts engine)
  in
  check "clean" (clean_workload ());
  check "seeded" (seeded_workload ())

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
  (* State dedup and sleep-set independence may only cut redundant
     branches: the injected bug must still be caught with both on (the
     defaults), and the pruned tree must be domain-count invariant too
     (exactly one winner per claim key, so the cuts are deterministic). *)
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
    true (!caught > 0)

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
     window — exactly the unserializable overlap the vector-clock race
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
          Alcotest.test_case "report invariant at 1/2/4 domains" `Quick
            test_domain_count_invariance;
          Alcotest.test_case "dedup + sleep sets stay sound" `Quick
            test_dedup_soundness;
          Alcotest.test_case "dedup keeps seeded-bug verdicts" `Quick
            test_dedup_keeps_verdicts;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "clean workload, clean sweep" `Quick test_sweep_clean;
          Alcotest.test_case "sweep finds seeded bug" `Quick
            test_sweep_finds_seeded_bug;
          Alcotest.test_case "domains clamped to budget" `Quick
            test_sweep_domain_clamp;
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
