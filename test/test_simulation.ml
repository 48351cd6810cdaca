open Rsim_value
open Rsim_shmem
open Rsim_tasks
open Rsim_protocols
open Rsim_simulation
module Aug = Rsim_augmented.Aug

let i n = Value.Int n

(* Simulator [sim]'s completed M-operations, in completion order: its
   serial [s] names element [s - 1]. *)
let ops_of (r : Harness.result) sim =
  List.filter (fun mop -> Aug.mop_proc mop = sim) (Aug.log r.Harness.aug)

let racing_spec ~n ~m ~f ~d inputs =
  {
    Harness.protocol = (fun pid input -> (Racing.protocol ~m ()) pid input);
    n;
    m;
    f;
    d;
    inputs;
  }

(* ---- partition ---- *)

let test_partition () =
  let p = Harness.partition ~m:3 ~f:3 ~d:1 in
  Alcotest.(check (array int)) "covering 0" [| 0; 1; 2 |] p.(0);
  Alcotest.(check (array int)) "covering 1" [| 3; 4; 5 |] p.(1);
  Alcotest.(check (array int)) "direct" [| 6 |] p.(2);
  (* disjoint *)
  let all = Array.to_list p |> List.concat_map Array.to_list in
  Alcotest.(check int) "no overlaps" (List.length all)
    (List.length (List.sort_uniq Int.compare all))

let test_spec_validation () =
  Alcotest.(check bool) "too few simulated processes rejected" true
    (try
       ignore
         (Harness.run ~sched:Schedule.round_robin
            (racing_spec ~n:3 ~m:3 ~f:2 ~d:0 [ i 1; i 2 ]));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong input count rejected" true
    (try
       ignore
         (Harness.run ~sched:Schedule.round_robin
            (racing_spec ~n:9 ~m:3 ~f:2 ~d:0 [ i 1 ]));
       false
     with Invalid_argument _ -> true)

(* ---- complexity formulas ---- *)

let test_complexity_a () =
  Alcotest.(check int) "a(1) = 0" 0 (Complexity.a ~m:4 1);
  (* a(2) = (C(m,1)+1)*0 + C(m,1) = m *)
  Alcotest.(check int) "a(2) = m" 4 (Complexity.a ~m:4 2);
  (* m=4: a(3) = (C(4,2)+1)*4 + C(4,2) = 7*4+6 = 34 *)
  Alcotest.(check int) "a(3) m=4" 34 (Complexity.a ~m:4 3);
  (* a(4) = (C(4,3)+1)*34 + 4 = 174 *)
  Alcotest.(check int) "a(4) m=4" 174 (Complexity.a ~m:4 4);
  Alcotest.check_raises "r out of range"
    (Invalid_argument "Complexity.a: need 1 <= r <= m") (fun () ->
      ignore (Complexity.a ~m:3 4))

let test_complexity_closed_form () =
  (* a(r) <= 2^{m(r-1)} for small m, r *)
  List.iter
    (fun m ->
      List.iter
        (fun r ->
          let v = Complexity.a ~m r in
          let bound = 1 lsl (m * (r - 1)) in
          Alcotest.(check bool)
            (Printf.sprintf "a(%d) <= 2^{%d} for m=%d" r (m * (r - 1)) m)
            true (v <= bound))
        (List.init m (fun r -> r + 1)))
    [ 2; 3; 4; 5 ]

let test_complexity_b () =
  (* m=2: a(2)=2, a(1)=0: b(1)=2, b(i)=sum_prev + 2 *)
  Alcotest.(check int) "b(1) m=2" 2 (Complexity.b ~m:2 1);
  Alcotest.(check int) "b(2) m=2" 4 (Complexity.b ~m:2 2);
  Alcotest.(check int) "b(3) m=2" 8 (Complexity.b ~m:2 3);
  Alcotest.(check int) "b(4) m=2" 16 (Complexity.b ~m:2 4);
  Alcotest.(check bool) "b monotone in i" true
    (Complexity.b ~m:3 3 > Complexity.b ~m:3 2);
  Alcotest.(check bool) "step bound positive" true
    (Complexity.step_bound ~f:3 ~m:2 > 0)

let test_complexity_b_closed_form_bound () =
  (* From the recurrence: b(i) ≤ a(m)·(a(m−1)+2)^{i−1}. (The paper's
     displayed closed form a(m)(a(m−1)+1)^{i−1} does not satisfy its own
     recurrence — e.g. m=2 gives b = 2,4,8,… not constant 2 — so we
     check the corrected envelope.) *)
  List.iter
    (fun m ->
      let a_m = Complexity.a ~m m in
      let base = (if m = 1 then 0 else Complexity.a ~m (m - 1)) + 2 in
      let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
      List.iter
        (fun i ->
          let bound = a_m * pow base (i - 1) in
          if not (Complexity.is_saturated (Complexity.b ~m i)) then
            Alcotest.(check bool)
              (Printf.sprintf "b(%d) <= a(m)(a(m-1)+2)^%d for m=%d" i (i - 1) m)
              true
              (Complexity.b ~m i <= bound))
        [ 1; 2; 3; 4 ])
    [ 2; 3; 4 ]

let test_complexity_saturation () =
  Alcotest.(check bool) "huge parameters saturate, not overflow" true
    (Complexity.is_saturated (Complexity.b ~m:20 10));
  Alcotest.(check bool) "2^{fm^2} saturates" true
    (Complexity.is_saturated (Complexity.two_pow_fm2 ~f:4 ~m:5));
  Alcotest.(check int) "2^{fm^2} small" 16 (Complexity.two_pow_fm2 ~f:4 ~m:1)

(* ---- single covering simulator ---- *)

let test_single_covering () =
  let spec = racing_spec ~n:2 ~m:2 ~f:1 ~d:0 [ i 42 ] in
  let r = Harness.run ~sched:Schedule.round_robin spec in
  Alcotest.(check bool) "all done" true r.Harness.all_done;
  (match Harness.validate spec r ~task:Task.consensus with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid: %s" (Harness.explain e));
  let rep = Analysis.check spec r in
  if not rep.Analysis.ok then
    Alcotest.failf "analysis: %a" Analysis.pp_report rep

let test_final_block_path () =
  (* With one covering simulator on racing m=2, Construct(m) completes
     and the simulator takes the Algorithm-7 path: a final block β plus
     a locally simulated terminating solo run ξ. *)
  let spec = racing_spec ~n:2 ~m:2 ~f:1 ~d:0 [ i 7 ] in
  let r = Harness.run ~sched:Schedule.round_robin spec in
  let finals =
    List.filter
      (function Journal.Jfinal _ -> true | _ -> false)
      r.Harness.journals.(0)
  in
  Alcotest.(check int) "took the final-block path" 1 (List.length finals);
  (match finals with
  | [ Journal.Jfinal { beta; xi; output } ] ->
    Alcotest.(check int) "beta covers m components" 2 (List.length beta);
    Alcotest.(check bool) "xi nonempty" true (xi <> []);
    Alcotest.(check bool) "output is the input" true (Value.equal output (i 7))
  | _ -> Alcotest.fail "expected one Jfinal");
  let rep = Analysis.check spec r in
  if not rep.Analysis.ok then Alcotest.failf "analysis: %a" Analysis.pp_report rep;
  Alcotest.(check bool) "final steps replayed" true
    (rep.Analysis.stats.Analysis.n_final_steps > 0)

(* ---- the reduction: wait-freedom + spec + replay under contention ---- *)

let run_and_check_everything ?(require_valid = None) spec seed =
  let r = Harness.run ~sched:(Schedule.random ~seed) spec in
  Alcotest.(check bool)
    (Printf.sprintf "wait-free (seed %d)" seed)
    true r.Harness.all_done;
  let aug_rep = Rsim_augmented.Aug_spec.report r.Harness.index in
  if not aug_rep.Rsim_augmented.Aug_spec.ok then
    Alcotest.failf "aug spec (seed %d): %a" seed Rsim_augmented.Aug_spec.pp_report
      aug_rep;
  let rep = Analysis.check spec r in
  if not rep.Analysis.ok then
    Alcotest.failf "analysis (seed %d): %a" seed Analysis.pp_report rep;
  (match require_valid with
  | Some task -> (
    match Harness.validate spec r ~task with
    | Ok () -> ()
    | Error e -> Alcotest.failf "task (seed %d): %s" seed (Harness.explain e))
  | None -> ());
  r

let test_two_covering_simulators () =
  List.iter
    (fun seed ->
      ignore
        (run_and_check_everything
           (racing_spec ~n:6 ~m:3 ~f:2 ~d:0 [ i 1; i 2 ])
           seed))
    (List.init 25 Fun.id)

let test_covering_plus_direct () =
  List.iter
    (fun seed ->
      ignore
        (run_and_check_everything
           (racing_spec ~n:5 ~m:2 ~f:3 ~d:1 [ i 1; i 2; i 3 ])
           seed))
    (List.init 25 Fun.id)

let test_kset_regime () =
  (* n=7, k=3, x=1: the upper-bound regime m = n-k+x = 5. Two simulators
     (1 covering + 1 direct) must wait-free produce <= 2 <= k values. *)
  let spec = racing_spec ~n:7 ~m:5 ~f:2 ~d:1 [ i 10; i 20 ] in
  List.iter
    (fun seed ->
      ignore
        (run_and_check_everything ~require_valid:(Some (Task.kset ~k:3)) spec
           seed))
    (List.init 15 Fun.id)

let test_bu_counts_within_lemma30 () =
  (* Covering simulators' Block-Update counts stay within b(i). *)
  List.iter
    (fun seed ->
      let spec = racing_spec ~n:8 ~m:2 ~f:4 ~d:0 [ i 1; i 2; i 3; i 4 ] in
      let r = run_and_check_everything spec seed in
      Array.iteri
        (fun idx count ->
          let bound = Complexity.b ~m:2 (idx + 1) in
          Alcotest.(check bool)
            (Printf.sprintf "q%d: %d BUs <= b(%d) = %d (seed %d)" idx count
               (idx + 1) bound seed)
            true (count <= bound))
        r.Harness.bu_counts)
    (List.init 20 Fun.id)

let test_step_bound_lemma31 () =
  List.iter
    (fun seed ->
      let spec = racing_spec ~n:6 ~m:2 ~f:3 ~d:0 [ i 1; i 2; i 3 ] in
      let r = run_and_check_everything spec seed in
      let bound = Complexity.step_bound ~f:3 ~m:2 in
      Array.iter
        (fun ops ->
          Alcotest.(check bool)
            (Printf.sprintf "ops %d <= bound %d" ops bound)
            true (ops <= bound))
        r.Harness.ops_per_sim)
    (List.init 20 Fun.id)

(* ---- the impossibility witness (E5b) ---- *)

let test_witness_disagreement_exists () =
  (* Racing "consensus" with m = 2 < n = 4 components, simulated by two
     covering simulators: some schedule makes the simulators disagree.
     This is the reduction's bite: were the protocol a correct
     obstruction-free consensus in this space regime, the simulation
     would wait-free solve 2-process consensus. *)
  let spec = racing_spec ~n:4 ~m:2 ~f:2 ~d:0 [ i 1; i 2 ] in
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 200 do
    let r = Harness.run ~sched:(Schedule.random ~seed:!seed) spec in
    (match Harness.validate spec r ~task:Task.consensus with
    | Error _ when r.Harness.all_done -> found := true
    | _ -> ());
    incr seed
  done;
  Alcotest.(check bool) "disagreement witnessed within 200 schedules" true !found

let test_sufficient_space_no_witness () =
  (* With a single simulator (so (f-d)m <= n even for m = n), the same
     search finds no violation. *)
  let spec = racing_spec ~n:3 ~m:3 ~f:1 ~d:0 [ i 1 ] in
  List.iter
    (fun seed ->
      let r = Harness.run ~sched:(Schedule.random ~seed) spec in
      match Harness.validate spec r ~task:Task.consensus with
      | Ok () -> ()
      | Error e -> Alcotest.failf "unexpected violation: %s" (Harness.explain e))
    (List.init 50 Fun.id)

let test_all_direct_simulators () =
  (* d = f: no covering simulators at all; the harness degenerates to f
     direct step-by-step simulations over the augmented snapshot. *)
  List.iter
    (fun seed ->
      let spec = racing_spec ~n:2 ~m:2 ~f:2 ~d:2 [ i 1; i 2 ] in
      let r = Harness.run ~sched:(Schedule.random ~seed) spec in
      Alcotest.(check bool) "all done" true r.Harness.all_done;
      let rep = Analysis.check spec r in
      if not rep.Analysis.ok then
        Alcotest.failf "analysis (seed %d): %a" seed Analysis.pp_report rep;
      Alcotest.(check int) "no revisions without covering simulators" 0
        rep.Analysis.stats.Analysis.n_revisions)
    (List.init 15 Fun.id)

let test_trace_pp_renders () =
  let spec = racing_spec ~n:4 ~m:2 ~f:2 ~d:0 [ i 1; i 2 ] in
  let r = Harness.run ~sched:(Schedule.random ~seed:5) spec in
  let rendered = Format.asprintf "%a" (fun fmt () -> Trace_pp.pp_run fmt spec r) () in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length rendered
      && (String.sub rendered i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "shows block updates" true (contains "M.BlockUpdate");
  Alcotest.(check bool) "shows scans" true (contains "M.Scan");
  Alcotest.(check bool) "shows a revision" true (contains "REVISES");
  Alcotest.(check bool) "shows the outcome" true (contains "wait-free: true");
  (* Every op# a REVISES line names is a printed M-operation. *)
  let revises =
    List.filter_map
      (fun line ->
        Scanf.sscanf_opt line
          " q%d REVISES the past of its process %_d after op#%d, using the \
           view of op#%d:"
          (fun q after source -> (q, after, source)))
      (String.split_on_char '\n' rendered)
  in
  Alcotest.(check bool) "REVISES lines parsed" true (revises <> []);
  List.iter
    (fun (q, after, source) ->
      List.iter
        (fun k ->
          let op = Printf.sprintf "q%d op#%d M." q k in
          Alcotest.(check bool) (op ^ " is printed") true (contains op))
        [ after; source ])
    revises;
  let htrace = Format.asprintf "%a" (fun fmt () -> Trace_pp.pp_htrace fmt r.Harness.trace) () in
  Alcotest.(check bool) "H-trace shows scans" true
    (let sub = "H.scan" in
     let n = String.length sub in
     let rec go i =
       i + n <= String.length htrace && (String.sub htrace i n = sub || go (i + 1))
     in
     go 0)

(* ---- deterministic covering adversaries ---- *)

let test_phase_shifted_breaks_racing () =
  let procs =
    List.init 2 (fun pid -> (Racing.protocol ~m:2 ()) pid (i pid))
  in
  match
    Covering_witness.phase_shifted ~procs ~m:2 ~task:Task.consensus ~max_turn:8
  with
  | Some w ->
    Alcotest.(check int) "both decided" 2 (List.length w.Covering_witness.outputs);
    Alcotest.(check bool) "two distinct outputs" true
      (List.length
         (Value.distinct (List.map snd w.Covering_witness.outputs))
      > 1)
  | None -> Alcotest.fail "expected a deterministic lockstep witness"

let test_stale_writer_breaks_undersized () =
  let procs =
    List.init 2 (fun pid -> (Racing.protocol ~m:1 ()) pid (i pid))
  in
  match Covering_witness.stale_writer ~procs ~m:1 ~task:Task.consensus with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a stale-writer witness at m=1 < n=2"

let test_adopt2_survives_covering_adversaries () =
  let procs =
    [
      Adopt2.proc ~mine:0 ~theirs:1 ~name:"p0" ~input:(i 1) ();
      Adopt2.proc ~mine:1 ~theirs:0 ~name:"p1" ~input:(i 2) ();
    ]
  in
  Alcotest.(check bool) "phase-shifted finds nothing" true
    (Covering_witness.phase_shifted ~procs ~m:2 ~task:Task.consensus ~max_turn:8
    = None);
  Alcotest.(check bool) "stale-writer finds nothing" true
    (Covering_witness.stale_writer ~procs ~m:2 ~task:Task.consensus = None)

(* ---- failure injection ---- *)

let test_non_of_protocol_fails_loudly () =
  (* A spinner is not obstruction-free: the covering simulator's local
     simulation must hit its cap and fail (not loop forever). *)
  let spec =
    {
      Harness.protocol =
        (fun pid _ -> Pathological.spinner ~name:(Printf.sprintf "spin%d" pid));
      n = 4;
      m = 2;
      f = 2;
      d = 0;
      inputs = [ i 1; i 2 ];
    }
  in
  let r = Harness.run ~local_cap:500 ~max_ops:100_000 ~sched:Schedule.round_robin spec in
  let failed =
    Array.exists
      (function Rsim_runtime.Prog.Failed _ -> true | _ -> false)
      r.Harness.statuses
  in
  Alcotest.(check bool) "a simulator failed on the cap" true
    (failed || not r.Harness.all_done);
  match Harness.validate spec r ~task:Task.consensus with
  | Ok () -> Alcotest.fail "validation should not pass"
  | Error _ -> ()

let test_constant_protocol () =
  (* Processes that output immediately: every simulator adopts the
     output at its first scan. *)
  let spec =
    {
      Harness.protocol = (fun _ input -> Pathological.constant ~name:"c" ~output:input);
      n = 4;
      m = 2;
      f = 2;
      d = 0;
      inputs = [ i 5; i 6 ];
    }
  in
  let r = Harness.run ~sched:Schedule.round_robin spec in
  Alcotest.(check bool) "all done" true r.Harness.all_done;
  Alcotest.(check int) "both output" 2 (List.length r.Harness.outputs);
  let rep = Analysis.check spec r in
  if not rep.Analysis.ok then Alcotest.failf "analysis: %a" Analysis.pp_report rep

(* ---- approximate agreement through the simulation ---- *)

let test_approx_through_simulation () =
  let eps = 0.25 in
  let rounds = Approx_agreement.rounds_for ~eps in
  let spec =
    {
      Harness.protocol =
        (fun pid input -> (Approx_agreement.protocol ~rounds ()) pid input);
      n = 3;
      m = 3;
      f = 1;
      d = 0;
      inputs = [ Value.Float 0.75 ];
    }
  in
  let r = Harness.run ~sched:Schedule.round_robin spec in
  (match Harness.validate spec r ~task:(Task.approx ~eps) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "approx invalid: %s" (Harness.explain e));
  let rep = Analysis.check spec r in
  if not rep.Analysis.ok then Alcotest.failf "analysis: %a" Analysis.pp_report rep

(* ---- properties ---- *)

let prop_simulation_sound =
  QCheck.Test.make
    ~name:"random shapes: wait-free, aug-spec-clean, Lemma-26-replayable"
    ~count:60
    QCheck.(
      triple (int_bound 100_000) (int_range 1 3) (pair (int_range 1 3) (int_bound 1)))
    (fun (seed, m, (cov, d)) ->
      let f = cov + d in
      let n = (cov * m) + d in
      let inputs = List.init f (fun p -> i (p + 1)) in
      let spec = racing_spec ~n ~m ~f ~d inputs in
      let r = Harness.run ~max_ops:500_000 ~sched:(Schedule.random ~seed) spec in
      if not r.Harness.all_done then
        QCheck.Test.fail_reportf "not wait-free: seed=%d m=%d f=%d d=%d" seed m f d
      else begin
        let aug_rep = Rsim_augmented.Aug_spec.report r.Harness.index in
        let rep = Analysis.check spec r in
        if not aug_rep.Rsim_augmented.Aug_spec.ok then
          QCheck.Test.fail_reportf "aug spec: %a" Rsim_augmented.Aug_spec.pp_report
            aug_rep
        else if not rep.Analysis.ok then
          QCheck.Test.fail_reportf "analysis: %a" Analysis.pp_report rep
        else true
      end)

let prop_simulation_deterministic =
  QCheck.Test.make ~name:"simulation deterministic in the seed" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let spec = racing_spec ~n:4 ~m:2 ~f:2 ~d:0 [ i 1; i 2 ] in
      let go () =
        let r = Harness.run ~sched:(Schedule.random ~seed) spec in
        (r.Harness.outputs, r.Harness.total_ops)
      in
      go () = go ())

(* ---- fault plane and supervision ---- *)

let crash_spec_at ~pid ~at_op =
  [ { Rsim_faults.Faults.pid; at_op; action = Rsim_faults.Faults.Crash } ]

let test_crashed_simulator_strict_vs_survivors () =
  (* Crash simulator 1 at its 2nd H-operation. Strict validation must
     report the crash; survivor validation must excuse it and accept the
     survivor's consensus output. *)
  let spec = racing_spec ~n:4 ~m:2 ~f:2 ~d:0 [ i 1; i 2 ] in
  let r =
    Harness.run
      ~faults:(crash_spec_at ~pid:1 ~at_op:2)
      ~sched:Schedule.round_robin spec
  in
  Alcotest.(check bool) "simulator 1 crashed" true
    (r.Harness.statuses.(1) = Rsim_runtime.Prog.Crashed);
  Alcotest.(check bool) "simulator 0 survived" true
    (r.Harness.statuses.(0) = Rsim_runtime.Prog.Done);
  Alcotest.(check bool) "crash event in the report" true
    (List.exists
       (function Rsim_runtime.Prog.Ev_crash { pid = 1; _ } -> true | _ -> false)
       r.Harness.report.Harness.events);
  (match Harness.validate spec r ~task:Task.consensus with
  | Error (Harness.Simulator_crashed { sims = [ 1 ] }) -> ()
  | Error e -> Alcotest.failf "expected Simulator_crashed: %s" (Harness.explain e)
  | Ok () -> Alcotest.fail "strict validation must flag the crash");
  match Harness.validate ~survivors_only:true spec r ~task:Task.consensus with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "survivors validation should pass: %s" (Harness.explain e)

let test_crash_at_every_op_survivor_valid () =
  (* The paper's crash model, swept: kill simulator 1 at each of its
     first 12 H-operations in turn; the survivor must always finish and
     its output must solve consensus among survivors. *)
  let spec = racing_spec ~n:4 ~m:2 ~f:2 ~d:0 [ i 1; i 2 ] in
  for at_op = 0 to 11 do
    let r =
      Harness.run
        ~faults:(crash_spec_at ~pid:1 ~at_op)
        ~sched:Schedule.round_robin spec
    in
    Alcotest.(check bool)
      (Printf.sprintf "survivor done (crash at %d)" at_op)
      true
      (r.Harness.statuses.(0) = Rsim_runtime.Prog.Done);
    match Harness.validate ~survivors_only:true spec r ~task:Task.consensus with
    | Ok () -> ()
    | Error e ->
      Alcotest.failf "crash at op %d: %s" at_op (Harness.explain e)
  done

let test_stalled_simulator_still_validates () =
  (* A transient stall is not a crash: the stalled simulator wakes up,
     finishes, and strict validation passes. *)
  let spec = racing_spec ~n:4 ~m:2 ~f:2 ~d:0 [ i 1; i 2 ] in
  let r =
    Harness.run
      ~faults:
        [
          {
            Rsim_faults.Faults.pid = 0;
            at_op = 1;
            action = Rsim_faults.Faults.Stall { steps = 7 };
          };
        ]
      ~sched:Schedule.round_robin spec
  in
  Alcotest.(check bool) "all done despite the stall" true r.Harness.all_done;
  Alcotest.(check bool) "stall event recorded" true
    (List.exists
       (function Rsim_runtime.Prog.Ev_stall { pid = 0; _ } -> true | _ -> false)
       r.Harness.report.Harness.events);
  match Harness.validate spec r ~task:Task.consensus with
  | Ok () -> ()
  | Error e -> Alcotest.failf "stall should be harmless: %s" (Harness.explain e)

let test_watchdog_quarantine () =
  (* An absurdly small step budget quarantines every simulator; the run
     must still terminate and report the quarantines as crashes. *)
  let spec = racing_spec ~n:4 ~m:2 ~f:2 ~d:0 [ i 1; i 2 ] in
  let r = Harness.run ~watchdog:3 ~sched:Schedule.round_robin spec in
  Alcotest.(check bool) "someone was quarantined" true
    (r.Harness.report.Harness.quarantined <> []);
  List.iter
    (fun (q : Harness.quarantine) ->
      Alcotest.(check bool) "quarantined at the budget" true (q.Harness.at_op >= 3);
      Alcotest.(check bool) "reason names the budget" true
        (let s = q.Harness.reason in
         let rec has i =
           i + 6 <= String.length s && (String.sub s i 6 = "budget" || has (i + 1))
         in
         has 0))
    r.Harness.report.Harness.quarantined;
  match Harness.validate spec r ~task:Task.consensus with
  | Error (Harness.Simulator_crashed _) -> ()
  | Error e -> Alcotest.failf "expected Simulator_crashed: %s" (Harness.explain e)
  | Ok () -> Alcotest.fail "quarantine must fail strict validation"

let test_default_watchdog_bound () =
  (* The default budget scales with Lemma 31's step bound and is capped
     by max_ops. *)
  let b = Harness.default_watchdog ~f:2 ~m:2 ~max_ops:2_000_000 in
  Alcotest.(check bool) "at least Lemma 31's bound" true
    (b >= Complexity.step_bound ~f:2 ~m:2);
  Alcotest.(check bool) "finite (not the op budget)" true (b < 2_000_000);
  Alcotest.(check int) "capped by max_ops" 100
    (Harness.default_watchdog ~f:4 ~m:4 ~max_ops:100);
  (* a clean run never trips the default watchdog *)
  let spec = racing_spec ~n:4 ~m:2 ~f:2 ~d:0 [ i 1; i 2 ] in
  let r = Harness.run ~sched:Schedule.round_robin spec in
  Alcotest.(check bool) "no quarantines on a clean run" true
    (r.Harness.report.Harness.quarantined = []);
  Alcotest.(check int) "budget recorded in the report" b
    r.Harness.report.Harness.watchdog_budget

let test_injected_exception_is_a_crash () =
  (* raise@P:K delivers Faults.Injected, which validation treats as a
     modeled crash — excusable with survivors_only — not as a bug. *)
  let spec = racing_spec ~n:4 ~m:2 ~f:2 ~d:0 [ i 1; i 2 ] in
  let r =
    Harness.run
      ~faults:
        [
          {
            Rsim_faults.Faults.pid = 1;
            at_op = 2;
            action = Rsim_faults.Faults.Raise_exn;
          };
        ]
      ~sched:Schedule.round_robin spec
  in
  (match r.Harness.statuses.(1) with
  | Rsim_runtime.Prog.Failed e ->
    Alcotest.(check bool) "the injected exception" true
      (Rsim_faults.Faults.is_injected e)
  | _ -> Alcotest.fail "expected Failed (Injected _)");
  (match Harness.validate spec r ~task:Task.consensus with
  | Error (Harness.Simulator_crashed { sims = [ 1 ] }) -> ()
  | Error e ->
    Alcotest.failf "expected Simulator_crashed: %s" (Harness.explain e)
  | Ok () -> Alcotest.fail "strict validation must flag the injected crash");
  match Harness.validate ~survivors_only:true spec r ~task:Task.consensus with
  | Ok () -> ()
  | Error e -> Alcotest.failf "survivors should pass: %s" (Harness.explain e)

(* ---- the Lemma 26 replay against its reference ---- *)

(* [Analysis.check] and the hash-table replay kept in analysis_ref.ml
   must give equal reports. *)
let compare_with_reference mismatches what spec r =
  let got = Analysis.check spec r and want = Analysis_ref.check spec r in
  if got <> want then
    mismatches :=
      Format.asprintf "%s:@.got %a@.want %a" what Analysis.pp_report got
        Analysis.pp_report want
      :: !mismatches;
  want

let contains ~sub s =
  let n = String.length sub in
  let rec go k =
    k + n <= String.length s && (String.sub s k n = sub || go (k + 1))
  in
  go 0

(* [r] with simulator [i]'s journal events rewritten by [f]. *)
let with_journal r i f =
  let journals = Array.copy r.Harness.journals in
  journals.(i) <- f journals.(i);
  { r with Harness.journals }

(* [events] with the first one that [f] rewrites ([Some e']) replaced. *)
let rewrite_first f events =
  let rec go = function
    | [] -> Alcotest.fail "no journal event to tamper with"
    | e :: rest -> ( match f e with Some e' -> e' :: rest | None -> e :: go rest)
  in
  go events

let test_analysis_matches_reference () =
  let mismatches = ref [] in
  (* reduce's 11 racing shapes, up to n=16 m=4 f=4. *)
  List.iter
    (fun (n, m, f, d) ->
      let spec = racing_spec ~n ~m ~f ~d (List.init f (fun p -> i (p + 1))) in
      for seed = 1 to 10 do
        let r = Harness.run ~sched:(Schedule.random ~seed) spec in
        ignore
          (compare_with_reference mismatches
             (Printf.sprintf "racing n=%d m=%d f=%d d=%d seed %d" n m f d seed)
             spec r)
      done)
    [
      (2, 2, 1, 0); (4, 2, 2, 0); (6, 3, 2, 0); (5, 2, 3, 1); (7, 2, 4, 1);
      (7, 5, 2, 1); (8, 2, 4, 0); (10, 3, 3, 1); (12, 3, 4, 0); (13, 4, 3, 1);
      (16, 4, 4, 0);
    ];
  (* Every execution of the crashy racing sweep, complete or not, of
     the same sweep under stalls, whose runs complete and replay, and
     under restarts, whose completed runs the replay refuses. *)
  let replayed = ref 0 in
  let refused = ref 0 in
  List.iter
    (fun profile ->
      let faults =
        match Rsim_faults.Faults.resolve ~n_procs:2 ~seed:11 profile with
        | Ok fs -> fs
        | Error e -> Alcotest.failf "%s profile failed to resolve: %s" profile e
      in
      let swept = ref 0 in
      let reference : Rsim_explore.Explore.Harness_target.exec
          Rsim_explore.Explore.Oracle.t =
        {
          name = "analysis-reference";
          on_truncated = true;
          check =
            (fun { result = hspec, result; _ } ->
              incr swept;
              let want =
                compare_with_reference mismatches (profile ^ " racing sweep")
                  hspec result
              in
              if want.Analysis.stats.Analysis.n_lin_items > 0 then
                incr replayed;
              (* A completed run with a restart is refused, with one
                 error that names the restart. *)
              (if
                 result.Harness.all_done
                 && List.exists
                      (function
                        | Rsim_runtime.Prog.Ev_restart _ -> true | _ -> false)
                      result.Harness.report.Harness.events
               then
                 match want with
                 | { Analysis.ok = false; errors = [ e ]; _ }
                   when contains ~sub:"does not model restarts" e ->
                   incr refused
                 | _ ->
                   mismatches :=
                     Format.asprintf "%s: restarted run not refused:@.%a"
                       profile Analysis.pp_report want
                     :: !mismatches);
              []);
        }
      in
      ignore
        (Rsim_explore.Explore.sweep ~domains:1 ~max_steps:400 ~budget:60
           ~seed:7
           (Rsim_explore.Explore.Harness_target.racing ~oracles:[ reference ]
              ~faults ~n:4 ~m:2 ~f:2 ~d:0 ()));
      Alcotest.(check int) (profile ^ ": every sweep execution compared") 60
        !swept)
    [ "crashy"; "stally"; "restarting" ];
  Alcotest.(check bool)
    (Printf.sprintf "%d faulted executions replayed" !replayed)
    true (!replayed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d restarted executions refused" !refused)
    true (!refused > 0);
  (* Tampered results that reach the error paths, on a run with
     revisions (n=16 m=4 f=4, seed 3). *)
  let spec =
    racing_spec ~n:16 ~m:4 ~f:4 ~d:0 (List.init 4 (fun p -> i (p + 1)))
  in
  let r = Harness.run ~sched:(Schedule.random ~seed:3) spec in
  let clean = compare_with_reference mismatches "untampered" spec r in
  Alcotest.(check bool) "untampered run replays, with revisions" true
    (clean.Analysis.ok && clean.Analysis.stats.Analysis.n_revisions > 0);
  let reviser =
    match
      List.find_opt
        (fun k ->
          List.exists
            (function
              | Journal.Jrevise { zeta; _ } ->
                List.exists (function Journal.Zscan _ -> true | _ -> false) zeta
              | _ -> false)
            r.Harness.journals.(k))
        (List.init 4 Fun.id)
    with
    | Some k -> k
    | None -> Alcotest.fail "no revision with a hidden scan"
  in
  let ops = ops_of r reviser in
  let scan_serial =
    1
    + Option.get
        (List.find_index
           (function Aug.Scan_op _ -> true | Aug.Bu_op _ -> false)
           ops)
  in
  (* [r] with the reviser's first revision sourced from [serial]. *)
  let sourced serial =
    with_journal r reviser
      (rewrite_first (function
        | Journal.Jrevise e ->
          Some (Journal.Jrevise { e with source_serial = serial })
        | _ -> None))
  in
  let tampered =
    [
      ( "revision sourced from a Scan",
        "which is not an atomic Block-Update",
        sourced scan_serial );
      ( "revision sourced from serial 0",
        "which is not an atomic Block-Update",
        sourced 0 );
      ( "revision sourced past the last M-op",
        "which is not an atomic Block-Update",
        sourced (List.length ops + 1) );
      ( "flipped hidden view",
        "Lemma 26 (hidden scan)",
        with_journal r reviser
          (rewrite_first (function
            | Journal.Jrevise ({ zeta; _ } as e)
              when List.exists
                     (function Journal.Zscan _ -> true | _ -> false)
                     zeta ->
              let zeta =
                List.map
                  (function
                    | Journal.Zscan view ->
                      Journal.Zscan (Array.map (fun _ -> i (-1)) view)
                    | z -> z)
                  zeta
              in
              Some (Journal.Jrevise { e with zeta })
            | _ -> None)) );
      ( "changed reported output",
        "reported",
        {
          r with
          Harness.outputs =
            List.map (fun (k, _) -> (k, i (-1))) r.Harness.outputs;
        } );
    ]
  in
  List.iter
    (fun (what, sub, r') ->
      let want = compare_with_reference mismatches what spec r' in
      Alcotest.(check bool)
        (Printf.sprintf "%s: the reference reports %S" what sub)
        true
        ((not want.Analysis.ok)
        && List.exists (contains ~sub) want.Analysis.errors))
    tampered;
  match !mismatches with
  | [] -> ()
  | first :: _ ->
    Alcotest.failf "%d reports differ from the reference; e.g. %s"
      (List.length !mismatches) first

(* ---- golden pin: what a simulation run reports ----

   Digests of everything a run reports — trace (pid, operation, result),
   journals, outputs, statuses, fault events, per-simulator operations
   and Block-Updates, quarantines — over the benchmark's reduce shapes,
   seeds 0-9, clean and under the crashy profile, recorded when the
   simulators were direct-style fibers. A digest that moves is a change
   of behaviour, not a reason to record a new one. *)

module Hrep = Rsim_augmented.Hrep
module Vts = Rsim_augmented.Vts
module Faults = Rsim_faults.Faults

let values a = String.concat "," (Array.to_list (Array.map Value.show a))

let updates us =
  String.concat ";"
    (List.map (fun (j, v) -> Printf.sprintf "%d=%s" j (Value.show v)) us)

(* A snapshot of H is a prefix of the run's own appends, so its
   per-component lengths pin it down. *)
let snap (s : Hrep.snap) =
  String.concat ","
    (Array.to_list
       (Array.map
          (fun (c : Hrep.component) ->
            Printf.sprintf "%d/%d" c.Hrep.n_triples (List.length c.Hrep.lrecords))
          s))

let render_op = function
  | Aug.Ops.Hscan -> "S"
  | Aug.Ops.Happend_triples trs ->
    "T"
    ^ String.concat ";"
        (List.map
           (fun (t : Hrep.triple) ->
             Printf.sprintf "%d=%s@%s" t.Hrep.comp (Value.show t.Hrep.value)
               (Vts.show t.Hrep.ts))
           trs)
  | Aug.Ops.Happend_lrecords recs ->
    "L"
    ^ String.concat ";"
        (List.map
           (fun (r : Hrep.lrecord) ->
             Printf.sprintf "%d.%d:%s" r.Hrep.dest r.Hrep.index (snap r.Hrep.payload))
           recs)

let render_res = function Aug.Ops.Snap s -> "H" ^ snap s | Aug.Ops.Ack -> "A"

let zeta z =
  String.concat ";"
    (List.map
       (function
         | Journal.Zscan v -> "s" ^ values v
         | Journal.Zupdate (j, v) -> Printf.sprintf "u%d=%s" j (Value.show v))
       z)

let render_event = function
  | Journal.Jrevise { after_serial; proc; source_serial; zeta = z } ->
    Printf.sprintf "R%d.%d.%d[%s]" after_serial proc source_serial (zeta z)
  | Journal.Jfinal { beta; xi; output } ->
    Printf.sprintf "F[%s][%s]%s" (updates beta) (zeta xi) (Value.show output)
  | Journal.Jdecided { proc; value } ->
    Printf.sprintf "D%d=%s" proc (Value.show value)

(* Simulator [sim]'s journal as it read when it also listed the
   simulator's M-operations: each of them by serial, a Scan as [S] and a
   Block-Update as [B], each revision right after its [after_serial]-th
   operation, and the final block or adopted output after the last. *)
let render_journal (r : Harness.result) sim =
  let op serial = function
    | Aug.Scan_op { view; _ } -> Printf.sprintf "S%d[%s]" serial (values view)
    | Aug.Bu_op { updates = us; result; _ } ->
      Printf.sprintf "B%d[%s]%b" serial (updates us)
        (match result with Aug.Atomic _ -> true | Aug.Yield -> false)
  in
  let rec go serial ops events =
    match (ops, events) with
    | _, (Journal.Jrevise { after_serial; _ } as ev) :: events
      when after_serial <= serial ->
      render_event ev :: go serial ops events
    | mop :: ops, _ -> op (serial + 1) mop :: go (serial + 1) ops events
    | [], ev :: events -> render_event ev :: go serial [] events
    | [], [] -> []
  in
  String.concat " " (go 0 (ops_of r sim) r.Harness.journals.(sim))

let render_status = function
  | Rsim_runtime.Prog.Done -> "done"
  | Rsim_runtime.Prog.Pending -> "pending"
  | Rsim_runtime.Prog.Crashed -> "crashed"
  | Rsim_runtime.Prog.Failed e -> "failed " ^ Printexc.to_string e

let render_fault_event = function
  | Rsim_runtime.Prog.Ev_crash { pid; at; restarting } ->
    Printf.sprintf "c%d@%d%b" pid at restarting
  | Rsim_runtime.Prog.Ev_restart { pid; at; incarnation } ->
    Printf.sprintf "r%d@%d#%d" pid at incarnation
  | Rsim_runtime.Prog.Ev_stall { pid; at; steps } ->
    Printf.sprintf "s%d@%d*%d" pid at steps
  | Rsim_runtime.Prog.Ev_replace { pid; at } -> Printf.sprintf "p%d@%d" pid at
  | Rsim_runtime.Prog.Ev_raise { pid; at } -> Printf.sprintf "x%d@%d" pid at

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* Everything a run reports, as text. *)
let render (r : Harness.result) =
  let b = Buffer.create 4096 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  List.iter
    (fun (e : Aug.Prog.trace_entry) ->
      add (Printf.sprintf "%d %s %s" e.pid (render_op e.op) (render_res e.res)))
    r.Harness.trace;
  Array.iteri
    (fun i _ -> add (Printf.sprintf "journal %d: %s" i (render_journal r i)))
    r.Harness.journals;
  add
    (String.concat " "
       (List.map (fun (i, v) -> Printf.sprintf "%d=%s" i (Value.show v)) r.Harness.outputs));
  add (String.concat " " (Array.to_list (Array.map render_status r.Harness.statuses)));
  add
    (String.concat " "
       (List.map render_fault_event r.Harness.report.Harness.events));
  add (ints r.Harness.ops_per_sim);
  add (ints r.Harness.bu_counts);
  add
    (String.concat " "
       (List.map
          (fun (q : Harness.quarantine) ->
            Printf.sprintf "%d@%d:%s" q.Harness.sim q.Harness.at_op q.Harness.reason)
          r.Harness.report.Harness.quarantined));
  add (Printf.sprintf "%d %b" r.Harness.total_ops r.Harness.all_done);
  Buffer.contents b

(* The digest of seeds 0-9 of one shape, clean or under the crashy
   profile, and with a watchdog budget if given. *)
let golden_digest ?watchdog ~crashy (n, m, f, d) =
  let spec = racing_spec ~n ~m ~f ~d (List.init f (fun p -> i (p + 1))) in
  let b = Buffer.create 65536 in
  for seed = 0 to 9 do
    let faults =
      if crashy then Option.get (Faults.named "crashy" ~n_procs:f ~seed) else []
    in
    let r = Harness.run ~faults ?watchdog ~sched:(Schedule.random ~seed) spec in
    Buffer.add_string b (render r)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden () =
  (* The shapes of the benchmark's reduce workload, with their clean and
     crashy digests. *)
  let digests =
    [
      ((2, 2, 1, 0), "7e89a7898b5a305c91509eb67c9620e2", "cdc57b46251b68733edd16aff17bbada");
      ((4, 2, 2, 0), "909614091360c41ac19f8c64de9a62aa", "61191bea1e640275b81dff25659721a8");
      ((6, 3, 2, 0), "8051c78d04ad7bb98cbd303d2ebcdb57", "3a2d404a1c98ffe90e566011b24d4e74");
      ((5, 2, 3, 1), "19b5e995b0df314a54e8ff4b53469232", "07ec77724b3c3ba63031345f008890df");
      ((7, 2, 4, 1), "56f4cb81509f412cd3d55281bfdcb093", "d4c474cfa9e5544df2f09b41ec16f6b6");
      ((7, 5, 2, 1), "0abe70af7f07799aebaeb561c5f747eb", "7538a2561ed25b0f1b2c6c5a3676bd9d");
      ((8, 2, 4, 0), "fd3f23db85494182740d2533fc976ad1", "6986c1205f139688a3be7b1da9990d43");
      ((10, 3, 3, 1), "78c2cffe3a4b513d35b423b2bab5da3c", "47d07d2b13391ccbdc7cd83db88906b4");
      ((12, 3, 4, 0), "7d7d9a583ed87ec644ced118b1305655", "e9dcad5aec6e2b6cd8407998e88b7e9c");
      ((13, 4, 3, 1), "e2a10fd7c2f6782d3754cce1cea550e8", "fbf95a52175f3c073537d411ea7b9d8e");
      ((16, 4, 4, 0), "318e96996aad31cd4927857f49425efd", "79cdcb6aa7d7ed034c1031a18a84cc79");
    ]
  in
  List.iter
    (fun (((n, m, f, d) as shape), clean, crashy) ->
      let what = Printf.sprintf "n=%d m=%d f=%d d=%d" n m f d in
      Alcotest.(check string) (what ^ ", clean") clean
        (golden_digest ~crashy:false shape);
      Alcotest.(check string) (what ^ ", crashy") crashy
        (golden_digest ~crashy:true shape))
    digests;
  (* A watchdog budget of 40 H-operations quarantines simulators on
     this shape (on 9 of the 10 seeds). *)
  let spec = racing_spec ~n:6 ~m:3 ~f:2 ~d:0 [ i 1; i 2 ] in
  let quarantined =
    List.init 10 (fun seed ->
        (Harness.run ~watchdog:40 ~sched:(Schedule.random ~seed) spec).Harness.report
          .Harness.quarantined)
  in
  Alcotest.(check bool) "the watchdog quarantines" true
    (List.exists (fun q -> q <> []) quarantined);
  Alcotest.(check string) "n=6 m=3 f=2 d=0, watchdog 40"
    "82b50ad30d66a56b4e0a753f08854322"
    (golden_digest ~watchdog:40 ~crashy:false (6, 3, 2, 0))

let () =
  Alcotest.run "simulation"
    [
      ( "reference",
        [
          Alcotest.test_case "Lemma 26 replay matches the reference" `Quick
            test_analysis_matches_reference;
          Alcotest.test_case "golden digests" `Quick test_golden;
        ] );
      ( "structure",
        [
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "a(r)" `Quick test_complexity_a;
          Alcotest.test_case "a(r) closed form" `Quick test_complexity_closed_form;
          Alcotest.test_case "b(i)" `Quick test_complexity_b;
          Alcotest.test_case "b(i) closed-form envelope" `Quick
            test_complexity_b_closed_form_bound;
          Alcotest.test_case "saturation" `Quick test_complexity_saturation;
        ] );
      ( "covering",
        [
          Alcotest.test_case "single simulator" `Quick test_single_covering;
          Alcotest.test_case "final block path" `Quick test_final_block_path;
          Alcotest.test_case "two covering" `Quick test_two_covering_simulators;
          Alcotest.test_case "covering + direct" `Quick test_covering_plus_direct;
          Alcotest.test_case "k-set regime" `Quick test_kset_regime;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "Lemma 30 BU counts" `Quick test_bu_counts_within_lemma30;
          Alcotest.test_case "Lemma 31 step bound" `Quick test_step_bound_lemma31;
        ] );
      ( "witness",
        [
          Alcotest.test_case "too little space breaks" `Quick
            test_witness_disagreement_exists;
          Alcotest.test_case "enough space holds" `Quick
            test_sufficient_space_no_witness;
          Alcotest.test_case "lockstep breaks racing deterministically" `Quick
            test_phase_shifted_breaks_racing;
          Alcotest.test_case "stale writer breaks m<n" `Quick
            test_stale_writer_breaks_undersized;
          Alcotest.test_case "adopt2 survives covering adversaries" `Quick
            test_adopt2_survives_covering_adversaries;
        ] );
      ( "degenerate shapes",
        [
          Alcotest.test_case "all-direct simulators" `Quick test_all_direct_simulators;
          Alcotest.test_case "trace pretty-printer" `Quick test_trace_pp_renders;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "non-OF protocol fails loudly" `Quick
            test_non_of_protocol_fails_loudly;
          Alcotest.test_case "instant-output protocol" `Quick test_constant_protocol;
        ] );
      ( "integration",
        [
          Alcotest.test_case "approx through simulation" `Quick
            test_approx_through_simulation;
        ] );
      ( "fault plane",
        [
          Alcotest.test_case "strict vs survivors validation" `Quick
            test_crashed_simulator_strict_vs_survivors;
          Alcotest.test_case "crash at every op, survivor valid" `Quick
            test_crash_at_every_op_survivor_valid;
          Alcotest.test_case "stall is harmless" `Quick
            test_stalled_simulator_still_validates;
          Alcotest.test_case "watchdog quarantine" `Quick test_watchdog_quarantine;
          Alcotest.test_case "default watchdog bound" `Quick
            test_default_watchdog_bound;
          Alcotest.test_case "injected exception is a crash" `Quick
            test_injected_exception_is_a_crash;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_simulation_sound; prop_simulation_deterministic ] );
    ]
