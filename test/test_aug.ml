open Rsim_value
open Rsim_shmem
open Rsim_augmented

(* The §3 report of the index [aug] recorded as it ran. *)
let report aug = Aug_spec.report (Aug.index aug)

let check_spec name aug =
  let report = report aug in
  if not report.Aug_spec.ok then
    Alcotest.failf "%s: spec violations:@.%a" name Aug_spec.pp_report report

(* Run one program per process against [aug]. *)
let run ?max_ops ~sched aug programs =
  let r =
    Aug.Prog.start ?max_ops ~apply:(Aug.apply aug) ~emit:(Aug.record aug)
      programs
  in
  Aug.Prog.run ~sched r;
  Aug.Prog.current r

let ( let* ) = Aug.Prog.bind
let return = Aug.Prog.return

(* A Block-Update or a Scan by [me], as a whole program. *)
let bu aug ~me updates =
  let* _ = Aug.block_update_prog (Aug.config aug) ~me updates in
  return ()

let scan aug ~me =
  let* _ = Aug.scan_prog (Aug.config aug) ~me in
  return ()

let no_failures (result : Aug.Prog.result) =
  Array.iter
    (function
      | Rsim_runtime.Prog.Failed e -> raise e
      | Rsim_runtime.Prog.Done | Rsim_runtime.Prog.Pending
      | Rsim_runtime.Prog.Crashed -> ())
    result.statuses

(* ---- solo behaviour ---- *)

let test_solo_basic () =
  let views = ref [] in
  let aug = Aug.create ~f:1 ~m:3 () in
  let result =
    run ~sched:Schedule.round_robin aug
      [
        (let cfg = Aug.config aug in
         let* r = Aug.block_update_prog cfg ~me:0 [ (0, Value.Int 1); (2, Value.Int 3) ] in
         (match r with
         | `View v -> views := ("bu", v) :: !views
         | `Yield -> Alcotest.fail "q0 must be atomic");
         let* v = Aug.scan_prog cfg ~me:0 in
         views := ("scan", v) :: !views;
         return ());
      ]
  in
  no_failures result;
  (match List.assoc_opt "bu" !views with
  | Some v ->
    Alcotest.(check bool) "BU returned the initial view" true
      (Array.for_all Value.is_bot v)
  | None -> Alcotest.fail "no BU view");
  (match List.assoc_opt "scan" !views with
  | Some v ->
    Alcotest.(check bool) "scan sees comp 0" true (Value.equal v.(0) (Value.Int 1));
    Alcotest.(check bool) "scan sees comp 2" true (Value.equal v.(2) (Value.Int 3));
    Alcotest.(check bool) "comp 1 untouched" true (Value.is_bot v.(1))
  | None -> Alcotest.fail "no scan view");
  check_spec "solo" aug

let test_bu_step_count () =
  let aug = Aug.create ~f:2 ~m:2 () in
  let result =
    run ~sched:Schedule.round_robin aug
      [ bu aug ~me:0 [ (0, Value.Int 1) ]; bu aug ~me:1 [ (1, Value.Int 2) ] ]
  in
  no_failures result;
  List.iter
    (function
      | Aug.Bu_op { n_ops; result = Aug.Atomic _; _ } ->
        Alcotest.(check int) "atomic BU takes 6 steps" 6 n_ops
      | Aug.Bu_op { n_ops; result = Aug.Yield; _ } ->
        Alcotest.(check int) "yield BU takes 5 steps" 5 n_ops
      | Aug.Scan_op _ -> ())
    (Aug.log aug);
  check_spec "step count" aug

let test_forced_yield () =
  (* q1 starts a Block-Update (performs its line-2 scan), then q0 performs
     a complete Block-Update, then q1 resumes: q1 must observe the
     lower-identifier update and return Y. *)
  let q1_result = ref None in
  let aug = Aug.create ~f:2 ~m:2 () in
  let sched = Schedule.script [ 1; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 1 ] in
  let result =
    run ~sched aug
      [
        bu aug ~me:0 [ (0, Value.Int 10) ];
        (let* r = Aug.block_update_prog (Aug.config aug) ~me:1 [ (1, Value.Int 20) ] in
         q1_result := Some r;
         return ());
      ]
  in
  no_failures result;
  (match !q1_result with
  | Some `Yield -> ()
  | Some (`View _) -> Alcotest.fail "q1 should have yielded"
  | None -> Alcotest.fail "q1 did not finish");
  check_spec "forced yield" aug

let test_no_yield_without_contention () =
  (* Sequential Block-Updates never yield. *)
  let aug = Aug.create ~f:3 ~m:3 () in
  let results = Array.make 3 None in
  let result =
    run ~sched:(Schedule.script (List.concat_map (fun p -> List.init 6 (fun _ -> p)) [ 2; 1; 0; 2; 0 ]))
      aug
      (List.map
         (fun (me, first, rest) ->
           let* r = Aug.block_update_prog (Aug.config aug) ~me [ first ] in
           results.(me) <- Some r;
           match rest with None -> return () | Some u -> bu aug ~me [ u ])
         [
           (0, (0, Value.Int 1), Some (1, Value.Int 2));
           (1, (1, Value.Int 3), None);
           (2, (2, Value.Int 4), Some (0, Value.Int 5));
         ])
  in
  no_failures result;
  Array.iteri
    (fun i r ->
      match r with
      | Some (`View _) -> ()
      | Some `Yield -> Alcotest.failf "q%d yielded without step contention" i
      | None -> ())
    results;
  check_spec "sequential" aug

let test_higher_id_does_not_force_yield () =
  (* q1's complete Block-Update inside q0's interval must NOT make q0
     yield (q0 has no lower-identifier process). *)
  let q0_result = ref None in
  let aug = Aug.create ~f:2 ~m:2 () in
  let sched = Schedule.script [ 0; 1; 1; 1; 1; 1; 1; 0; 0; 0; 0; 0 ] in
  let result =
    run ~sched aug
      [
        (let* r = Aug.block_update_prog (Aug.config aug) ~me:0 [ (0, Value.Int 10) ] in
         q0_result := Some r;
         return ());
        bu aug ~me:1 [ (1, Value.Int 20) ];
      ]
  in
  no_failures result;
  (match !q0_result with
  | Some (`View _) -> ()
  | Some `Yield -> Alcotest.fail "q0 yielded"
  | None -> Alcotest.fail "q0 did not finish");
  check_spec "higher id" aug

let test_scan_sees_last_update () =
  let aug = Aug.create ~f:2 ~m:2 () in
  let seen = ref [||] in
  let result =
    run ~sched:(Schedule.script (List.init 6 (fun _ -> 0) @ List.init 10 (fun _ -> 1)))
      aug
      [
        bu aug ~me:0 [ (0, Value.Int 7) ];
        (let* v = Aug.scan_prog (Aug.config aug) ~me:1 in
         seen := v;
         return ());
      ]
  in
  no_failures result;
  Alcotest.(check bool) "scan after BU sees it" true
    (Value.equal !seen.(0) (Value.Int 7));
  check_spec "scan sees update" aug

let test_block_update_validation () =
  (* A malformed Block-Update is refused when its program is built,
     before it issues any operation. *)
  let cfg = Aug.config (Aug.create ~f:1 ~m:2 ()) in
  List.iter
    (fun (what, updates) ->
      Alcotest.(check bool) what true
        (match Aug.block_update_prog cfg ~me:0 updates with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("empty update list", []);
      ("repeated component", [ (0, Value.Bot); (0, Value.Bot) ]);
      ("component out of range", [ (5, Value.Bot) ]);
    ]

(* ---- exhaustive model checking over ALL interleavings ---- *)

(* Enumerate every complete interleaving of the given programs by DFS
   over schedule prefixes, replaying from scratch each time (programs
   are tiny, so this is cheap, and it keeps this check independent of
   the exploration engine's saved states). Each complete execution is
   checked against the full §3 specification. *)
let exhaustive_check ~f ~m ~bodies ~max_len =
  let executions = ref 0 in
  let replay script =
    let aug = Aug.create ~f ~m () in
    let result =
      run ~max_ops:(max_len + 1) ~sched:(Schedule.script script) aug
        (bodies aug)
    in
    (aug, result)
  in
  let rec explore script =
    if List.length script > max_len then
      Alcotest.failf "exhaustive: schedule exceeded %d steps" max_len
    else begin
      let aug, result = replay script in
      let live =
        List.filter
          (fun pid -> result.Aug.Prog.statuses.(pid) = Rsim_runtime.Prog.Pending)
          (List.init f Fun.id)
      in
      (* Only branch when the whole script was consumed; a script that
         ends early (every process done) is a complete execution. *)
      if live = [] then begin
        incr executions;
        no_failures result;
        let report = report aug in
        if not report.Aug_spec.ok then
          Alcotest.failf "exhaustive: script [%s] violates the spec:@.%a"
            (String.concat ";" (List.map string_of_int script))
            Aug_spec.pp_report report
      end
      else
        List.iter (fun pid -> explore (script @ [ pid ])) live
    end
  in
  explore [];
  !executions

let test_exhaustive_two_bus () =
  let bodies aug =
    [ bu aug ~me:0 [ (0, Value.Int 1) ]; bu aug ~me:1 [ (0, Value.Int 2) ] ]
  in
  let n = exhaustive_check ~f:2 ~m:2 ~bodies ~max_len:16 in
  Alcotest.(check bool)
    (Printf.sprintf "all %d interleavings of two conflicting BUs pass" n)
    true (n > 200)

let test_exhaustive_bu_vs_scan () =
  let bodies aug =
    [ bu aug ~me:0 [ (0, Value.Int 1); (1, Value.Int 2) ]; scan aug ~me:1 ]
  in
  let n = exhaustive_check ~f:2 ~m:2 ~bodies ~max_len:20 in
  Alcotest.(check bool)
    (Printf.sprintf "all %d interleavings of BU vs Scan pass" n)
    true (n > 100)

let test_exhaustive_bu_then_scan_each () =
  let bodies aug =
    [
      (let* () = bu aug ~me:0 [ (0, Value.Int 1) ] in
       scan aug ~me:0);
      bu aug ~me:1 [ (1, Value.Int 2) ];
    ]
  in
  let n = exhaustive_check ~f:2 ~m:2 ~bodies ~max_len:24 in
  Alcotest.(check bool)
    (Printf.sprintf "all %d interleavings of BU;Scan vs BU pass" n)
    true (n > 500)

(* ---- randomized adversarial workloads, checked against the spec ---- *)

(* [n_ops] M-operations of process [pid]: a Scan with probability 1/3,
   else a Block-Update to between 1 and 3 distinct components. *)
let random_body ~aug ~n_ops ~seed pid =
  Aug.random_prog (Aug.config aug) ~me:pid ~seed:(seed + (1000 * pid))
    ~ops:n_ops ~max_comps:3 ~values:100

let random_workload_case ~f ~m ~n_ops ~seed () =
  let aug = Aug.create ~f ~m () in
  let result =
    run ~max_ops:20_000
      ~sched:(Schedule.random ~seed) aug
      (List.init f (random_body ~aug ~n_ops ~seed))
  in
  no_failures result;
  check_spec (Printf.sprintf "random f=%d m=%d seed=%d" f m seed) aug

let prop_random_workloads =
  QCheck.Test.make ~name:"random workloads satisfy the §3 spec" ~count:40
    QCheck.(triple (int_bound 10_000) (int_range 2 4) (int_range 2 4))
    (fun (seed, f, m) ->
      let aug = Aug.create ~f ~m () in
      let result =
        run ~max_ops:20_000
          ~sched:(Schedule.random ~seed) aug
          (List.init f (random_body ~aug ~n_ops:6 ~seed))
      in
      no_failures result;
      let report = report aug in
      if not report.Aug_spec.ok then
        QCheck.Test.fail_reportf "spec violations: %a" Aug_spec.pp_report report
      else true)

let prop_scripted_schedules =
  (* Arbitrary fixed pid scripts — including starving, truncating ones:
     the spec must hold on whatever prefix of the execution ran. *)
  QCheck.Test.make ~name:"random scripted schedules satisfy the §3 spec"
    ~count:40
    QCheck.(triple (int_bound 10_000) (int_range 1 4) (int_range 1 4))
    (fun (seed, f, m) ->
      let g = ref (Prng.make (seed + 77)) in
      let draw n =
        let k, g' = Prng.int !g n in
        g := g';
        k
      in
      let script = List.init (10 + draw (30 * f)) (fun _ -> draw f) in
      let aug = Aug.create ~f ~m () in
      ignore
        (run ~max_ops:20_000
           ~sched:(Schedule.script script) aug
           (List.init f (random_body ~aug ~n_ops:3 ~seed)));
      let report = report aug in
      if not report.Aug_spec.ok then
        QCheck.Test.fail_reportf "script [%s]: spec violations: %a"
          (String.concat ";" (List.map string_of_int script))
          Aug_spec.pp_report report
      else true)

let prop_crashy_schedules =
  (* Crash-prone adversaries: each process may be killed after a random
     number of steps, possibly mid-Block-Update. The surviving
     operations must still satisfy the spec (Corollary 15 included). *)
  QCheck.Test.make ~name:"random crashy schedules satisfy the §3 spec"
    ~count:40
    QCheck.(triple (int_bound 10_000) (int_range 1 4) (int_range 1 4))
    (fun (seed, f, m) ->
      let g = ref (Prng.make (seed + 333)) in
      let draw n =
        let k, g' = Prng.int !g n in
        g := g';
        k
      in
      let crashes =
        List.filter_map
          (fun pid -> if draw 2 = 0 then Some (pid, 1 + draw 12) else None)
          (List.init f Fun.id)
      in
      let aug = Aug.create ~f ~m () in
      ignore
        (run ~max_ops:20_000
           ~sched:(Schedule.with_crashes crashes (Schedule.random ~seed)) aug
           (List.init f (random_body ~aug ~n_ops:4 ~seed)));
      let report = report aug in
      if not report.Aug_spec.ok then
        QCheck.Test.fail_reportf "crashes [%s]: spec violations: %a"
          (String.concat ";"
             (List.map (fun (p, k) -> Printf.sprintf "%d@%d" p k) crashes))
          Aug_spec.pp_report report
      else true)

let prop_deterministic =
  QCheck.Test.make ~name:"aug executions deterministic in the seed" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let go () =
        let aug = Aug.create ~f:3 ~m:2 () in
        let result =
          run ~max_ops:5_000
            ~sched:(Schedule.random ~seed) aug
            (List.init 3 (random_body ~aug ~n_ops:4 ~seed))
        in
        List.map (fun (e : Aug.Prog.trace_entry) -> e.pid) result.trace
      in
      go () = go ())

let test_scan_blocked_by_updates () =
  (* A Scan interleaved with continuous Block-Updates takes extra
     iterations but its step count stays within 2k+3 (Lemma 2). *)
  let aug = Aug.create ~f:2 ~m:2 () in
  (* q1 scans; q0 does 3 BUs. Interleave: give q1 one op, then q0 six,
     repeatedly. *)
  let pattern =
    [ 1; 0; 0; 0; 0; 0; 0; 1; 1; 0; 0; 0; 0; 0; 0; 1; 1; 0; 0; 0; 0; 0; 0 ]
    @ List.init 10 (fun _ -> 1)
  in
  let result =
    run ~sched:(Schedule.script pattern) aug
      [
        (let* () = bu aug ~me:0 [ (0, Value.Int 1) ] in
         let* () = bu aug ~me:0 [ (0, Value.Int 2) ] in
         bu aug ~me:0 [ (0, Value.Int 3) ]);
        scan aug ~me:1;
      ]
  in
  no_failures result;
  check_spec "scan under contention" aug;
  let scan_ops =
    List.filter_map
      (function Aug.Scan_op { n_ops; _ } -> Some n_ops | Aug.Bu_op _ -> None)
      (Aug.log aug)
  in
  (match scan_ops with
  | [ n ] -> Alcotest.(check bool) "scan retried" true (n > 3)
  | _ -> Alcotest.fail "expected exactly one completed scan")

(* ---- the checker against its quadratic reference ---- *)

(* Tallies of one corpus: reports compared, reports failing, and a
   description of every report that differs from the reference. *)
type tally = {
  mutable compared : int;
  mutable failing : int;
  mutable mismatches : string list;
}

(* The two checkers' linearizations, in one comparable form. *)
let lin_items ix =
  let items = ref [] in
  Aug_spec.iter_lin ix
    ~update:(fun u ->
      items :=
        `Update
          ( u.u_writer,
            Vts.to_array u.u_ts,
            u.u_comp,
            u.u_value,
            u.u_x_idx,
            u.u_lin )
        :: !items)
    ~scan:(fun s -> items := `Scan (s.s_proc, s.s_view, s.s_end) :: !items);
  List.rev !items

let ref_lin_item = function
  | Aug_spec_ref.L_scan { proc; view; end_idx } -> `Scan (proc, view, end_idx)
  | Aug_spec_ref.L_update { writer; ts; comp; value; x_idx; lin_idx } ->
    `Update (writer, Vts.to_array ts, comp, value, x_idx, lin_idx)

(* Compare the report and linearization of [ix], the index [aug]
   recorded (by default judged here), with the reference's on [aug] and
   [trace]. *)
let compare_with_reference tally what ?got ix aug trace =
  let got =
    match got with Some got -> Lazy.force got | None -> Aug_spec.report ix
  in
  let want = Aug_spec_ref.check aug trace in
  tally.compared <- tally.compared + 1;
  if not want.Aug_spec.ok then tally.failing <- tally.failing + 1;
  if got <> want then
    tally.mismatches <-
      Format.asprintf "%s:@.got %a@.want %a" what Aug_spec.pp_report got
        Aug_spec.pp_report want
      :: tally.mismatches;
  let got = lin_items ix in
  let want = List.map ref_lin_item (Aug_spec_ref.linearize aug trace) in
  if got <> want then
    tally.mismatches <-
      Printf.sprintf "%s: linearizations differ (%d items, want %d)" what
        (List.length got) (List.length want)
      :: tally.mismatches

(* An oracle that judges nothing and compares the engine's own report
   and index, the ones every other oracle reads, with the reference on
   every execution the engine produces, complete or truncated: the run
   extended that index hop by hop. [trace] reads a result's trace. *)
let reference_oracle tally ~trace : _ Rsim_explore.Explore.Oracle.t =
  {
    name = "spec-reference";
    on_truncated = true;
    check =
      (fun ({ aug; result; index; spec_report; _ } :
             _ Rsim_explore.Explore.exec) ->
        compare_with_reference tally "explored execution" ~got:spec_report
          index aug (trace result);
        []);
  }

let aug_reference tally =
  reference_oracle tally ~trace:(fun (r : Aug.Prog.result) -> r.trace)

let new_tally () = { compared = 0; failing = 0; mismatches = [] }

let no_mismatch what tally =
  match tally.mismatches with
  | [] -> ()
  | first :: _ ->
    Alcotest.failf
      "%s: %d of %d reports or linearizations differ from the reference; \
       e.g. %s"
      what (List.length tally.mismatches) tally.compared first

let test_checker_matches_reference () =
  let module Harness = Rsim_simulation.Harness in
  let tally = new_tally () in
  (* Theorem 21 simulations of racing consensus, up to n=16 m=4 f=4. *)
  List.iter
    (fun (n, m, f, d) ->
      let spec =
        {
          Harness.protocol =
            (fun pid input -> (Rsim_protocols.Racing.protocol ~m ()) pid input);
          n;
          m;
          f;
          d;
          inputs = List.init f (fun p -> Value.Int (p + 1));
        }
      in
      for seed = 1 to 3 do
        let r = Harness.run ~sched:(Schedule.random ~seed) spec in
        let what =
          Printf.sprintf "racing n=%d m=%d f=%d d=%d seed %d" n m f d seed
        in
        compare_with_reference tally what r.Harness.index r.Harness.aug
          r.Harness.trace
      done)
    [ (4, 2, 2, 0); (5, 2, 3, 1); (7, 5, 2, 1); (13, 4, 3, 1); (16, 4, 4, 0) ];
  (* The E9 ablation: no helping writes. *)
  for seed = 0 to 29 do
    let aug = Aug.create ~helping:false ~f:3 ~m:3 () in
    let result =
      run ~max_ops:20_000
        ~sched:(Schedule.random ~seed) aug
        (List.init 3 (random_body ~aug ~n_ops:6 ~seed))
    in
    compare_with_reference tally
      (Printf.sprintf "helping:false seed %d" seed)
      (Aug.index aug) aug result.trace
  done;
  no_mismatch "simulations and ablation" tally;
  Alcotest.(check bool)
    (Printf.sprintf "corpus has failing reports (%d of %d)" tally.failing
       tally.compared)
    true
    (tally.failing > 0 && tally.failing < tally.compared)

(* The engine's report, from the index each run extends hop by hop, on
   the builtin shapes (clean and with each seeded bug, unfaulted and
   under a profile with drops, corruptions, crashes and restarts, in
   exhaustive trees and sweeps) and on the racing simulation's
   preemption-bounded tree, whose index the harness carries. *)
let test_engine_report_matches_reference () =
  let module Explore = Rsim_explore.Explore in
  let module Harness = Rsim_simulation.Harness in
  let faults =
    match
      Rsim_faults.Faults.of_string
        "drop@1:3,corrupt@2:6#5,restart@0:7+2,crash@2:14"
    with
    | Ok specs -> specs
    | Error e -> Alcotest.failf "fault grammar: %s" e
  in
  List.iter
    (fun inject ->
      let tally = new_tally () in
      let oracles = [ aug_reference tally ] in
      List.iter
        (fun (name, f, max_steps) ->
          let build ?faults () =
            Option.get
              (Explore.Aug_target.builtin ?inject ?faults ~oracles ~name ~f
                 ~m:2 ())
          in
          ignore (Explore.exhaustive ~domains:1 ~max_steps (build ()));
          ignore
            (Explore.exhaustive ~domains:1 ~max_steps:(max_steps - 2)
               (build ~faults ()));
          ignore
            (Explore.sweep ~domains:1 ~max_steps:200 ~budget:40 ~seed:f
               (build ~faults ())))
        [ ("bu-conflict", 2, 10); ("bu-then-scan", 3, 9); ("mixed", 3, 9) ];
      let what =
        Option.fold ~none:"clean" ~some:Explore.fault_to_string inject
      in
      no_mismatch what tally;
      match inject with
      | None -> ()
      | Some _ ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: failing reports (%d of %d)" what tally.failing
             tally.compared)
          true (tally.failing > 0))
    [
      None;
      Some Aug.Skip_yield_check;
      Some Aug.Yield_on_higher;
      Some Aug.Spin_on_yield;
    ];
  let tally = new_tally () in
  let racing =
    Explore.Harness_target.racing
      ~oracles:
        [
          reference_oracle tally ~trace:(fun ((_, r) : _ * Harness.result) ->
              r.Harness.trace);
        ]
      ~n:4 ~m:2 ~f:2 ~d:0 ()
  in
  let r =
    Explore.exhaustive ~domains:1 ~preemption_bound:2 ~max_steps:80 racing
  in
  Alcotest.(check int) "racing tree: complete leaves" 842 r.Explore.complete;
  Alcotest.(check int) "racing tree: every leaf compared" 842 tally.compared;
  no_mismatch "racing tree" tally

(* A dropped Line-4 write leaves the next Block-Update of q1 in mixed
   f=3 m=2 with the same timestamp as the one that completed, so its
   Updates join a Block-Update whose Lemma 11/12 verdict was already
   settled: the report must judge those again. *)
let test_reused_key_matches_reference () =
  let module Explore = Rsim_explore.Explore in
  let tally = new_tally () in
  let faults = Result.get_ok (Rsim_faults.Faults.of_string "drop@1:1") in
  let w =
    Option.get
      (Explore.Aug_target.builtin ~faults ~oracles:[ aug_reference tally ]
         ~name:"mixed" ~f:3 ~m:2 ())
  in
  ignore (Explore.exhaustive ~domains:1 ~preemption_bound:1 ~max_steps:20 w);
  no_mismatch "reused key" tally;
  Alcotest.(check bool)
    (Printf.sprintf "failing reports (%d of %d)" tally.failing tally.compared)
    true (tally.failing > 0)

(* Leaves of 40 to 80 hops, where a leaf's index shares the most with
   its siblings': mixed f=3 m=2 under preemption bound 2. *)
let test_long_leaves_match_reference () =
  let module Explore = Rsim_explore.Explore in
  let tally = new_tally () in
  let w =
    Option.get
      (Explore.Aug_target.builtin ~oracles:[ aug_reference tally ]
         ~name:"mixed" ~f:3 ~m:2 ())
  in
  let r = Explore.exhaustive ~domains:1 ~preemption_bound:2 ~max_steps:80 w in
  Alcotest.(check int) "complete leaves" 5706 r.Explore.complete;
  Alcotest.(check int) "every leaf compared" 5706 tally.compared;
  no_mismatch "long leaves" tally

(* The index of a hand-written trace: the hop step of each entry, in
   list order. *)
let index_of trace =
  List.fold_left
    (fun ix (e : Aug.Prog.trace_entry) ->
      match (e.op, e.res) with
      | Aug.Ops.Hscan, Aug.Ops.Snap snap ->
        Aug_spec.hop_scan ix ~idx:e.idx ~pid:e.pid snap
      | Aug.Ops.Happend_triples triples, _ ->
        Aug_spec.hop_append ix ~idx:e.idx ~pid:e.pid triples
      | (Aug.Ops.Hscan | Aug.Ops.Happend_lrecords _), _ -> ix)
    (Aug_spec.start ~m:1) trace

let test_window_start_latest () =
  (* Scans at 0 and 1 both return the empty H; the append at 2 changes
     it; the scan at 4 is an (artificial) third empty result at or above
     [x_idx]. *)
  let h0 = Hrep.create ~f:2 in
  let triple = { Hrep.comp = 0; value = Value.Int 1; ts = Vts.of_array [| 1; 0 |] } in
  let h1 = Array.copy h0 in
  h1.(0) <- Hrep.append_triples h1.(0) [ triple ];
  let scan idx s =
    { Aug.Prog.idx; pid = 1; op = Aug.Ops.Hscan; res = Aug.Ops.Snap s }
  in
  let trace =
    [
      scan 0 h0;
      scan 1 h0;
      { Aug.Prog.idx = 2; pid = 0; op = Aug.Ops.Happend_triples [ triple ];
        res = Aug.Ops.Ack };
      scan 3 h1;
      scan 4 h0;
    ]
  in
  let ix = index_of trace in
  List.iter
    (fun (what, last, x_idx, want) ->
      Alcotest.(check (option int)) what want
        (Aug_spec.window_start ix ~last ~x_idx);
      Alcotest.(check (option int)) (what ^ " (reference)") want
        (Aug_spec_ref.window_start ~trace ~last ~x_idx))
    [
      ("two matches: the later one", h0, 4, Some 1);
      ("a match at x_idx is excluded", h0, 1, Some 0);
      ("nothing below x_idx", h0, 0, None);
      ("triple counts, not identity", h1, 5, Some 3);
    ]

let test_hop_out_of_order () =
  (* An index fed a hop at or below one it already holds describes no
     run; it must be refused at once, not judged (a walk over it need not
     end). *)
  let h0 = Hrep.create ~f:2 in
  let triple = { Hrep.comp = 0; value = Value.Int 1; ts = Vts.of_array [| 1; 0 |] } in
  let scan idx = { Aug.Prog.idx; pid = 1; op = Aug.Ops.Hscan; res = Aug.Ops.Snap h0 } in
  let append idx =
    { Aug.Prog.idx; pid = 0; op = Aug.Ops.Happend_triples [ triple ];
      res = Aug.Ops.Ack }
  in
  List.iter
    (fun (what, trace) ->
      match index_of trace with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: the hop was taken" what)
    [
      ("a scan below a scan", [ scan 0; scan 2; scan 1 ]);
      ("a scan at an append", [ scan 0; append 1; scan 1 ]);
      ("an append below a scan", [ scan 0; scan 3; append 2 ]);
    ];
  (* The object keeps its index, so restoring the object restores the
     index: an object saved mid-run, driven on, restored and driven along
     a second script reports what a fresh object driven straight along
     that script does. *)
  let start aug =
    Aug.Prog.start ~apply:(Aug.apply aug) ~emit:(Aug.record aug)
      (List.init 2 (random_body ~aug ~n_ops:4 ~seed:5))
  in
  let drive r script = Aug.Prog.run ~sched:(Schedule.script script) r in
  let prefix = [ 0; 1; 1; 0; 1; 0; 0; 1 ]
  and detour = [ 1; 1; 1; 1; 1; 1; 0; 0; 0; 0; 0; 0 ]
  and rest = List.init 80 (fun k -> (k / 3) mod 2) in
  let aug = Aug.create ~f:2 ~m:2 () in
  let r = start aug in
  drive r prefix;
  let saved_run = Aug.Prog.save r and saved = Aug.save aug in
  let completed = List.length (Aug.log aug) in
  drive r detour;
  Alcotest.(check bool) "the detour completed M-operations" true
    (List.length (Aug.log aug) > completed);
  Aug.Prog.restore r saved_run;
  Aug.restore aug saved;
  drive r rest;
  let fresh = Aug.create ~f:2 ~m:2 () in
  drive (start fresh) (prefix @ rest);
  Alcotest.(check bool) "the same report" true (report aug = report fresh);
  Alcotest.(check bool) "the same linearization" true
    (lin_items (Aug.index aug) = lin_items (Aug.index fresh));
  Alcotest.(check int) "the same log" (List.length (Aug.log fresh))
    (List.length (Aug.log aug))

let () =
  Alcotest.run "aug"
    [
      ( "basics",
        [
          Alcotest.test_case "solo BU + scan" `Quick test_solo_basic;
          Alcotest.test_case "step counts" `Quick test_bu_step_count;
          Alcotest.test_case "validation" `Quick test_block_update_validation;
        ] );
      ( "yield discipline",
        [
          Alcotest.test_case "forced yield" `Quick test_forced_yield;
          Alcotest.test_case "no yield without contention" `Quick
            test_no_yield_without_contention;
          Alcotest.test_case "higher id no yield" `Quick
            test_higher_id_does_not_force_yield;
        ] );
      ( "views",
        [
          Alcotest.test_case "scan sees last update" `Quick test_scan_sees_last_update;
          Alcotest.test_case "scan under contention" `Quick test_scan_blocked_by_updates;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "two conflicting BUs" `Quick test_exhaustive_two_bus;
          Alcotest.test_case "BU vs Scan" `Quick test_exhaustive_bu_vs_scan;
          Alcotest.test_case "BU;Scan vs BU" `Quick test_exhaustive_bu_then_scan_each;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "random f=2 m=2" `Quick
            (random_workload_case ~f:2 ~m:2 ~n_ops:8 ~seed:1);
          Alcotest.test_case "random f=3 m=3" `Quick
            (random_workload_case ~f:3 ~m:3 ~n_ops:8 ~seed:2);
          Alcotest.test_case "random f=4 m=2" `Quick
            (random_workload_case ~f:4 ~m:2 ~n_ops:8 ~seed:3);
          Alcotest.test_case "random f=4 m=4" `Quick
            (random_workload_case ~f:4 ~m:4 ~n_ops:8 ~seed:4);
        ] );
      ( "reference",
        [
          Alcotest.test_case "check matches the reference" `Quick
            test_checker_matches_reference;
          Alcotest.test_case "engine report matches" `Quick
            test_engine_report_matches_reference;
          Alcotest.test_case "long leaves match" `Quick
            test_long_leaves_match_reference;
          Alcotest.test_case "reused key judged again" `Quick
            test_reused_key_matches_reference;
          Alcotest.test_case "window_start picks the latest scan" `Quick
            test_window_start_latest;
          Alcotest.test_case "a hop out of order is refused" `Quick
            test_hop_out_of_order;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_workloads;
            prop_scripted_schedules;
            prop_crashy_schedules;
            prop_deterministic;
          ] );
    ]
