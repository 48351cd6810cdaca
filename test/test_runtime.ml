open Rsim_shmem
open Rsim_runtime

module Counter_ops = struct
  type op = Incr | Get
  type res = Ack | Val of int
end

(* Programs over a shared counter; a note records a read: the reader's
   pid and the read's trace index. *)
module P = Prog.Make (struct
  include Counter_ops

  type note = int * int
end)

let ( let* ) = P.bind

let make_counter () =
  let state = ref 0 in
  let apply ~pid:_ (op : Counter_ops.op) : Counter_ops.res =
    match op with
    | Counter_ops.Incr ->
      incr state;
      Counter_ops.Ack
    | Counter_ops.Get -> Counter_ops.Val !state
  in
  (state, apply)

(* [n] increments. *)
let rec increments n =
  if n = 0 then P.Return ()
  else P.Op (Counter_ops.Incr, fun _ _ -> increments (n - 1))

(* [P.run], then what it reached. *)
let finish ?probe ?at_end ~sched r =
  P.run ?probe ?at_end ~sched r;
  P.current r

let run ?max_ops ?control ?max_restarts ?probe ~sched ~apply programs =
  finish ?probe ~sched
    (P.start ?max_ops ?control ?max_restarts ~apply ~emit:ignore programs)

let test_single_fiber () =
  let state, apply = make_counter () in
  let result = run ~sched:Schedule.round_robin ~apply [ increments 3 ] in
  Alcotest.(check int) "three increments" 3 !state;
  Alcotest.(check int) "three ops" 3 result.P.total_ops;
  Alcotest.(check bool) "done" true (result.P.statuses.(0) = Prog.Done)

let test_round_robin_interleaving () =
  let _, apply = make_counter () in
  let result =
    run ~sched:Schedule.round_robin ~apply [ increments 2; increments 2 ]
  in
  let pids = List.map (fun (e : P.trace_entry) -> e.pid) result.P.trace in
  Alcotest.(check (list int)) "alternating" [ 0; 1; 0; 1 ] pids

let test_local_values_observed () =
  (* Process 1 reads the counter after process 0 increments twice,
     under a scripted schedule. *)
  let _, apply = make_counter () in
  let seen = ref (-1) in
  let _result =
    run ~sched:(Schedule.script [ 0; 0; 1 ]) ~apply
      [
        increments 2;
        (let* r, _ = P.op Counter_ops.Get in
         (match r with Counter_ops.Val n -> seen := n | Counter_ops.Ack -> ());
         P.return ());
      ]
  in
  Alcotest.(check int) "process 1 saw both increments" 2 !seen

let test_budget () =
  let _, apply = make_counter () in
  let result = run ~max_ops:5 ~sched:Schedule.round_robin ~apply [ increments 100 ] in
  Alcotest.(check int) "budget respected" 5 result.P.total_ops;
  Alcotest.(check bool) "still pending" true (result.P.statuses.(0) = Prog.Pending)

let test_failure_captured () =
  let _, apply = make_counter () in
  let result =
    run ~sched:Schedule.round_robin ~apply
      [
        (let* _ = P.op Counter_ops.Incr in
         failwith "boom");
        increments 1;
      ]
  in
  (match result.P.statuses.(0) with
  | Prog.Failed (Failure msg) -> Alcotest.(check string) "exn kept" "boom" msg
  | _ -> Alcotest.fail "expected Failed");
  Alcotest.(check bool) "other process unaffected" true
    (result.P.statuses.(1) = Prog.Done)

let test_note_before_failure () =
  (* What follows a note runs once the note is out: a failure right
     after it leaves the note in the log, as direct-style code would. *)
  let _, apply = make_counter () in
  let notes = ref [] in
  let result =
    finish ~sched:Schedule.round_robin
      (P.start ~apply
         ~emit:(fun n -> notes := n :: !notes)
         [
           (let* _, idx = P.op Counter_ops.Get in
            let* () = P.emit (0, idx) in
            failwith "after the note");
         ])
  in
  Alcotest.(check (list (pair int int))) "the note is out" [ (0, 0) ] !notes;
  match result.P.statuses.(0) with
  | Prog.Failed (Failure _) -> ()
  | _ -> Alcotest.fail "expected Failed"

let test_crash_via_schedule () =
  let state, apply = make_counter () in
  let sched = Schedule.with_crashes [ (0, 2) ] Schedule.round_robin in
  let result = run ~sched ~apply [ increments 10; increments 1 ] in
  Alcotest.(check int) "crashed process took 2 steps" 2 result.P.ops_per_fiber.(0);
  Alcotest.(check int) "total" 3 !state;
  Alcotest.(check bool) "crashed process left pending" true
    (result.P.statuses.(0) = Prog.Pending)

let test_determinism () =
  let go seed =
    let _, apply = make_counter () in
    let result =
      run ~sched:(Schedule.random ~seed) ~apply (List.init 3 (fun _ -> increments 5))
    in
    List.map (fun (e : P.trace_entry) -> e.pid) result.P.trace
  in
  Alcotest.(check (list int)) "same seed, same trace" (go 11) (go 11)

let test_ops_counted_per_fiber () =
  let _, apply = make_counter () in
  let result =
    run ~sched:Schedule.round_robin ~apply [ increments 1; increments 2 ]
  in
  Alcotest.(check int) "process 0 ops" 1 result.P.ops_per_fiber.(0);
  Alcotest.(check int) "process 1 ops" 2 result.P.ops_per_fiber.(1)

let test_no_op_fiber () =
  let _, apply = make_counter () in
  let result = run ~sched:Schedule.round_robin ~apply [ P.return () ] in
  Alcotest.(check int) "zero ops" 0 result.P.total_ops;
  Alcotest.(check bool) "done" true (result.P.statuses.(0) = Prog.Done)

(* ---- the fault boundary: directives at the apply point ---- *)

(* Fires on the operation's first offer only, like a compiled fault
   profile: [nth] is cumulative across restarts, so a hook blind to
   [retry] would re-crash every incarnation at the same op. *)
let control_at ~pid:vp ~nth:vn directive ~pid ~nth ~retry _op =
  if pid = vp && nth = vn && retry = 0 then directive else Prog.Proceed

let test_directive_crash () =
  (* Crashing process 0 at its 2nd op loses its remaining increments but
     keeps the ones already applied: local state dies, memory persists. *)
  let state, apply = make_counter () in
  let result =
    run
      ~control:(control_at ~pid:0 ~nth:2 Prog.Crash)
      ~sched:(Schedule.solo 0) ~apply
      [ increments 10; P.return () ]
  in
  Alcotest.(check bool) "status Crashed" true
    (result.P.statuses.(0) = Prog.Crashed);
  Alcotest.(check int) "writes before the crash persist" 2 !state;
  Alcotest.(check bool) "crash event recorded" true
    (List.exists
       (function
         | Prog.Ev_crash { pid = 0; restarting = false; _ } -> true
         | _ -> false)
       result.P.events)

let test_directive_crash_restart () =
  (* Process 0 increments 3 times; crash-restarting it after its 2nd op
     relaunches its program from the start, so the counter sees 2 + 3. *)
  let state, apply = make_counter () in
  let result =
    run
      ~control:(control_at ~pid:0 ~nth:2 (Prog.Crash_restart { delay = 1 }))
      ~sched:Schedule.round_robin ~apply
      [ increments 3 ]
  in
  Alcotest.(check bool) "restarted process finishes" true
    (result.P.statuses.(0) = Prog.Done);
  Alcotest.(check int) "local state lost, memory kept: 2 + 3" 5 !state;
  Alcotest.(check bool) "restart event recorded" true
    (List.exists
       (function
         | Prog.Ev_restart { pid = 0; incarnation = 1; _ } -> true
         | _ -> false)
       result.P.events)

let test_restart_cap () =
  (* A process that is crash-restarted on its first op every time burns
     through max_restarts incarnations and stays Crashed. *)
  let _, apply = make_counter () in
  let result =
    run
      ~control:(fun ~pid:_ ~nth:_ ~retry:_ _ ->
        Prog.Crash_restart { delay = 1 })
      ~max_restarts:3 ~sched:Schedule.round_robin ~apply
      [ increments 1 ]
  in
  Alcotest.(check bool) "ends Crashed" true
    (result.P.statuses.(0) = Prog.Crashed);
  let restarts =
    List.length
      (List.filter
         (function Prog.Ev_restart _ -> true | _ -> false)
         result.P.events)
  in
  Alcotest.(check int) "restarted exactly max_restarts times" 3 restarts

let test_restart_only_waiting_fast_forwards () =
  (* A lone crashed process whose restart is 50 decisions away must not
     deadlock the run: nobody else can be offered a turn, so the clock
     fast-forwards to its restart. *)
  let state, apply = make_counter () in
  let result =
    run
      ~control:(control_at ~pid:0 ~nth:0 (Prog.Crash_restart { delay = 50 }))
      ~sched:Schedule.round_robin ~apply
      [ increments 2 ]
  in
  Alcotest.(check bool) "finishes despite the wait" true
    (result.P.statuses.(0) = Prog.Done);
  Alcotest.(check int) "both increments land" 2 !state

let test_directive_replace () =
  (* Replacing an Incr with a Get models a dropped write: the process sees
     a result of the expected type but memory is untouched. *)
  let state, apply = make_counter () in
  let result =
    run
      ~control:(control_at ~pid:0 ~nth:1 (Prog.Replace Counter_ops.Get))
      ~sched:Schedule.round_robin ~apply
      [ increments 3 ]
  in
  Alcotest.(check bool) "process completes" true
    (result.P.statuses.(0) = Prog.Done);
  Alcotest.(check int) "the dropped increment never lands" 2 !state;
  Alcotest.(check bool) "replace event recorded" true
    (List.exists
       (function Prog.Ev_replace { pid = 0; _ } -> true | _ -> false)
       result.P.events)

let test_faults_determinism () =
  (* Same programs, schedule and control: identical traces and events. *)
  let go () =
    let _, apply = make_counter () in
    let result =
      run
        ~control:(control_at ~pid:1 ~nth:1 (Prog.Crash_restart { delay = 2 }))
        ~sched:(Schedule.random ~seed:7)
        ~apply
        (List.init 3 (fun _ -> increments 4))
    in
    ( List.map (fun (e : P.trace_entry) -> e.pid) result.P.trace,
      List.length result.P.events )
  in
  Alcotest.(check bool) "deterministic under faults" true (go () = go ())

(* ---- runs that end early: what a run gives up on ---- *)

module Faults = Rsim_faults.Faults

let count_up = increments 10

let test_reclaim_probe_stop () =
  let _, apply = make_counter () in
  let probe ~step ~live:_ = if step >= 3 then `Stop else `Continue in
  let result =
    run ~probe ~sched:Schedule.round_robin ~apply [ count_up; count_up ]
  in
  Alcotest.(check int) "stopped after 3 ops" 3 result.P.total_ops;
  Alcotest.(check bool) "both read Pending" true
    (Array.for_all (( = ) Prog.Pending) result.P.statuses)

let test_reclaim_max_ops () =
  let _, apply = make_counter () in
  let result =
    run ~max_ops:4 ~sched:Schedule.round_robin ~apply [ count_up; count_up ]
  in
  Alcotest.(check int) "truncated at 4 ops" 4 result.P.total_ops;
  Alcotest.(check bool) "both read Pending" true
    (Array.for_all (( = ) Prog.Pending) result.P.statuses)

let test_reclaim_schedule_exhausted () =
  let _, apply = make_counter () in
  let result =
    run ~sched:(Schedule.script [ 0; 1; 0 ]) ~apply
      [ count_up; count_up; P.return () ]
  in
  Alcotest.(check int) "script length" 3 result.P.total_ops;
  Alcotest.(check bool) "unfinished processes read Pending" true
    (result.P.statuses = [| Prog.Pending; Prog.Pending; Prog.Done |])

let test_reclaim_crash () =
  let _, apply = make_counter () in
  let result =
    run
      ~control:(control_at ~pid:0 ~nth:2 Prog.Crash)
      ~sched:Schedule.round_robin ~apply [ count_up; count_up ]
  in
  Alcotest.(check bool) "crashed process reads Crashed, not Failed" true
    (result.P.statuses = [| Prog.Crashed; Prog.Done |]);
  Alcotest.(check bool) "no trace entry from process 0 after the crash" true
    (List.for_all
       (fun (e : P.trace_entry) -> e.pid <> 0 || e.idx < 4)
       result.P.trace)

let test_reclaim_crash_restart () =
  let _, apply = make_counter () in
  let result =
    run
      ~control:(control_at ~pid:0 ~nth:2 (Prog.Crash_restart { delay = 1 }))
      ~sched:Schedule.round_robin ~apply [ count_up ]
  in
  Alcotest.(check bool) "restart recorded" true
    (List.exists
       (function Prog.Ev_restart { pid = 0; _ } -> true | _ -> false)
       result.P.events);
  Alcotest.(check int) "2 ops, then a full fresh incarnation" 12
    result.P.total_ops;
  Alcotest.(check bool) "restarted process finishes" true
    (result.P.statuses.(0) = Prog.Done)

let test_reclaim_chaos () =
  (* Under the chaos profile every crashed process reads Crashed or, if
     restarted, ends in another state, and the crash events say which. *)
  let crashes = ref 0 in
  for seed = 0 to 199 do
    let specs =
      match Faults.named "chaos" ~n_procs:3 ~seed with
      | Some specs -> specs
      | None -> Alcotest.fail "chaos profile missing"
    in
    let _, apply = make_counter () in
    let result =
      run ~max_ops:20
        ~control:(Faults.control ~adapter:Faults.null_adapter specs)
        ~sched:(Schedule.random ~seed) ~apply
        [ count_up; count_up; count_up ]
    in
    let crashed pid =
      List.exists
        (function Prog.Ev_crash { pid = p; _ } -> p = pid | _ -> false)
        result.P.events
    in
    crashes :=
      !crashes
      + List.length
          (List.filter
             (function Prog.Ev_crash _ -> true | _ -> false)
             result.P.events);
    Array.iteri
      (fun pid st ->
        if st = Prog.Crashed && not (crashed pid) then
          Alcotest.failf "chaos seed %d: process %d Crashed without a crash event"
            seed pid)
      result.P.statuses
  done;
  Alcotest.(check bool)
    (Printf.sprintf "crashes fired (%d)" !crashes)
    true (!crashes > 50)

let test_reclaim_apply_raises () =
  (* An exception out of [apply] reaches the caller unchanged, and the
     operations applied before it still count. *)
  let exception Apply_failed of int in
  let calls = ref 0 in
  let apply ~pid:_ (_ : Counter_ops.op) =
    incr calls;
    if !calls = 3 then raise (Apply_failed !calls);
    Counter_ops.Ack
  in
  let ops = Rsim_obs.Obs.Metrics.counter "fiber.ops" in
  let before = Rsim_obs.Obs.Metrics.counter_value ops in
  (match run ~sched:Schedule.round_robin ~apply [ count_up; count_up ] with
  | _ -> Alcotest.fail "expected the apply exception"
  | exception Apply_failed 3 -> ());
  Alcotest.(check int) "the two applied operations counted" (before + 2)
    (Rsim_obs.Obs.Metrics.counter_value ops)

let prop_total_equals_sum =
  QCheck.Test.make ~name:"total ops = sum of per-fiber ops" ~count:50
    QCheck.(pair (int_bound 1000) (int_range 1 4))
    (fun (seed, n) ->
      let _, apply = make_counter () in
      let result =
        run ~sched:(Schedule.random ~seed) ~apply
          (List.init n (fun i -> increments (i + 1)))
      in
      result.P.total_ops = Array.fold_left ( + ) 0 result.P.ops_per_fiber)

(* ---- equivalence with the reference runtime ---- *)

module Ref_F = Fiber_ref.Make (Counter_ops)

(* Everything both runtimes report about one run, the probe's
   observations and the counter's final value included. Exceptions are
   compared by their printed form. *)
type observed = {
  o_statuses : string list;
  o_trace : (int * int * Counter_ops.op * Counter_ops.res) list;
  o_events : Prog.event list;
  o_ops_per_fiber : int list;
  o_total_ops : int;
  o_probed : (int * int list) list;
  o_counter : int;
}

let show_status = function
  | Prog.Done -> "done"
  | Prog.Pending -> "pending"
  | Prog.Crashed -> "crashed"
  | Prog.Failed e -> "failed " ^ Printexc.to_string e

(* The programs of [random_case]: reads and increments, a note per
   read, and a failure after the last read's note for kind 1. *)
let program kinds lens pid : unit P.t =
  let len = lens.(pid) in
  let rec steps i =
    if i > len then P.return ()
    else
      let* r, idx = P.op Counter_ops.Get in
      let* () = P.emit (pid, idx) in
      match r with
      | Counter_ops.Val v when (v + i + pid) mod 3 = 0 ->
        let* _ = P.op Counter_ops.Incr in
        steps (i + 1)
      | Counter_ops.Val _ | Counter_ops.Ack ->
        let* _ = P.op Counter_ops.Get in
        steps (i + 1)
  in
  match kinds.(pid) with
  | 0 -> P.return ()
  | 1 ->
    let* () = steps 1 in
    let* _, idx = P.op Counter_ops.Get in
    (* the note is out before the failure, as in direct style *)
    let* () = P.emit (pid, idx) in
    failwith (Printf.sprintf "program %d gave up" pid)
  | _ -> steps 1

(* The adapter of [random_case]'s profiles: a dropped operation becomes a
   read and a corrupted one an increment, whatever it was. *)
let adapter =
  {
    Faults.drop = (fun _ -> Some Counter_ops.Get);
    corrupt = (fun _ _ -> Some Counter_ops.Incr);
  }

(* A hook for the reference runtime, which passes no retry count: it
   keeps a fired set of its own, and the first spec that has not fired
   and names [pid]'s [nth] operation fires, as [adapter] has it, and is
   marked fired. [Faults.control] must pick the same spec from [retry]. *)
let fire_once specs =
  let specs = Array.of_list specs in
  let fired = Array.make (Array.length specs) false in
  fun ~pid ~nth _op ->
    let rec first k =
      if k = Array.length specs then Prog.Proceed
      else
        let s = specs.(k) in
        if (not fired.(k)) && s.Faults.pid = pid && s.at_op = nth then begin
          fired.(k) <- true;
          match s.action with
          | Faults.Crash -> Prog.Crash
          | Faults.Restart { delay } -> Prog.Crash_restart { delay }
          | Faults.Drop -> Prog.Replace Counter_ops.Get
          | Faults.Corrupt _ -> Prog.Replace Counter_ops.Incr
        end
        else first (k + 1)
    in
    first 0

(* One random configuration: programs whose next operation depends on
   what they read and programs that raise or return at once; a random
   schedule; a fault profile drawing every action; and random
   [max_ops], [max_restarts] and probe-stop cuts. [case ~run] drives it
   through the runtime whose [run] is given the profile, to compile into
   its own hook, and the programs built by [programs kinds lens pid]
   (the kind and the length of each pid's program, drawn here). *)
let random_case seed =
  let g = Random.State.make [| seed |] in
  let int n = Random.State.int g n in
  let n = 1 + int 4 in
  let kinds = Array.init n (fun _ -> int 5) in
  let lens = Array.init n (fun _ -> int 8) in
  let sched =
    match int 3 with
    | 0 -> Schedule.random ~seed:(int 1000)
    | 1 -> Schedule.round_robin
    | _ -> Schedule.script (List.init (int 40) (fun _ -> int n))
  in
  let specs =
    List.init (int 4) (fun _ ->
        (* Crash and restart take two of the six slots each, which
           keeps the corpus's draws. *)
        let action =
          match int 6 with
          | 1 | 2 -> Faults.Restart { delay = int 4 }
          | 3 -> Faults.Corrupt { seed = 0 }
          | 4 -> Faults.Drop
          | _ -> Faults.Crash
        in
        let at_op = int 6 in
        { Faults.pid = int n; at_op; action })
  in
  let max_ops = if int 3 = 0 then Some (int 20) else None in
  let max_restarts = int 4 in
  let stop_at = if int 3 = 0 then Some (int 25) else None in
  fun run ->
    let state, apply = make_counter () in
    let probed = ref [] in
    let probe ~step ~live =
      probed := (step, live) :: !probed;
      match stop_at with Some s when step >= s -> `Stop | _ -> `Continue
    in
    let observed =
      run ?max_ops ~specs ~max_restarts ~probe ~sched ~apply
        (List.init n (program kinds lens))
    in
    { observed with o_probed = List.rev !probed; o_counter = !state }

(* A program performed in direct style on a reference fiber: each
   operation through [perform], whose trace index [index ()] reads just
   after it, and each note through [emit]. *)
let rec drive ~perform ~index ~emit = function
  | P.Return x -> x
  | P.Op (o, k) ->
    let r = perform o in
    drive ~perform ~index ~emit (k r (index ()))
  | P.Emit (n, p) ->
    emit n;
    drive ~perform ~index ~emit (p ())

let observe_prog (r : P.result) =
  {
    o_statuses = Array.to_list (Array.map show_status r.P.statuses);
    o_trace =
      List.map (fun (e : P.trace_entry) -> (e.idx, e.pid, e.op, e.res)) r.P.trace;
    o_events = r.P.events;
    o_ops_per_fiber = Array.to_list r.P.ops_per_fiber;
    o_total_ops = r.P.total_ops;
    o_probed = [];
    o_counter = 0;
  }

(* [random_case seed] on the reference fibers, the programs performed in
   direct style, with the notes they emit. *)
let via_reference seed =
  let notes = ref [] in
  let emit n = notes := n :: !notes in
  let observed =
    random_case seed (fun ?max_ops ~specs ~max_restarts ~probe ~sched ~apply programs ->
        let applied = ref 0 in
        let apply ~pid op =
          incr applied;
          apply ~pid op
        in
        let bodies =
          List.map
            (fun p _ ->
              drive ~perform:Ref_F.op ~index:(fun () -> !applied - 1) ~emit p)
            programs
        in
        let r =
          Ref_F.run ?max_ops ~control:(fire_once specs) ~max_restarts ~probe
            ~sched ~apply bodies
        in
        {
          o_statuses = Array.to_list (Array.map show_status r.Ref_F.statuses);
          o_trace =
            List.map
              (fun (e : Ref_F.trace_entry) -> (e.idx, e.pid, e.op, e.res))
              r.Ref_F.trace;
          o_events = r.Ref_F.events;
          o_ops_per_fiber = Array.to_list r.Ref_F.ops_per_fiber;
          o_total_ops = r.Ref_F.total_ops;
          o_probed = [];
          o_counter = 0;
        })
  in
  (observed, List.rev !notes)

(* Every random program runs on the interpreter and, in direct style, on
   the reference fibers: statuses, trace, events, per-pid counts, probe
   calls, the counter and the notes (with the trace index each
   continuation was handed) must all agree. *)
let test_interpreter_matches_fibers () =
  let faulted = ref 0 and cut = ref 0 in
  for seed = 1 to 3000 do
    let notes = ref [] in
    let emit n = notes := n :: !notes in
    let got =
      random_case seed (fun ?max_ops ~specs ~max_restarts ~probe ~sched ~apply programs ->
          observe_prog
            (finish ~probe ~sched
               (P.start ?max_ops ~control:(Faults.control ~adapter specs)
                  ~max_restarts ~apply ~emit programs)))
    in
    let want, want_notes = via_reference seed in
    if got <> want then
      Alcotest.failf "seed %d: the interpreter and the reference disagree" seed;
    if List.rev !notes <> want_notes then
      Alcotest.failf "seed %d: the programs' notes disagree" seed;
    if got.o_events <> [] then incr faulted;
    if List.mem "pending" got.o_statuses then incr cut
  done;
  (* The corpus must exercise the fault plane and the early stops, or
     the comparison proves little. *)
  Alcotest.(check bool)
    (Printf.sprintf "faulted runs (%d) and cut runs (%d)" !faulted !cut)
    true
    (!faulted > 1000 && !cut > 300)

(* The same corpus, each run cut at a decision drawn from the seed: the
   interpreter saves its state there and stops, and a fresh run of the
   same programs restores that state at its first probe call and goes
   on, with the schedule as the first run left it. Shared memory and the
   notes carry over as they stand; the fresh run compiles the profile
   into a hook of its own, so what the fault plane had done before the
   cut reaches it only through the saved state. What the resumed run
   reports must be what the reference runtime, with the fire-once hook,
   reports for the whole run, and most runs must get as far as the cut. *)
let test_matches_reference () =
  let resumed = ref 0 in
  for seed = 1 to 3000 do
    let notes = ref [] in
    let emit n = notes := n :: !notes in
    let cut_at = Hashtbl.hash seed mod 12 in
    let got =
      random_case seed (fun ?max_ops ~specs ~max_restarts ~probe ~sched ~apply programs ->
          (* The schedule's state after the decisions made so far. *)
          let sched_now = ref sched in
          let tracked =
            Schedule.fn (fun ~step:_ ~live ->
                match Schedule.next !sched_now ~live with
                | None -> None
                | Some (pid, s') ->
                  sched_now := s';
                  Some pid)
          in
          (* Each run compiles its own hook: the saved state alone
             carries the fault plane's progress. *)
          let start () =
            P.start ?max_ops ~control:(Faults.control ~adapter specs)
              ~max_restarts ~apply ~emit programs
          in
          let first = start () in
          let node = ref None in
          let stop_and_save ~step ~live =
            if step = cut_at then begin
              node := Some (P.save first, live);
              `Stop
            end
            else probe ~step ~live
          in
          let r = finish ~probe:stop_and_save ~sched:tracked first in
          match !node with
          | None -> observe_prog r
          | Some (saved, live) ->
            incr resumed;
            let again = start () in
            let restored = ref false in
            let resume ~step ~live:live' =
              if !restored then probe ~step ~live:live'
              else begin
                restored := true;
                P.restore again saved;
                probe ~step:cut_at ~live
              end
            in
            observe_prog (finish ~probe:resume ~sched:tracked again))
    in
    let want, want_notes = via_reference seed in
    if got <> want then
      Alcotest.failf "seed %d: resumed at decision %d, the interpreter and the reference disagree"
        seed cut_at;
    if List.rev !notes <> want_notes then
      Alcotest.failf "seed %d: resumed at decision %d, the programs' notes disagree"
        seed cut_at
  done;
  Alcotest.(check bool)
    (Printf.sprintf "resumed runs (%d)" !resumed)
    true (!resumed > 1500)

(* A hop of a trivial-op run allocates its trace entry, the schedule's
   next state and the continuation the program returns: 30 minor words
   on OCaml 5.1. The long run amortizes the per-run set-up and the float
   [Gc.minor_words] boxes to nothing. The set-up is measured on its own:
   a 3-program run that [max_ops] 0 cuts at each program's first
   operation allocates 79 words. These budgets keep both from creeping
   up. *)
let test_hop_allocation () =
  let _, apply = make_counter () in
  let w0 = Gc.minor_words () in
  let result =
    run ~sched:Schedule.round_robin ~apply [ increments 10_000; increments 10_000 ]
  in
  let per_hop = (Gc.minor_words () -. w0) /. float_of_int result.P.total_ops in
  if per_hop > 32. then
    Alcotest.failf "a trivial hop allocated %.1f minor words (budget 32)" per_hop;
  let programs = [ count_up; count_up; count_up ] in
  let runs = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (run ~max_ops:0 ~sched:Schedule.round_robin ~apply programs)
  done;
  let per_run = (Gc.minor_words () -. w0) /. float_of_int runs in
  if per_run > 85. then
    Alcotest.failf "a cut 3-program run allocated %.1f minor words (budget 85)"
      per_run

(* A decision of the schedules that sweeps draw from allocates only the
   returned [Some (pid, t')], 5 words, and the successor case: 8 words
   for [random], 9 for [among] and 10 for [drawn] on OCaml 5.1. No
   generator state is boxed, [among] filters nothing, and a drawn script
   passes over the pids that are not live without allocating. *)
let test_decision_allocation () =
  let live = [ 0; 1; 2; 3 ] in
  let decisions = 100_000 in
  let per_decision name sched =
    let rec go s k =
      if k > 0 then
        match Schedule.next s ~live with
        | Some (_, s') -> go s' (k - 1)
        | None -> Alcotest.failf "%s ran out" name
    in
    let w0 = Gc.minor_words () in
    go sched decisions;
    (Gc.minor_words () -. w0) /. float_of_int decisions
  in
  List.iter
    (fun (name, budget, sched) ->
      let words = per_decision name sched in
      if words > budget then
        Alcotest.failf "a %s decision allocated %.1f minor words (budget %.0f)"
          name words budget)
    [
      ("random", 8., Schedule.random ~seed:3);
      ("among", 10., Schedule.among ~procs:[ 1; 3; 7 ] ~seed:3);
      ( "drawn",
        10.,
        Schedule.drawn (Rsim_value.Prng.make 3) ~n:6 ~len:(3 * decisions) );
    ]

(* ---- the end of a run: [at_end] may walk on to a saved state ---- *)

let pids (r : P.result) = List.map (fun (e : P.trace_entry) -> e.pid) r.P.trace

(* The lowest live pid, or the highest when [high] is set. *)
let pick_by high =
  Schedule.fn (fun ~step:_ ~live ->
      match live with
      | [] -> None
      | p :: _ -> Some (if !high then List.fold_left max p live else p))

let test_end_without_restore () =
  let _, apply = make_counter () in
  let ends = ref 0 in
  let st = P.start ~apply ~emit:ignore [ increments 3; increments 3 ] in
  let r =
    finish ~at_end:(fun () -> incr ends) ~sched:(pick_by (ref false)) st
  in
  Alcotest.(check int) "one end" 1 !ends;
  Alcotest.(check (list int)) "the plain run" [ 0; 0; 0; 1; 1; 1 ] (pids r);
  let _, apply = make_counter () in
  let stops = ref 0 in
  let st = P.start ~apply ~emit:ignore [ increments 3; increments 3 ] in
  let r =
    finish
      ~probe:(fun ~step ~live:_ -> if step = 2 then `Stop else `Continue)
      ~at_end:(fun () -> incr stops)
      ~sched:(pick_by (ref false)) st
  in
  Alcotest.(check int) "a probe stop is an end too" 1 !stops;
  Alcotest.(check (list int)) "stopped at decision 2" [ 0; 0 ] (pids r)

let test_end_restore_resumes () =
  let _, apply = make_counter () in
  let st = P.start ~apply ~emit:ignore [ increments 3; increments 3 ] in
  let node = ref None in
  let probed = ref [] in
  let probe ~step ~live:_ =
    probed := step :: !probed;
    if step = 2 then node := Some (P.save st);
    `Continue
  in
  let high = ref false in
  let leaves = ref [] in
  let at_end () =
    leaves := pids (P.current st) :: !leaves;
    match !node with
    | Some n ->
      node := None;
      high := true;
      P.restore st n
    | None -> ()
  in
  let r = finish ~probe ~at_end ~sched:(pick_by high) st in
  Alcotest.(check (list (list int)))
    "both leaves, in order"
    [ [ 0; 0; 0; 1; 1; 1 ]; [ 0; 0; 1; 1; 1; 0 ] ]
    (List.rev !leaves);
  Alcotest.(check (list int)) "the run ends at the second leaf"
    [ 0; 0; 1; 1; 1; 0 ] (pids r);
  Alcotest.(check int) "six operations" 6 r.P.total_ops;
  Alcotest.(check (list int))
    "the restored decision is not probed again"
    [ 0; 1; 2; 3; 4; 5; 3; 4; 5 ]
    (List.rev !probed)

let test_end_result_is_a_copy () =
  let _, apply = make_counter () in
  let st = P.start ~apply ~emit:ignore [ increments 3; increments 3 ] in
  let node = ref None in
  let first = ref None in
  let probe ~step ~live:_ =
    if step = 1 then node := Some (P.save st);
    `Continue
  in
  let high = ref false in
  let at_end () =
    match !node with
    | Some n ->
      first := Some (P.current st);
      node := None;
      high := true;
      P.restore st n
    | None -> ()
  in
  let r = finish ~probe ~at_end ~sched:(pick_by high) st in
  (match !first with
  | None -> Alcotest.fail "no first leaf"
  | Some l ->
    Alcotest.(check (array int)) "first leaf's counts as they were" [| 3; 3 |]
      l.P.ops_per_fiber;
    Alcotest.(check bool) "first leaf's statuses as they were" true
      (Array.for_all (( = ) Prog.Done) l.P.statuses);
    Alcotest.(check bool) "no array shared with the final result" false
      (l.P.ops_per_fiber == r.P.ops_per_fiber || l.P.statuses == r.P.statuses));
  r.P.ops_per_fiber.(0) <- 99;
  Alcotest.(check int) "the returned counts are the caller's own" 3
    (P.current st).P.ops_per_fiber.(0)

(* The group and case names ("fiber", "fiber reclamation") date from
   the fiber runtime; they identify the tests and so are kept. *)
let () =
  Alcotest.run "runtime"
    [
      ( "fiber",
        [
          Alcotest.test_case "single fiber" `Quick test_single_fiber;
          Alcotest.test_case "round robin" `Quick test_round_robin_interleaving;
          Alcotest.test_case "scripted visibility" `Quick test_local_values_observed;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "failure captured" `Quick test_failure_captured;
          Alcotest.test_case "note before a failure" `Quick test_note_before_failure;
          Alcotest.test_case "crash via schedule" `Quick test_crash_via_schedule;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "per-fiber counts" `Quick test_ops_counted_per_fiber;
          Alcotest.test_case "no-op fiber" `Quick test_no_op_fiber;
          Alcotest.test_case "matches the reference runtime" `Quick
            test_matches_reference;
          Alcotest.test_case "allocation per hop" `Quick test_hop_allocation;
          Alcotest.test_case "allocation per decision" `Quick
            test_decision_allocation;
          Alcotest.test_case "interpreter matches fibers" `Quick
            test_interpreter_matches_fibers;
        ] );
      ( "fault boundary",
        [
          Alcotest.test_case "crash directive" `Quick test_directive_crash;
          Alcotest.test_case "crash-restart directive" `Quick
            test_directive_crash_restart;
          Alcotest.test_case "restart cap" `Quick test_restart_cap;
          Alcotest.test_case "restart fast-forward" `Quick
            test_restart_only_waiting_fast_forwards;
          Alcotest.test_case "replace (dropped write)" `Quick
            test_directive_replace;
          Alcotest.test_case "determinism under faults" `Quick
            test_faults_determinism;
        ] );
      ( "fiber reclamation",
        [
          Alcotest.test_case "probe stop" `Quick test_reclaim_probe_stop;
          Alcotest.test_case "max_ops truncation" `Quick test_reclaim_max_ops;
          Alcotest.test_case "schedule exhaustion" `Quick
            test_reclaim_schedule_exhausted;
          Alcotest.test_case "crash" `Quick test_reclaim_crash;
          Alcotest.test_case "crash-restart" `Quick test_reclaim_crash_restart;
          Alcotest.test_case "exception out of apply" `Quick
            test_reclaim_apply_raises;
          Alcotest.test_case "chaos profile, 200 seeds" `Quick test_reclaim_chaos;
        ] );
      ( "end of run",
        [
          Alcotest.test_case "no restore ends the run" `Quick
            test_end_without_restore;
          Alcotest.test_case "a restore resumes the run" `Quick
            test_end_restore_resumes;
          Alcotest.test_case "a leaf result is a copy" `Quick
            test_end_result_is_a_copy;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_total_equals_sum ]);
    ]
