open Rsim_shmem
open Rsim_runtime

module Counter_ops = struct
  type op = Incr | Get
  type res = Ack | Val of int
end

module F = Fiber.Make (Counter_ops)

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

let get () = match F.op Counter_ops.Get with Counter_ops.Val n -> n | _ -> assert false
let increment () = ignore (F.op Counter_ops.Incr)

let test_single_fiber () =
  let state, apply = make_counter () in
  let result =
    F.run ~sched:Schedule.round_robin ~apply
      [ (fun _pid -> increment (); increment (); increment ()) ]
  in
  Alcotest.(check int) "three increments" 3 !state;
  Alcotest.(check int) "three ops" 3 result.F.total_ops;
  Alcotest.(check bool) "done" true (result.F.statuses.(0) = Fiber.Done)

let test_round_robin_interleaving () =
  let _, apply = make_counter () in
  let result =
    F.run ~sched:Schedule.round_robin ~apply
      [ (fun _ -> increment (); increment ());
        (fun _ -> increment (); increment ()) ]
  in
  let pids = List.map (fun (e : F.trace_entry) -> e.pid) result.F.trace in
  Alcotest.(check (list int)) "alternating" [ 0; 1; 0; 1 ] pids

let test_local_values_observed () =
  (* Fiber 1 reads the counter after fiber 0 increments twice, under a
     scripted schedule. *)
  let _, apply = make_counter () in
  let seen = ref (-1) in
  let _result =
    F.run ~sched:(Schedule.script [ 0; 0; 1 ]) ~apply
      [ (fun _ -> increment (); increment ()); (fun _ -> seen := get ()) ]
  in
  Alcotest.(check int) "fiber 1 saw both increments" 2 !seen

let test_budget () =
  let _, apply = make_counter () in
  let result =
    F.run ~max_ops:5 ~sched:Schedule.round_robin ~apply
      [ (fun _ -> for _ = 1 to 100 do increment () done) ]
  in
  Alcotest.(check int) "budget respected" 5 result.F.total_ops;
  Alcotest.(check bool) "still pending" true (result.F.statuses.(0) = Fiber.Pending)

let test_failure_captured () =
  let _, apply = make_counter () in
  let result =
    F.run ~sched:Schedule.round_robin ~apply
      [ (fun _ -> increment (); failwith "boom"); (fun _ -> increment ()) ]
  in
  (match result.F.statuses.(0) with
  | Fiber.Failed (Failure msg) -> Alcotest.(check string) "exn kept" "boom" msg
  | _ -> Alcotest.fail "expected Failed");
  Alcotest.(check bool) "other fiber unaffected" true
    (result.F.statuses.(1) = Fiber.Done)

let test_crash_via_schedule () =
  let state, apply = make_counter () in
  let sched = Schedule.with_crashes [ (0, 2) ] Schedule.round_robin in
  let result =
    F.run ~sched ~apply
      [ (fun _ -> for _ = 1 to 10 do increment () done);
        (fun _ -> increment ()) ]
  in
  Alcotest.(check int) "crashed fiber took 2 steps" 2 result.F.ops_per_fiber.(0);
  Alcotest.(check int) "total" 3 !state;
  Alcotest.(check bool) "crashed fiber left pending" true
    (result.F.statuses.(0) = Fiber.Pending)

let test_determinism () =
  let run seed =
    let _, apply = make_counter () in
    let result =
      F.run
        ~sched:(Schedule.random ~seed)
        ~apply
        [ (fun _ -> for _ = 1 to 5 do increment () done);
          (fun _ -> for _ = 1 to 5 do increment () done);
          (fun _ -> for _ = 1 to 5 do increment () done) ]
    in
    List.map (fun (e : F.trace_entry) -> e.pid) result.F.trace
  in
  Alcotest.(check (list int)) "same seed, same trace" (run 11) (run 11)

let test_ops_counted_per_fiber () =
  let _, apply = make_counter () in
  let result =
    F.run ~sched:Schedule.round_robin ~apply
      [ (fun _ -> increment ()); (fun _ -> increment (); increment ()) ]
  in
  Alcotest.(check int) "fiber 0 ops" 1 result.F.ops_per_fiber.(0);
  Alcotest.(check int) "fiber 1 ops" 2 result.F.ops_per_fiber.(1)

let test_no_op_fiber () =
  let _, apply = make_counter () in
  let result = F.run ~sched:Schedule.round_robin ~apply [ (fun _ -> ()) ] in
  Alcotest.(check int) "zero ops" 0 result.F.total_ops;
  Alcotest.(check bool) "done" true (result.F.statuses.(0) = Fiber.Done)

(* ---- the fault boundary: directives at the apply point ---- *)

(* Fire-once, like a compiled Faults.plan: a stalled operation keeps its
   [nth], so a naive hook would re-stall it forever; and [nth] is
   cumulative across restarts, so a naive hook would re-crash every
   incarnation at the same op. *)
let control_at ~pid:vp ~nth:vn directive =
  let fired = ref false in
  fun ~pid ~nth _op ->
    if (not !fired) && pid = vp && nth = vn then begin
      fired := true;
      directive
    end
    else Fiber.Proceed

let test_directive_crash () =
  (* Crashing fiber 0 at its 2nd op loses its remaining increments but
     keeps the ones already applied: local state dies, memory persists. *)
  let state, apply = make_counter () in
  let result =
    F.run
      ~control:(control_at ~pid:0 ~nth:2 Fiber.Crash)
      ~sched:(Schedule.solo 0) ~apply
      [ (fun _ -> for _ = 1 to 10 do increment () done); (fun _ -> ()) ]
  in
  Alcotest.(check bool) "status Crashed" true
    (result.F.statuses.(0) = Fiber.Crashed);
  Alcotest.(check int) "writes before the crash persist" 2 !state;
  Alcotest.(check bool) "crash event recorded" true
    (List.exists
       (function
         | Fiber.Ev_crash { pid = 0; restarting = false; _ } -> true
         | _ -> false)
       result.F.events)

let test_directive_crash_restart () =
  (* Fiber 0 increments 3 times; crash-restarting it after its 2nd op
     relaunches the body from scratch, so the counter sees 2 + 3. *)
  let state, apply = make_counter () in
  let result =
    F.run
      ~control:(control_at ~pid:0 ~nth:2 (Fiber.Crash_restart { delay = 1 }))
      ~sched:Schedule.round_robin ~apply
      [ (fun _ -> increment (); increment (); increment ()) ]
  in
  Alcotest.(check bool) "restarted fiber finishes" true
    (result.F.statuses.(0) = Fiber.Done);
  Alcotest.(check int) "local state lost, memory kept: 2 + 3" 5 !state;
  Alcotest.(check bool) "restart event recorded" true
    (List.exists
       (function
         | Fiber.Ev_restart { pid = 0; incarnation = 1; _ } -> true
         | _ -> false)
       result.F.events)

let test_restart_cap () =
  (* A fiber that is crash-restarted on its first op every time burns
     through max_restarts incarnations and stays Crashed. *)
  let _, apply = make_counter () in
  let result =
    F.run
      ~control:(fun ~pid:_ ~nth:_ _ -> Fiber.Crash_restart { delay = 1 })
      ~max_restarts:3 ~sched:Schedule.round_robin ~apply
      [ (fun _ -> increment ()) ]
  in
  Alcotest.(check bool) "ends Crashed" true
    (result.F.statuses.(0) = Fiber.Crashed);
  let restarts =
    List.length
      (List.filter
         (function Fiber.Ev_restart _ -> true | _ -> false)
         result.F.events)
  in
  Alcotest.(check int) "restarted exactly max_restarts times" 3 restarts

let test_directive_stall () =
  (* Under round-robin, stalling fiber 0 for 4 decisions hides it from
     the scheduler: fiber 1 runs its ops first, then fiber 0 resumes. *)
  let _, apply = make_counter () in
  let result =
    F.run
      ~control:(control_at ~pid:0 ~nth:0 (Fiber.Stall { steps = 4 }))
      ~sched:Schedule.round_robin ~apply
      [
        (fun _ -> increment (); increment ());
        (fun _ -> increment (); increment ());
      ]
  in
  Alcotest.(check bool) "both finish" true
    (result.F.statuses.(0) = Fiber.Done && result.F.statuses.(1) = Fiber.Done);
  let pids = List.map (fun (e : F.trace_entry) -> e.pid) result.F.trace in
  Alcotest.(check (list int)) "fiber 1 overtakes the stalled fiber"
    [ 1; 1; 0; 0 ] pids

let test_stall_only_waiting_fast_forwards () =
  (* A lone stalled fiber must not deadlock the run: the clock fast
     forwards to its wake-up. *)
  let state, apply = make_counter () in
  let result =
    F.run
      ~control:(control_at ~pid:0 ~nth:1 (Fiber.Stall { steps = 50 }))
      ~sched:Schedule.round_robin ~apply
      [ (fun _ -> increment (); increment ()) ]
  in
  Alcotest.(check bool) "finishes despite the stall" true
    (result.F.statuses.(0) = Fiber.Done);
  Alcotest.(check int) "both increments land" 2 !state

let test_directive_replace () =
  (* Replacing an Incr with a Get models a dropped write: the fiber sees
     a result of the expected type but memory is untouched. *)
  let state, apply = make_counter () in
  let result =
    F.run
      ~control:(control_at ~pid:0 ~nth:1 (Fiber.Replace Counter_ops.Get))
      ~sched:Schedule.round_robin ~apply
      [ (fun _ -> increment (); increment (); increment ()) ]
  in
  Alcotest.(check bool) "fiber completes" true
    (result.F.statuses.(0) = Fiber.Done);
  Alcotest.(check int) "the dropped increment never lands" 2 !state;
  Alcotest.(check bool) "replace event recorded" true
    (List.exists
       (function Fiber.Ev_replace { pid = 0; _ } -> true | _ -> false)
       result.F.events)

let test_directive_raise () =
  let exception Boom in
  let _, apply = make_counter () in
  let result =
    F.run
      ~control:(control_at ~pid:0 ~nth:0 (Fiber.Raise Boom))
      ~sched:Schedule.round_robin ~apply
      [ (fun _ -> increment ()); (fun _ -> increment ()) ]
  in
  (match result.F.statuses.(0) with
  | Fiber.Failed Boom -> ()
  | _ -> Alcotest.fail "expected Failed Boom");
  Alcotest.(check bool) "other fiber unaffected" true
    (result.F.statuses.(1) = Fiber.Done)

let test_faults_determinism () =
  (* Same bodies, schedule and control: identical traces and events. *)
  let go () =
    let _, apply = make_counter () in
    let result =
      F.run
        ~control:(control_at ~pid:1 ~nth:1 (Fiber.Crash_restart { delay = 2 }))
        ~sched:(Schedule.random ~seed:7)
        ~apply
        (List.init 3 (fun _ -> fun _ -> for _ = 1 to 4 do increment () done))
    in
    ( List.map (fun (e : F.trace_entry) -> e.pid) result.F.trace,
      List.length result.F.events )
  in
  Alcotest.(check bool) "deterministic under faults" true (go () = go ())

(* ---- fiber reclamation: every fiber run gives up on is unwound ---- *)

module Obs = Rsim_obs.Obs
module Faults = Rsim_faults.Faults

let m_live = Obs.Metrics.gauge "fiber.live"

let check_no_live_fibers what =
  Alcotest.(check int) (what ^ ": no live fibers") 0
    (Obs.Metrics.gauge_value m_live)

(* Each case starts from a zero gauge, so a leak is blamed on the case
   that caused it rather than on every case after it. *)
let reclaim_case name f =
  Alcotest.test_case name `Quick (fun () ->
      Obs.Metrics.set m_live 0;
      f ())

let count_up _ = for _ = 1 to 10 do increment () done

let test_reclaim_probe_stop () =
  let _, apply = make_counter () in
  let probe ~step ~live:_ = if step >= 3 then `Stop else `Continue in
  let result =
    F.run ~probe ~sched:Schedule.round_robin ~apply [ count_up; count_up ]
  in
  Alcotest.(check int) "stopped after 3 ops" 3 result.F.total_ops;
  Alcotest.(check bool) "both read Pending" true
    (Array.for_all (( = ) Fiber.Pending) result.F.statuses);
  check_no_live_fibers "probe stop"

let test_reclaim_max_ops () =
  let _, apply = make_counter () in
  let result =
    F.run ~max_ops:4 ~sched:Schedule.round_robin ~apply [ count_up; count_up ]
  in
  Alcotest.(check int) "truncated at 4 ops" 4 result.F.total_ops;
  Alcotest.(check bool) "both read Pending" true
    (Array.for_all (( = ) Fiber.Pending) result.F.statuses);
  check_no_live_fibers "max_ops truncation"

let test_reclaim_schedule_exhausted () =
  let _, apply = make_counter () in
  let result =
    F.run ~sched:(Schedule.script [ 0; 1; 0 ]) ~apply
      [ count_up; count_up; (fun _ -> ()) ]
  in
  Alcotest.(check int) "script length" 3 result.F.total_ops;
  Alcotest.(check bool) "unfinished fibers read Pending" true
    (result.F.statuses = [| Fiber.Pending; Fiber.Pending; Fiber.Done |]);
  check_no_live_fibers "schedule exhaustion"

let test_reclaim_crash () =
  let _, apply = make_counter () in
  let result =
    F.run
      ~control:(control_at ~pid:0 ~nth:2 Fiber.Crash)
      ~sched:Schedule.round_robin ~apply [ count_up; count_up ]
  in
  Alcotest.(check bool) "crashed fiber reads Crashed, not Failed" true
    (result.F.statuses = [| Fiber.Crashed; Fiber.Done |]);
  check_no_live_fibers "crash"

let test_reclaim_crash_restart () =
  let _, apply = make_counter () in
  let result =
    F.run
      ~control:(control_at ~pid:0 ~nth:2 (Fiber.Crash_restart { delay = 1 }))
      ~sched:Schedule.round_robin ~apply [ count_up ]
  in
  Alcotest.(check bool) "restart recorded" true
    (List.exists
       (function Fiber.Ev_restart { pid = 0; _ } -> true | _ -> false)
       result.F.events);
  Alcotest.(check int) "2 ops, then a full fresh incarnation" 12
    result.F.total_ops;
  Alcotest.(check bool) "restarted fiber finishes" true
    (result.F.statuses.(0) = Fiber.Done);
  check_no_live_fibers "crash-restart"

let test_reclaim_raise () =
  let exception Boom in
  let _, apply = make_counter () in
  let result =
    F.run
      ~control:(control_at ~pid:1 ~nth:3 (Fiber.Raise Boom))
      ~sched:Schedule.round_robin ~apply [ count_up; count_up ]
  in
  (match result.F.statuses.(1) with
  | Fiber.Failed Boom -> ()
  | _ -> Alcotest.fail "expected Failed Boom");
  check_no_live_fibers "raise"

let test_reclaim_chaos () =
  let crashes = ref 0 in
  for seed = 0 to 199 do
    let specs =
      match Faults.named "chaos" ~n_procs:3 ~seed with
      | Some specs -> specs
      | None -> Alcotest.fail "chaos profile missing"
    in
    let plan = Faults.plan ~adapter:Faults.null_adapter specs in
    let _, apply = make_counter () in
    let result =
      F.run ~max_ops:20 ~control:(Faults.control plan)
        ~sched:(Schedule.random ~seed) ~apply
        [ count_up; count_up; count_up ]
    in
    crashes :=
      !crashes
      + List.length
          (List.filter
             (function Fiber.Ev_crash _ -> true | _ -> false)
             result.F.events);
    check_no_live_fibers (Printf.sprintf "chaos seed %d" seed)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "crashes fired (%d)" !crashes)
    true (!crashes > 50)

let test_reclaim_apply_raises () =
  (* An exception out of [apply] still unwinds every suspended fiber and
     reaches the caller unchanged. *)
  let exception Apply_failed of int in
  let calls = ref 0 in
  let apply ~pid:_ (_ : Counter_ops.op) =
    incr calls;
    if !calls = 3 then raise (Apply_failed !calls);
    Counter_ops.Ack
  in
  (match
     F.run ~sched:Schedule.round_robin ~apply [ count_up; count_up ]
   with
  | _ -> Alcotest.fail "expected the apply exception"
  | exception Apply_failed 3 -> ());
  check_no_live_fibers "apply raised"

(* A body that swallows every exception and performs a [Get] as it goes
   down: the runtime must unwind it again instead of scheduling the
   [Get]. *)
let stubborn _ =
  try count_up () with _ -> ignore (F.op Counter_ops.Get)

let check_abandon_is_final what ~cut (result : F.result) gets =
  Alcotest.(check int) (what ^ ": apply never sees the handler's Get") 0 gets;
  Alcotest.(check bool)
    (what ^ ": no trace entry from fiber 0 after the abandon point")
    true
    (List.for_all
       (fun (e : F.trace_entry) -> e.pid <> 0 || e.idx < cut)
       result.F.trace);
  check_no_live_fibers what

let test_reclaim_stubborn_body () =
  let run ?control ?max_ops () =
    let gets = ref 0 in
    let apply ~pid:_ (op : Counter_ops.op) : Counter_ops.res =
      match op with
      | Counter_ops.Incr -> Counter_ops.Ack
      | Counter_ops.Get ->
        incr gets;
        Counter_ops.Val 0
    in
    let result =
      F.run ?control ?max_ops ~sched:Schedule.round_robin ~apply
        [ stubborn; count_up ]
    in
    (result, !gets)
  in
  let result, gets = run ~control:(control_at ~pid:0 ~nth:2 Fiber.Crash) () in
  Alcotest.(check bool) "crashed, not Failed" true
    (result.F.statuses = [| Fiber.Crashed; Fiber.Done |]);
  let cut =
    List.find_map
      (function Fiber.Ev_crash { pid = 0; at; _ } -> Some at | _ -> None)
      result.F.events
  in
  check_abandon_is_final "crash" ~cut:(Option.get cut) result gets;
  let result, gets = run ~max_ops:5 () in
  Alcotest.(check bool) "truncated, reads Pending" true
    (result.F.statuses.(0) = Fiber.Pending);
  check_abandon_is_final "truncation" ~cut:5 result gets

let prop_total_equals_sum =
  QCheck.Test.make ~name:"total ops = sum of per-fiber ops" ~count:50
    QCheck.(pair (int_bound 1000) (int_range 1 4))
    (fun (seed, n) ->
      let _, apply = make_counter () in
      let result =
        F.run
          ~sched:(Schedule.random ~seed)
          ~apply
          (List.init n (fun i -> fun _ -> for _ = 0 to i do increment () done))
      in
      result.F.total_ops = Array.fold_left ( + ) 0 result.F.ops_per_fiber)

(* ---- equivalence with the reference runtime ---- *)

module Ref_F = Fiber_ref.Make (Counter_ops)

(* Everything both runtimes report about one run, the probe's
   observations and the counter's final value included. Exceptions are
   compared by their printed form. *)
type observed = {
  o_statuses : string list;
  o_trace : (int * int * Counter_ops.op * Counter_ops.res) list;
  o_events : Fiber.event list;
  o_ops_per_fiber : int list;
  o_total_ops : int;
  o_probed : (int * int list) list;
  o_counter : int;
}

let show_status = function
  | Fiber.Done -> "done"
  | Fiber.Pending -> "pending"
  | Fiber.Crashed -> "crashed"
  | Fiber.Failed e -> "failed " ^ Printexc.to_string e

(* One random configuration: bodies whose next operation depends on what
   they read, bodies that raise, return at once or swallow an injected
   exception and carry on; a random schedule; a fire-once fault plan
   drawing every directive; and random [max_ops], [max_restarts] and
   probe-stop cuts. [case ~bodies run] drives it through the runtime
   whose [run] is given, with bodies built by [bodies kinds lens] (the
   kind and the length of each pid's body, drawn here). *)
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
  let plan =
    List.init (int 4) (fun _ ->
        let directive =
          match int 6 with
          | 0 -> Fiber.Crash
          | 1 -> Fiber.Crash_restart { delay = int 4 }
          | 2 -> Fiber.Stall { steps = int 5 }
          | 3 -> Fiber.Replace Counter_ops.Incr
          | 4 -> Fiber.Replace Counter_ops.Get
          | _ -> Fiber.Raise (Failure "injected")
        in
        (int n, int 6, directive))
  in
  let max_ops = if int 3 = 0 then Some (int 20) else None in
  let max_restarts = int 4 in
  let stop_at = if int 3 = 0 then Some (int 25) else None in
  fun ~bodies run ->
    let state, apply = make_counter () in
    let fired = Array.make (List.length plan) false in
    let control ~pid ~nth _op =
      let rec first k = function
        | [] -> Fiber.Proceed
        | (p, at, d) :: rest ->
          if (not fired.(k)) && p = pid && at = nth then begin
            fired.(k) <- true;
            d
          end
          else first (k + 1) rest
      in
      first 0 plan
    in
    let probed = ref [] in
    let probe ~step ~live =
      probed := (step, live) :: !probed;
      match stop_at with Some s when step >= s -> `Stop | _ -> `Continue
    in
    let observed =
      run ?max_ops ~control ~max_restarts ~probe ~sched ~apply
        (bodies kinds lens)
    in
    { observed with o_probed = List.rev !probed; o_counter = !state }

(* The fiber bodies of [random_case], performing operations with [op]. *)
let fiber_bodies op kinds lens =
  let body pid =
    let len = lens.(pid) in
    let steps () =
      for i = 1 to len do
        match op Counter_ops.Get with
        | Counter_ops.Val v when (v + i + pid) mod 3 = 0 ->
          ignore (op Counter_ops.Incr)
        | Counter_ops.Val _ | Counter_ops.Ack -> ignore (op Counter_ops.Get)
      done
    in
    match kinds.(pid) with
    | 0 -> ()
    | 1 ->
      steps ();
      failwith (Printf.sprintf "body %d gave up" pid)
    | 2 -> (
      try steps () with Failure _ -> ignore (op Counter_ops.Incr))
    | _ -> steps ()
  in
  List.init (Array.length kinds) (fun _ pid -> body pid)

let observe (r : F.result) =
  {
    o_statuses = Array.to_list (Array.map show_status r.F.statuses);
    o_trace =
      List.map
        (fun (e : F.trace_entry) -> (e.idx, e.pid, e.op, e.res))
        r.F.trace;
    o_events = r.F.events;
    o_ops_per_fiber = Array.to_list r.F.ops_per_fiber;
    o_total_ops = r.F.total_ops;
    o_probed = [];
    o_counter = 0;
  }

let via_runtime ?max_ops ~control ~max_restarts ~probe ~sched ~apply bodies =
  observe (F.run ?max_ops ~control ~max_restarts ~probe ~sched ~apply bodies)

let via_reference ?max_ops ~control ~max_restarts ~probe ~sched ~apply bodies =
  let r =
    Ref_F.run ?max_ops ~control ~max_restarts ~probe ~sched ~apply bodies
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
  }

let test_matches_reference () =
  let faulted = ref 0 and cut = ref 0 in
  for seed = 1 to 3000 do
    let case = random_case seed in
    let got = case ~bodies:(fiber_bodies F.op) via_runtime
    and want = case ~bodies:(fiber_bodies Ref_F.op) via_reference in
    if got <> want then
      Alcotest.failf "seed %d: the runtime and the reference disagree" seed;
    if got.o_events <> [] then incr faulted;
    if List.mem "pending" got.o_statuses then incr cut
  done;
  (* The corpus must exercise the fault plane and the early stops, or
     the comparison proves little. *)
  Alcotest.(check bool)
    (Printf.sprintf "faulted runs (%d) and cut runs (%d)" !faulted !cut)
    true
    (!faulted > 1000 && !cut > 300)

(* ---- the program interpreter against the fiber runtime ---- *)

module P =
  Prog.Make
    (struct
      include Counter_ops

      type note = int * int  (** pid, trace index of a read *)
    end)
    (F)

(* [random_case]'s bodies as programs: the same reads and increments,
   a note per read, and a failure after the last operation for kind 1.
   A program cannot catch the injected exception, so kind 2 is plain. *)
let program kinds lens pid : unit P.t =
  let open P in
  let len = lens.(pid) in
  let rec steps i =
    if i > len then return ()
    else
      let* r, idx = op Counter_ops.Get in
      let* () = emit (pid, idx) in
      match r with
      | Counter_ops.Val v when (v + i + pid) mod 3 = 0 ->
        let* _ = op Counter_ops.Incr in
        steps (i + 1)
      | Counter_ops.Val _ | Counter_ops.Ack ->
        let* _ = op Counter_ops.Get in
        steps (i + 1)
  in
  match kinds.(pid) with
  | 0 -> return ()
  | 1 ->
    let* () = steps 1 in
    let* _ = op Counter_ops.Get in
    failwith (Printf.sprintf "program %d gave up" pid)
  | _ -> steps 1

let via_interpreter ~emit ?max_ops ~control ~max_restarts ~probe ~sched ~apply
    programs =
  observe
    (P.run ~probe ~sched
       (P.start ?max_ops ~control ~max_restarts ~apply ~emit programs))

(* Every random program runs on the interpreter and, through the
   direct-style driver, on fibers: statuses, trace, events, per-pid
   counts, probe calls, the counter and the notes (with the trace index
   each continuation was handed) must all agree. *)
let test_interpreter_matches_fibers () =
  let faulted = ref 0 and cut = ref 0 in
  for seed = 1 to 3000 do
    let notes = ref [] in
    let emit n = notes := n :: !notes in
    let got =
      random_case seed
        ~bodies:(fun kinds lens ->
          List.init (Array.length kinds) (program kinds lens))
        (via_interpreter ~emit)
    in
    let got_notes = List.rev !notes in
    notes := [];
    let applied = ref 0 in
    let want =
      random_case seed
        ~bodies:(fun kinds lens ->
          List.init (Array.length kinds) (fun pid _ ->
              P.drive ~perform:F.op
                ~index:(fun () -> !applied - 1)
                ~emit (program kinds lens pid)))
        (fun ?max_ops ~control ~max_restarts ~probe ~sched ~apply bodies ->
          let apply ~pid op =
            incr applied;
            apply ~pid op
          in
          via_runtime ?max_ops ~control ~max_restarts ~probe ~sched ~apply
            bodies)
    in
    if got <> want then
      Alcotest.failf "seed %d: the interpreter and the fibers disagree" seed;
    if got_notes <> List.rev !notes then
      Alcotest.failf "seed %d: the programs' notes disagree" seed;
    if got.o_events <> [] then incr faulted;
    if List.mem "pending" got.o_statuses then incr cut
  done;
  Alcotest.(check bool)
    (Printf.sprintf "faulted runs (%d) and cut runs (%d)" !faulted !cut)
    true
    (!faulted > 1000 && !cut > 300)

(* A hop of a trivial-op run allocates its trace entry, the schedule's
   next state and the effect machinery's blocks (the performed effect,
   its handler closure, the suspended continuation): 34 minor words on
   OCaml 5.1, against 46 when a schedule was a closure chain and the
   runtime kept its state in refs, and 52 when it also rebuilt the live
   list on every hop. The long run amortizes the per-run set-up and the
   float [Gc.minor_words] boxes to nothing. The set-up is measured on
   its own: a 3-fiber run that [max_ops] 0 cuts at each fiber's first
   operation starts, suspends and abandons every fiber, and allocates
   166 words against 318 with one handler and three closures per fiber
   start. These budgets keep both from creeping back. *)
let test_hop_allocation () =
  let _, apply = make_counter () in
  let body _ = for _ = 1 to 10_000 do increment () done in
  let w0 = Gc.minor_words () in
  let result = F.run ~sched:Schedule.round_robin ~apply [ body; body ] in
  let per_hop = (Gc.minor_words () -. w0) /. float_of_int result.F.total_ops in
  if per_hop > 36. then
    Alcotest.failf "a trivial hop allocated %.1f minor words (budget 36)"
      per_hop;
  let bodies = [ body; body; body ] in
  let runs = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (F.run ~max_ops:0 ~sched:Schedule.round_robin ~apply bodies)
  done;
  let per_run = (Gc.minor_words () -. w0) /. float_of_int runs in
  if per_run > 170. then
    Alcotest.failf "a cut 3-fiber run allocated %.1f minor words (budget 170)"
      per_run

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
          Alcotest.test_case "crash via schedule" `Quick test_crash_via_schedule;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "per-fiber counts" `Quick test_ops_counted_per_fiber;
          Alcotest.test_case "no-op fiber" `Quick test_no_op_fiber;
          Alcotest.test_case "matches the reference runtime" `Quick
            test_matches_reference;
          Alcotest.test_case "allocation per hop" `Quick test_hop_allocation;
          Alcotest.test_case "interpreter matches fibers" `Quick
            test_interpreter_matches_fibers;
        ] );
      ( "fault boundary",
        [
          Alcotest.test_case "crash directive" `Quick test_directive_crash;
          Alcotest.test_case "crash-restart directive" `Quick
            test_directive_crash_restart;
          Alcotest.test_case "restart cap" `Quick test_restart_cap;
          Alcotest.test_case "stall directive" `Quick test_directive_stall;
          Alcotest.test_case "stall fast-forward" `Quick
            test_stall_only_waiting_fast_forwards;
          Alcotest.test_case "replace (dropped write)" `Quick
            test_directive_replace;
          Alcotest.test_case "raise directive" `Quick test_directive_raise;
          Alcotest.test_case "determinism under faults" `Quick
            test_faults_determinism;
        ] );
      ( "fiber reclamation",
        [
          reclaim_case "probe stop" test_reclaim_probe_stop;
          reclaim_case "max_ops truncation" test_reclaim_max_ops;
          reclaim_case "schedule exhaustion" test_reclaim_schedule_exhausted;
          reclaim_case "crash" test_reclaim_crash;
          reclaim_case "crash-restart" test_reclaim_crash_restart;
          reclaim_case "raise" test_reclaim_raise;
          reclaim_case "chaos profile, 200 seeds" test_reclaim_chaos;
          reclaim_case "exception out of apply" test_reclaim_apply_raises;
          reclaim_case "body that swallows the unwind"
            test_reclaim_stubborn_body;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_total_equals_sum ]);
    ]
