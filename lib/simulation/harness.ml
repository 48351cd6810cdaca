open Rsim_value
open Rsim_shmem
open Rsim_augmented

module Obs = Rsim_obs.Obs
module Log = Obs.Log

(* Run-level telemetry: how hard each simulation worked, and how close
   the supervision watchdog came to firing (its budget is calibrated
   against Lemma 31's step bound — see {!default_watchdog}). *)
let m_runs = Obs.Metrics.counter "harness.runs"
let m_quarantines = Obs.Metrics.counter "harness.quarantines"
let h_revisions = Obs.Metrics.histogram "harness.sim.revisions"
let h_sim_ops = Obs.Metrics.histogram "harness.sim.hops"
let g_watchdog_margin = Obs.Metrics.gauge "harness.watchdog.margin"

type spec = {
  protocol : int -> Value.t -> Proc.t;
  n : int;
  m : int;
  f : int;
  d : int;
  inputs : Value.t list;
}

type quarantine = { sim : int; at_op : int; reason : string }

type fault_report = {
  events : Rsim_runtime.Prog.event list;
  quarantined : quarantine list;
  watchdog_budget : int;
}

type result = {
  outputs : (int * Value.t) list;
  aug : Aug.t;
  trace : Aug.Prog.trace_entry list;
  journals : Journal.event list array;
  partition : int array array;
  statuses : Rsim_runtime.Prog.status array;
  ops_per_sim : int array;
  bu_counts : int array;
  total_ops : int;
  all_done : bool;
  report : fault_report;
  index : Aug_spec.index;
}

let partition ~m ~f ~d =
  Array.init f (fun i ->
      if i < f - d then Array.init m (fun g -> (i * m) + g)
      else [| ((f - d) * m) + (i - (f - d)) |])

let check_shape ~n ~m ~f ~d =
  if f < 1 then Error "f must be >= 1"
  else if d < 0 || d > f then Error "need 0 <= d <= f"
  else if m < 1 then Error "m must be >= 1"
  else if ((f - d) * m) + d > n then
    Error
      (Printf.sprintf "(f-d)*m + d = %d exceeds n = %d" (((f - d) * m) + d) n)
  else Ok ()

let check_spec spec =
  (match check_shape ~n:spec.n ~m:spec.m ~f:spec.f ~d:spec.d with
  | Ok () -> ()
  | Error e -> invalid_arg ("Harness: " ^ e));
  if List.length spec.inputs <> spec.f then
    invalid_arg "Harness: need exactly f inputs"

(* Lemma 31's per-simulator step bound on the single-writer snapshot —
   the natural yardstick for the supervision watchdog. The lemma is
   stated for an all-covering simulation; shapes with direct simulators
   can legitimately run past it, so the default budget takes a generous
   multiple (the watchdog only has to be finite to catch divergence, not
   tight). Saturates for large f·m, so cap it by the run's own op
   budget. *)
let default_watchdog ~f ~m ~max_ops =
  let b = Complexity.step_bound ~f ~m in
  if Complexity.is_saturated b || b > (max_ops - 64) / 4 then max_ops
  else (4 * b) + 64

(* A simulation in progress: the shared object, which keeps the trace
   index, the interpreter's run, and what the run's notes and its
   watchdog record — per simulator its journal, latest event first, and
   the quarantines, latest first. [save] copies the mutable parts; the
   rest is fixed at [start]. *)
type sim = {
  spec : spec;
  part : int array array;
  watchdog_budget : int;
  aug : Aug.t;
  plan : Aug.Ops.op Rsim_faults.Faults.plan;
  run : Aug.Prog.run;
  rev_journals : Journal.event list array;
  rev_quarantined : quarantine list ref;
}

let start ?(max_ops = 2_000_000) ?(local_cap = 100_000) ?(faults = [])
    ?watchdog spec =
  check_spec spec;
  let watchdog_budget =
    match watchdog with
    | Some b -> b
    | None -> default_watchdog ~f:spec.f ~m:spec.m ~max_ops
  in
  let aug = Aug.create ~f:spec.f ~m:spec.m () in
  let cfg = Aug.config aug in
  let part = partition ~m:spec.m ~f:spec.f ~d:spec.d in
  let inputs = Array.of_list spec.inputs in
  let programs =
    List.init spec.f (fun i ->
        if i < spec.f - spec.d then
          Covering_sim.program cfg ~me:i
            ~procs:(Array.map (fun pid -> spec.protocol pid inputs.(i)) part.(i))
            ~local_cap
        else
          Direct_sim.program cfg ~me:i
            ~proc:(spec.protocol part.(i).(0) inputs.(i)))
  in
  Log.debug (fun k ->
      k "starting simulation: n=%d m=%d f=%d d=%d watchdog=%d" spec.n spec.m
        spec.f spec.d watchdog_budget);
  let plan = Rsim_faults.Faults.plan ~adapter:Aug.fault_adapter faults in
  let rev_journals = Array.make spec.f [] in
  let rev_quarantined = ref [] in
  (* Supervision: injected faults first, then the per-simulator step
     watchdog. A simulator that exceeds Lemma 31's budget is diverging
     (or being starved into unbounded work by a bug); it is quarantined —
     crashed in place — and the run continues with the others. *)
  let control ~pid ~nth op =
    match Rsim_faults.Faults.control plan ~pid ~nth op with
    | Rsim_runtime.Prog.Proceed when nth >= watchdog_budget ->
      Log.debug (fun k ->
          k "watchdog: quarantining simulator %d after %d H-operations" pid nth);
      Obs.Metrics.incr m_quarantines;
      Obs.Trace.instant ~name:"watchdog.quarantine" ~pid ~ts:(Aug.clock aug)
        ~args:[ ("budget", Obs.Json.Int watchdog_budget) ]
        ();
      rev_quarantined :=
        {
          sim = pid;
          at_op = nth;
          reason =
            Printf.sprintf "step budget exceeded (%d H-operations >= %d)" nth
              watchdog_budget;
        }
        :: !rev_quarantined;
      Rsim_runtime.Prog.Crash
    | directive -> directive
  in
  let emit = function
    | Journal.Entry { sim; event } ->
      rev_journals.(sim) <- event :: rev_journals.(sim)
    | note -> Aug.record aug note
  in
  {
    spec;
    part;
    watchdog_budget;
    aug;
    plan;
    run =
      Aug.Prog.start ~max_ops ~control ~obs_label:Aug.op_name
        ~apply:(Aug.apply aug) ~emit programs;
    rev_journals;
    rev_quarantined;
  }

type saved = {
  s_run : Aug.Prog.saved;
  s_aug : Aug.saved;
  s_rev_journals : Journal.event list array;
  s_rev_quarantined : quarantine list;
  s_fired : int;
}

let save sim =
  {
    s_run = Aug.Prog.save sim.run;
    s_aug = Aug.save sim.aug;
    s_rev_journals = Array.copy sim.rev_journals;
    s_rev_quarantined = !(sim.rev_quarantined);
    s_fired = Rsim_faults.Faults.fired_set sim.plan;
  }

let restore sim s =
  Aug.Prog.restore sim.run s.s_run;
  Aug.restore sim.aug s.s_aug;
  Array.blit s.s_rev_journals 0 sim.rev_journals 0 sim.spec.f;
  sim.rev_quarantined := s.s_rev_quarantined;
  Rsim_faults.Faults.set_fired sim.plan s.s_fired

let is_done = function
  | Rsim_runtime.Prog.Done -> true
  | Rsim_runtime.Prog.Pending | Rsim_runtime.Prog.Failed _
  | Rsim_runtime.Prog.Crashed -> false

(* What a simulator's journal says it output: a decision, or the final
   block's solo run. *)
let output_of events =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Journal.Jdecided { value; _ } | Journal.Jfinal { output = value; _ } ->
        Some value
      | Journal.Jrevise _ -> acc)
    None events

let revisions events =
  List.fold_left
    (fun n ev ->
      match ev with
      | Journal.Jrevise _ -> n + 1
      | Journal.Jfinal _ | Journal.Jdecided _ -> n)
    0 events

(* [sim]'s result from its run's, recorded in the per-run metrics. *)
let result_of sim (fr : Aug.Prog.result) =
  let all_done = Array.for_all is_done fr.Aug.Prog.statuses in
  Log.debug (fun k ->
      k "simulation finished: %d H-operations, all_done=%b"
        fr.Aug.Prog.total_ops all_done);
  Obs.Metrics.incr m_runs;
  let journals = Array.map List.rev sim.rev_journals in
  Array.iter
    (fun evs -> Obs.Metrics.observe h_revisions (revisions evs))
    journals;
  let bu_counts = Array.make sim.spec.f 0 in
  Aug.iter_log sim.aug (function
    | Aug.Bu_op { proc; _ } -> bu_counts.(proc) <- bu_counts.(proc) + 1
    | Aug.Scan_op _ -> ());
  Array.iter (Obs.Metrics.observe h_sim_ops) fr.Aug.Prog.ops_per_fiber;
  (* Headroom between the busiest simulator and the watchdog's
     Lemma-31-calibrated budget: how far this run was from quarantine. *)
  let busiest = Array.fold_left max 0 fr.Aug.Prog.ops_per_fiber in
  Obs.Metrics.set g_watchdog_margin (sim.watchdog_budget - busiest);
  {
    outputs =
      List.filter_map
        (fun i -> Option.map (fun v -> (i, v)) (output_of journals.(i)))
        (List.init sim.spec.f Fun.id);
    aug = sim.aug;
    trace = fr.Aug.Prog.trace;
    journals;
    partition = sim.part;
    statuses = fr.Aug.Prog.statuses;
    ops_per_sim = fr.Aug.Prog.ops_per_fiber;
    bu_counts;
    total_ops = fr.Aug.Prog.total_ops;
    all_done;
    report =
      {
        events = fr.Aug.Prog.events;
        quarantined = List.rev !(sim.rev_quarantined);
        watchdog_budget = sim.watchdog_budget;
      };
    index = Aug.index sim.aug;
  }

let finish ?probe ?at_end ~sched sim =
  Aug.Prog.run ?probe ?at_end ~sched sim.run

let current sim = result_of sim (Aug.Prog.current sim.run)

let run ?max_ops ?local_cap ?faults ?watchdog ~sched spec =
  let sim = start ?max_ops ?local_cap ?faults ?watchdog spec in
  finish ~sched sim;
  current sim

type invalid =
  | Simulator_raised of { sim : int; exn : string }
  | Simulator_crashed of { sims : int list }
  | Unfinished of { sims : int list }
  | Missing_output of { sims : int list }
  | Invalid_output of { reason : string }

let explain = function
  | Simulator_raised { sim; exn } ->
    Printf.sprintf "simulator %d raised: %s" sim exn
  | Simulator_crashed { sims } ->
    Printf.sprintf "simulator%s %s crashed (or %s quarantined)"
      (if List.length sims = 1 then "" else "s")
      (String.concat ", " (List.map string_of_int sims))
      (if List.length sims = 1 then "was" else "were")
  | Unfinished { sims } ->
    Printf.sprintf
      "simulation did not complete (simulator%s %s still pending — not \
       wait-free within the budget?)"
      (if List.length sims = 1 then "" else "s")
      (String.concat ", " (List.map string_of_int sims))
  | Missing_output { sims } ->
    Printf.sprintf "simulator%s %s finished without an output"
      (if List.length sims = 1 then "" else "s")
      (String.concat ", " (List.map string_of_int sims))
  | Invalid_output { reason } -> reason

let sims_with result pred =
  Array.to_list result.statuses
  |> List.mapi (fun i s -> (i, s))
  |> List.filter_map (fun (i, s) -> if pred s then Some i else None)

let validate ?(survivors_only = false) spec result ~task =
  (* A [Failed] simulator is a bug unless the exception is a modeled
     fault injection, in which case it is a crash. *)
  let raised =
    sims_with result (function
      | Rsim_runtime.Prog.Failed e -> not (Rsim_faults.Faults.is_injected e)
      | Rsim_runtime.Prog.Done | Rsim_runtime.Prog.Pending
      | Rsim_runtime.Prog.Crashed -> false)
  in
  let crashed =
    sims_with result (function
      | Rsim_runtime.Prog.Crashed -> true
      | Rsim_runtime.Prog.Failed e -> Rsim_faults.Faults.is_injected e
      | Rsim_runtime.Prog.Done | Rsim_runtime.Prog.Pending -> false)
  in
  let pending =
    sims_with result (function
      | Rsim_runtime.Prog.Pending -> true
      | Rsim_runtime.Prog.Done | Rsim_runtime.Prog.Failed _
      | Rsim_runtime.Prog.Crashed -> false)
  in
  let done_ =
    sims_with result (function
      | Rsim_runtime.Prog.Done -> true
      | Rsim_runtime.Prog.Pending | Rsim_runtime.Prog.Failed _
      | Rsim_runtime.Prog.Crashed -> false)
  in
  match raised with
  | sim :: _ ->
    let exn =
      match result.statuses.(sim) with
      | Rsim_runtime.Prog.Failed e -> Printexc.to_string e
      | _ -> assert false
    in
    Error (Simulator_raised { sim; exn })
  | [] ->
    if (not survivors_only) && crashed <> [] then
      Error (Simulator_crashed { sims = crashed })
    else if pending <> [] then Error (Unfinished { sims = pending })
    else begin
      (* Survivors are the simulators that ran to completion. Each must
         have produced an output; the outputs must solve the task against
         the full input set (a crashed simulator participated — its input
         may have been adopted before the crash). With [survivors_only]
         the task is judged on however many outputs the survivors
         produced; with all simulators surviving that is all [f]. *)
      let missing =
        List.filter (fun i -> not (List.mem_assoc i result.outputs)) done_
      in
      if missing <> [] then Error (Missing_output { sims = missing })
      else
        let outputs =
          List.filter_map
            (fun i -> List.assoc_opt i result.outputs)
            done_
        in
        match
          Rsim_tasks.Task.check task ~inputs:spec.inputs ~outputs
        with
        | Ok () -> Ok ()
        | Error reason -> Error (Invalid_output { reason })
    end

let architecture spec =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let covering = spec.f - spec.d in
  add "REAL SYSTEM (f = %d simulators)\n" spec.f;
  add "  q0 .. q%d : covering simulators (%d processes each)\n" (covering - 1)
    spec.m;
  if spec.d > 0 then
    add "  q%d .. q%d : direct simulators (1 process each)\n" covering
      (spec.f - 1);
  add "        |\n";
  add "        | access\n";
  add "        v\n";
  add "  [ %d-component single-writer snapshot H ]\n" spec.f;
  add "        |  used to implement\n";
  add "        v\n";
  add "  [ %d-component augmented snapshot M ]\n" spec.m;
  add "        |  used to simulate block updates to\n";
  add "        v\n";
  add "  [ %d-component multi-writer snapshot M ]\n" spec.m;
  add "        ^\n";
  add "        | accessed by\n";
  add "  SIMULATED SYSTEM (n = %d processes; %d in use)\n" spec.n
    (((spec.f - spec.d) * spec.m) + spec.d);
  let part = partition ~m:spec.m ~f:spec.f ~d:spec.d in
  Array.iteri
    (fun i pids ->
      add "  P%d = {%s}%s\n" i
        (String.concat ","
           (List.map (fun p -> "p" ^ string_of_int p) (Array.to_list pids)))
        (if i < covering then "  (covering)" else "  (direct)"))
    part;
  Buffer.contents b
