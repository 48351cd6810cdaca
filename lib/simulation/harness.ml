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
  events : Rsim_runtime.Fiber.event list;
  quarantined : quarantine list;
  watchdog_budget : int;
}

type result = {
  outputs : (int * Value.t) list;
  aug : Aug.t;
  trace : Aug.F.trace_entry list;
  journals : Journal.t array;
  partition : int array array;
  statuses : Rsim_runtime.Fiber.status array;
  ops_per_sim : int array;
  bu_counts : int array;
  total_ops : int;
  all_done : bool;
  report : fault_report;
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

let run ?(max_ops = 2_000_000) ?(local_cap = 100_000) ?(faults = [])
    ?watchdog ?probe ~sched spec =
  check_spec spec;
  let watchdog_budget =
    match watchdog with
    | Some b -> b
    | None -> default_watchdog ~f:spec.f ~m:spec.m ~max_ops
  in
  let aug = Aug.create ~f:spec.f ~m:spec.m () in
  let part = partition ~m:spec.m ~f:spec.f ~d:spec.d in
  let journals = Array.init spec.f (fun _ -> Journal.create ()) in
  let inputs = Array.of_list spec.inputs in
  let covering = Array.make spec.f None in
  let direct = Array.make spec.f None in
  let bodies =
    List.init spec.f (fun i ->
        if i < spec.f - spec.d then begin
          let procs =
            Array.map (fun pid -> spec.protocol pid inputs.(i)) part.(i)
          in
          let sim =
            Covering_sim.make ~aug ~me:i ~procs ~journal:journals.(i) ~local_cap
          in
          covering.(i) <- Some sim;
          Covering_sim.body sim
        end
        else begin
          let pid = part.(i).(0) in
          let sim =
            Direct_sim.make ~aug ~me:i
              ~proc:(spec.protocol pid inputs.(i))
              ~journal:journals.(i)
          in
          direct.(i) <- Some sim;
          Direct_sim.body sim
        end)
  in
  Log.debug (fun k ->
      k "starting simulation: n=%d m=%d f=%d d=%d watchdog=%d" spec.n spec.m
        spec.f spec.d watchdog_budget);
  (* Supervision: injected faults first, then the per-simulator step
     watchdog. A simulator that exceeds Lemma 31's budget is diverging
     (or being starved into unbounded work by a bug); it is quarantined —
     crashed in place — and the run continues with the others. *)
  let plan = Rsim_faults.Faults.plan ~adapter:Aug.fault_adapter faults in
  let quarantined = ref [] in
  let control ~pid ~nth op =
    match Rsim_faults.Faults.control plan ~pid ~nth op with
    | Rsim_runtime.Fiber.Proceed when nth >= watchdog_budget ->
      Log.debug (fun k ->
          k "watchdog: quarantining simulator %d after %d H-operations" pid nth);
      Obs.Metrics.incr m_quarantines;
      Obs.Trace.instant ~name:"watchdog.quarantine" ~pid ~ts:(Aug.clock aug)
        ~args:[ ("budget", Obs.Json.Int watchdog_budget) ]
        ();
      quarantined :=
        {
          sim = pid;
          at_op = nth;
          reason =
            Printf.sprintf "step budget exceeded (%d H-operations >= %d)" nth
              watchdog_budget;
        }
        :: !quarantined;
      Rsim_runtime.Fiber.Crash
    | directive -> directive
  in
  let fr =
    Aug.F.run ~max_ops ~control ~obs_label:Aug.op_name ?probe ~sched
      ~apply:(Aug.apply aug) bodies
  in
  Log.debug (fun k ->
      k "simulation finished: %d H-operations, all_done=%b" fr.Aug.F.total_ops
        (Array.for_all
           (function Rsim_runtime.Fiber.Done -> true | _ -> false)
           fr.Aug.F.statuses));
  Obs.Metrics.incr m_runs;
  let revisions_of j =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Journal.Jrevise _ -> acc + 1
        | Journal.Jscan _ | Journal.Jbu _ | Journal.Jfinal _
        | Journal.Jdecided _ -> acc)
      0 (Journal.events j)
  in
  Array.iter (fun j -> Obs.Metrics.observe h_revisions (revisions_of j)) journals;
  Array.iter (fun n -> Obs.Metrics.observe h_sim_ops n) fr.Aug.F.ops_per_fiber;
  (* Headroom between the busiest simulator and the watchdog's
     Lemma-31-calibrated budget: how far this run was from quarantine. *)
  let busiest = Array.fold_left max 0 fr.Aug.F.ops_per_fiber in
  Obs.Metrics.set g_watchdog_margin (watchdog_budget - busiest);
  let output_of i =
    match (covering.(i), direct.(i)) with
    | Some c, _ -> Covering_sim.output c
    | _, Some d -> Direct_sim.output d
    | None, None -> None
  in
  let bu_of i =
    match (covering.(i), direct.(i)) with
    | Some c, _ -> Covering_sim.bu_count c
    | _, Some d -> Direct_sim.bu_count d
    | None, None -> 0
  in
  let outputs =
    List.filter_map
      (fun i -> Option.map (fun v -> (i, v)) (output_of i))
      (List.init spec.f Fun.id)
  in
  {
    outputs;
    aug;
    trace = fr.Aug.F.trace;
    journals;
    partition = part;
    statuses = fr.Aug.F.statuses;
    ops_per_sim = fr.Aug.F.ops_per_fiber;
    bu_counts = Array.init spec.f bu_of;
    total_ops = fr.Aug.F.total_ops;
    all_done =
      Array.for_all
        (function Rsim_runtime.Fiber.Done -> true | _ -> false)
        fr.Aug.F.statuses;
    report =
      {
        events = fr.Aug.F.events;
        quarantined = List.rev !quarantined;
        watchdog_budget;
      };
  }

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
      | Rsim_runtime.Fiber.Failed e -> not (Rsim_faults.Faults.is_injected e)
      | Rsim_runtime.Fiber.Done | Rsim_runtime.Fiber.Pending
      | Rsim_runtime.Fiber.Crashed -> false)
  in
  let crashed =
    sims_with result (function
      | Rsim_runtime.Fiber.Crashed -> true
      | Rsim_runtime.Fiber.Failed e -> Rsim_faults.Faults.is_injected e
      | Rsim_runtime.Fiber.Done | Rsim_runtime.Fiber.Pending -> false)
  in
  let pending =
    sims_with result (function
      | Rsim_runtime.Fiber.Pending -> true
      | Rsim_runtime.Fiber.Done | Rsim_runtime.Fiber.Failed _
      | Rsim_runtime.Fiber.Crashed -> false)
  in
  let done_ =
    sims_with result (function
      | Rsim_runtime.Fiber.Done -> true
      | Rsim_runtime.Fiber.Pending | Rsim_runtime.Fiber.Failed _
      | Rsim_runtime.Fiber.Crashed -> false)
  in
  match raised with
  | sim :: _ ->
    let exn =
      match result.statuses.(sim) with
      | Rsim_runtime.Fiber.Failed e -> Printexc.to_string e
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
