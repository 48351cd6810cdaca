module type OPS = sig
  type op
  type res
end

type status = Done | Pending | Failed of exn | Crashed

type 'op directive =
  | Proceed
  | Replace of 'op
  | Crash
  | Crash_restart of { delay : int }
  | Stall of { steps : int }
  | Raise of exn

type event =
  | Ev_crash of { pid : int; at : int; restarting : bool }
  | Ev_restart of { pid : int; at : int; incarnation : int }
  | Ev_stall of { pid : int; at : int; steps : int }
  | Ev_replace of { pid : int; at : int }
  | Ev_raise of { pid : int; at : int }

module Obs = Rsim_obs.Obs

(* Always-on fault-plane and throughput counters: one atomic increment
   each, no allocation (the observability plane's "off" cost). *)
let m_ops = Obs.Metrics.counter "fiber.ops"
let m_crashes = Obs.Metrics.counter "fiber.faults.crash"
let m_restarts = Obs.Metrics.counter "fiber.faults.restart"
let m_stalls = Obs.Metrics.counter "fiber.faults.stall"
let m_replaces = Obs.Metrics.counter "fiber.faults.replace"
let m_raises = Obs.Metrics.counter "fiber.faults.raise"

let pp_event fmt = function
  | Ev_crash { pid; at; restarting } ->
    Format.fprintf fmt "crash(pid=%d, at=%d%s)" pid at
      (if restarting then ", restarting" else "")
  | Ev_restart { pid; at; incarnation } ->
    Format.fprintf fmt "restart(pid=%d, at=%d, incarnation=%d)" pid at
      incarnation
  | Ev_stall { pid; at; steps } ->
    Format.fprintf fmt "stall(pid=%d, at=%d, steps=%d)" pid at steps
  | Ev_replace { pid; at } -> Format.fprintf fmt "replace(pid=%d, at=%d)" pid at
  | Ev_raise { pid; at } -> Format.fprintf fmt "raise(pid=%d, at=%d)" pid at

module type S = sig
  type op
  type res

  val op : op -> res

  type trace_entry = { idx : int; pid : int; op : op; res : res }

  type result = {
    statuses : status array;
    trace : trace_entry list;
    ops_per_fiber : int array;
    total_ops : int;
    events : event list;
  }

  type probe = step:int -> live:int list -> [ `Continue | `Stop ]

  val run :
    ?max_ops:int ->
    ?control:(pid:int -> nth:int -> op -> op directive) ->
    ?max_restarts:int ->
    ?obs_label:(op -> string) ->
    ?probe:probe ->
    sched:Rsim_shmem.Schedule.t ->
    apply:(pid:int -> op -> res) ->
    (int -> unit) list ->
    result
end

module Make (M : OPS) = struct
  open Effect
  open Effect.Deep

  type _ Effect.t += Op : M.op -> M.res Effect.t

  let op o = perform (Op o)

  type trace_entry = { idx : int; pid : int; op : M.op; res : M.res }

  type result = {
    statuses : status array;
    trace : trace_entry list;
    ops_per_fiber : int array;
    total_ops : int;
    events : event list;
  }

  type probe = step:int -> live:int list -> [ `Continue | `Stop ]

  (* A fiber that performed an operation is suspended here until the
     scheduler picks it. *)
  type suspended = { pending_op : M.op; resume : (M.res, unit) continuation }

  type slot = Fresh | Suspended of suspended | Finished of status

  let start_fiber pid body slots =
    (* Run [body pid] until its first Op, completion, or exception. *)
    match_with
      (fun () -> body pid)
      ()
      {
        retc = (fun () -> slots.(pid) <- Finished Done);
        exnc = (fun e -> slots.(pid) <- Finished (Failed e));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Op o ->
              Some
                (fun (k : (a, unit) continuation) ->
                  slots.(pid) <- Suspended { pending_op = o; resume = k })
            | _ -> None);
      }

  let default_obs_label (_ : M.op) = "op"

  let run ?(max_ops = 1_000_000) ?control ?(max_restarts = 4)
      ?(obs_label = default_obs_label) ?probe ~sched ~apply bodies =
    let n = List.length bodies in
    let bodies_arr = Array.of_list bodies in
    let slots = Array.make n Fresh in
    List.iteri (fun pid body -> start_fiber pid body slots) bodies;
    let ops_per_fiber = Array.make n 0 in
    let rev_trace = ref [] in
    let rev_events = ref [] in
    let total = ref 0 in
    (* [clock] counts scheduling decisions; stall windows and restart
       delays are measured against it, so a stalled or crashed-restarting
       fiber wakes after other fibers have been offered that many turns
       (or immediately, if nobody else can run — time fast-forwards). *)
    let clock = ref 0 in
    let stalled_until = Array.make n 0 in
    let restart_due = Array.make n (-1) in
    let incarnations = Array.make n 0 in
    let event e =
      rev_events := e :: !rev_events;
      (match e with
      | Ev_crash _ -> Obs.Metrics.incr m_crashes
      | Ev_restart _ -> Obs.Metrics.incr m_restarts
      | Ev_stall _ -> Obs.Metrics.incr m_stalls
      | Ev_replace _ -> Obs.Metrics.incr m_replaces
      | Ev_raise _ -> Obs.Metrics.incr m_raises);
      if Obs.Trace.enabled () then
        match e with
        | Ev_crash { pid; at; restarting } ->
          Obs.Trace.instant ~name:"fault.crash" ~pid ~ts:at
            ~args:[ ("restarting", Obs.Json.Bool restarting) ]
            ()
        | Ev_restart { pid; at; incarnation } ->
          Obs.Trace.instant ~name:"fault.restart" ~pid ~ts:at
            ~args:[ ("incarnation", Obs.Json.Int incarnation) ]
            ()
        | Ev_stall { pid; at; steps } ->
          Obs.Trace.instant ~name:"fault.stall" ~pid ~ts:at
            ~args:[ ("steps", Obs.Json.Int steps) ]
            ()
        | Ev_replace { pid; at } ->
          Obs.Trace.instant ~name:"fault.replace" ~pid ~ts:at ()
        | Ev_raise { pid; at } ->
          Obs.Trace.instant ~name:"fault.raise" ~pid ~ts:at ()
    in
    let do_restarts () =
      for pid = 0 to n - 1 do
        if restart_due.(pid) >= 0 && !clock >= restart_due.(pid) then begin
          restart_due.(pid) <- -1;
          incarnations.(pid) <- incarnations.(pid) + 1;
          event
            (Ev_restart
               { pid; at = !total; incarnation = incarnations.(pid) });
          (* A restarted process loses all local state: its body runs
             again from the beginning. Shared state (inside [apply]'s
             closure) persists. *)
          start_fiber pid bodies_arr.(pid) slots
        end
      done
    in
    let pending_pids () =
      let acc = ref [] in
      for pid = n - 1 downto 0 do
        match slots.(pid) with
        | Suspended _ -> if stalled_until.(pid) <= !clock then acc := pid :: !acc
        | Fresh | Finished _ -> ()
      done;
      !acc
    in
    (* The earliest clock at which a stalled fiber wakes or a crashed one
       restarts, if any. *)
    let earliest_wake () =
      let best = ref None in
      let consider c = match !best with
        | Some b when b <= c -> ()
        | _ -> best := Some c
      in
      for pid = 0 to n - 1 do
        (match slots.(pid) with
        | Suspended _ when stalled_until.(pid) > !clock ->
          consider stalled_until.(pid)
        | Suspended _ | Fresh | Finished _ -> ());
        if restart_due.(pid) >= 0 then consider restart_due.(pid)
      done;
      !best
    in
    (* [decisions] counts successful scheduling decisions only; unlike
       [clock] it never jumps on stall/restart fast-forwards, so a probe
       sees a dense 0,1,2,... step sequence it can index prefixes by. *)
    let decisions = ref 0 in
    let rec loop sched =
      if !total >= max_ops then ()
      else begin
        do_restarts ();
        match pending_pids () with
        | [] -> (
          (* Nobody can run now, but time passing may wake someone. *)
          match earliest_wake () with
          | Some c ->
            clock := c;
            loop sched
          | None -> ())
        | live
          when match probe with
               | None -> false
               | Some p -> (
                 match p ~step:!decisions ~live with
                 | `Continue -> false
                 | `Stop -> true) ->
          (* The probe asked to stop before this decision was made. *)
          ()
        | live -> (
          match Rsim_shmem.Schedule.next sched ~live with
          | None -> ()
          | Some (pid, sched') ->
            incr clock;
            incr decisions;
            (match slots.(pid) with
            | Suspended { pending_op; resume } -> (
              let exec op =
                let res = apply ~pid op in
                let idx = !total in
                rev_trace := { idx; pid; op; res } :: !rev_trace;
                total := idx + 1;
                ops_per_fiber.(pid) <- ops_per_fiber.(pid) + 1;
                Obs.Metrics.incr m_ops;
                if Obs.Trace.enabled () then
                  Obs.Trace.sampled_complete ~name:(obs_label op) ~pid ~ts:idx
                    ~dur:1 ();
                (* Resuming overwrites the slot with the fiber's next
                   state (Suspended on its next op, or Finished). *)
                continue resume res
              in
              let directive =
                match control with
                | None -> Proceed
                | Some c -> c ~pid ~nth:ops_per_fiber.(pid) pending_op
              in
              match directive with
              | Proceed -> exec pending_op
              | Replace op' ->
                event (Ev_replace { pid; at = !total });
                exec op'
              | Raise e ->
                (* The injected exception unwinds the fiber body, so the
                   fiber ends up [Failed e] via [start_fiber]'s [exnc]. *)
                event (Ev_raise { pid; at = !total });
                discontinue resume e
              | Crash ->
                event (Ev_crash { pid; at = !total; restarting = false });
                slots.(pid) <- Finished Crashed
              | Crash_restart { delay } ->
                let restarting = incarnations.(pid) < max_restarts in
                event (Ev_crash { pid; at = !total; restarting });
                slots.(pid) <- Finished Crashed;
                if restarting then restart_due.(pid) <- !clock + max 1 delay
              | Stall { steps } ->
                event (Ev_stall { pid; at = !total; steps });
                stalled_until.(pid) <- !clock + max 1 steps)
            | Fresh | Finished _ -> assert false);
            loop sched')
      end
    in
    loop sched;
    let statuses =
      Array.map
        (function
          | Finished s -> s
          | Suspended _ -> Pending
          | Fresh -> Done)
        slots
    in
    {
      statuses;
      trace = List.rev !rev_trace;
      ops_per_fiber;
      total_ops = !total;
      events = List.rev !rev_events;
    }
end
