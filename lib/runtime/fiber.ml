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

(* Always-on fault-plane and throughput counters, no allocation (the
   observability plane's "off" cost): a fault event is one atomic
   increment, and [fiber.ops] gets one atomic add per run. *)
let m_ops = Obs.Metrics.counter "fiber.ops"
let m_crashes = Obs.Metrics.counter "fiber.faults.crash"
let m_restarts = Obs.Metrics.counter "fiber.faults.restart"
let m_stalls = Obs.Metrics.counter "fiber.faults.stall"
let m_replaces = Obs.Metrics.counter "fiber.faults.replace"
let m_raises = Obs.Metrics.counter "fiber.faults.raise"

(* Fibers started and not yet unwound; [run] leaves it where it found it. *)
let m_live = Obs.Metrics.gauge "fiber.live"

(* Raised into every fiber [run] gives up on (crashed, or still suspended
   when the run ends), so its stack unwinds and is freed: OCaml 5 never
   frees a continuation that is dropped without [discontinue]. *)
exception Abandoned

let count_ops n = Obs.Metrics.add m_ops n

let record_event ~traced e =
  (match e with
  | Ev_crash _ -> Obs.Metrics.incr m_crashes
  | Ev_restart _ -> Obs.Metrics.incr m_restarts
  | Ev_stall _ -> Obs.Metrics.incr m_stalls
  | Ev_replace _ -> Obs.Metrics.incr m_replaces
  | Ev_raise _ -> Obs.Metrics.incr m_raises);
  if traced then
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
    | Ev_raise { pid; at } -> Obs.Trace.instant ~name:"fault.raise" ~pid ~ts:at ()

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

  (* [Suspended]: the fiber performed an operation and waits here until
     the scheduler picks it. [Dead s]: [run] gave up on the fiber's
     current incarnation and recorded [s] for it. The incarnation's
     handler leaves the slot alone and refuses any further op; a restart
     starts a fresh incarnation from a [Fresh] slot. *)
  type slot =
    | Fresh
    | Suspended of { pending_op : M.op; resume : (M.res, unit) continuation }
    | Dead of status
    | Finished of status

  (* One run's state. [running] is the pid whose code is executing: it
     is set before a fiber is started, resumed or unwound, and the run's
     one effect handler reads it to know whose slot to fill. *)
  type state = {
    n : int;
    bodies : (int -> unit) array;
    slots : slot array;
    ops_per_fiber : int array;
    apply : pid:int -> M.op -> M.res;
    control : (pid:int -> nth:int -> M.op -> M.op directive) option;
    max_ops : int;
    max_restarts : int;
    obs_label : M.op -> string;
    probe : probe option;
    traced : bool;
    mutable handler : (unit, unit) handler;
    mutable running : int;
    mutable rev_trace : trace_entry list;
    mutable rev_events : event list;
    mutable total : int;
    (* [clock] counts scheduling decisions; stall windows and restart
       delays are measured against it, so a stalled or
       crashed-restarting fiber wakes after other fibers have been
       offered that many turns (or immediately, if nobody else can run —
       time fast-forwards). [decisions] counts successful decisions
       only; unlike [clock] it never jumps, so a probe sees a dense
       0,1,2,... step sequence it can index prefixes by. *)
    mutable clock : int;
    mutable decisions : int;
    stalled_until : int array;
    restart_due : int array;  (** [-1]: no restart due *)
    mutable restarts_pending : int;  (** entries of [restart_due] >= 0 *)
    incarnations : int array;
    (* The schedulable pids, ascending, cached between the events that
       change them: a fiber finishing, crashing, stalling or restarting
       sets [live_stale], and a stall running out reaches [live_until],
       the earliest clock at which a fiber the cache leaves out wakes. *)
    mutable live : int list;
    mutable live_stale : bool;
    mutable live_until : int;
  }

  let finish st slot =
    Obs.Metrics.shift m_live (-1);
    match st.slots.(st.running) with
    | Dead _ -> ()
    | Fresh | Suspended _ | Finished _ -> st.slots.(st.running) <- slot

  let suspend st pending_op resume =
    match st.slots.(st.running) with
    | Dead _ ->
      (* The body swallowed [Abandoned]: unwind it again, never
         reschedule it. *)
      discontinue resume Abandoned
    | Fresh | Suspended _ | Finished _ ->
      st.slots.(st.running) <- Suspended { pending_op; resume }

  (* The run's one handler, shared by every fiber it starts. *)
  let handler st =
    {
      retc = (fun () -> finish st (Finished Done));
      exnc = (fun e -> finish st (Finished (Failed e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Op o -> Some (fun (k : (a, unit) continuation) -> suspend st o k)
          | _ -> None);
    }

  (* [run]'s state holds this until its own handler is built. *)
  let no_handler = { retc = Fun.id; exnc = raise; effc = (fun _ -> None) }

  (* Run [pid]'s body until its first Op, completion, or exception. *)
  let start_fiber st pid =
    st.slots.(pid) <- Fresh;
    st.running <- pid;
    Obs.Metrics.shift m_live 1;
    match_with st.bodies.(pid) pid st.handler

  (* Unwind a suspended fiber for good, recording [status] for it. *)
  let abandon st pid status resume =
    st.slots.(pid) <- Dead status;
    st.running <- pid;
    discontinue resume Abandoned

  let event st e =
    st.rev_events <- e :: st.rev_events;
    record_event ~traced:st.traced e

  let do_restarts st =
    for pid = 0 to st.n - 1 do
      let due = st.restart_due.(pid) in
      if due >= 0 && st.clock >= due then begin
        st.restart_due.(pid) <- -1;
        st.restarts_pending <- st.restarts_pending - 1;
        st.incarnations.(pid) <- st.incarnations.(pid) + 1;
        event st
          (Ev_restart
             { pid; at = st.total; incarnation = st.incarnations.(pid) });
        (* A restarted process loses all local state: its body runs
           again from the beginning. Shared state (inside [apply]'s
           closure) persists. *)
        start_fiber st pid;
        st.live_stale <- true
      end
    done

  let pending_pids st =
    if st.live_stale || st.clock >= st.live_until then begin
      let acc = ref [] in
      let until = ref max_int in
      for pid = st.n - 1 downto 0 do
        match st.slots.(pid) with
        | Suspended _ ->
          let wake = st.stalled_until.(pid) in
          if wake <= st.clock then acc := pid :: !acc
          else if wake < !until then until := wake
        | Fresh | Dead _ | Finished _ -> ()
      done;
      st.live <- !acc;
      st.live_stale <- false;
      st.live_until <- !until
    end;
    st.live

  (* The earliest clock at which a stalled fiber wakes or a crashed one
     restarts, or [max_int] if none will. *)
  let earliest_wake st =
    let best = ref max_int in
    for pid = 0 to st.n - 1 do
      (match st.slots.(pid) with
      | Suspended _ when st.stalled_until.(pid) > st.clock ->
        best := min !best st.stalled_until.(pid)
      | Suspended _ | Fresh | Dead _ | Finished _ -> ());
      if st.restart_due.(pid) >= 0 then best := min !best st.restart_due.(pid)
    done;
    !best

  (* Apply [op] for [pid] and resume the fiber until its next operation
     or its end. *)
  let exec st pid resume op =
    let res = st.apply ~pid op in
    let idx = st.total in
    st.rev_trace <- { idx; pid; op; res } :: st.rev_trace;
    st.total <- idx + 1;
    st.ops_per_fiber.(pid) <- st.ops_per_fiber.(pid) + 1;
    if st.traced then
      Obs.Trace.sampled_complete ~name:(st.obs_label op) ~pid ~ts:idx ~dur:1 ();
    (* Resuming overwrites the slot with the fiber's next state
       (Suspended on its next op, or Finished). *)
    st.running <- pid;
    continue resume res

  (* Act on [control]'s directive for [pid]'s pending operation. *)
  let direct st c pid resume pending_op =
    match c ~pid ~nth:st.ops_per_fiber.(pid) pending_op with
    | Proceed -> exec st pid resume pending_op
    | Replace op' ->
      event st (Ev_replace { pid; at = st.total });
      exec st pid resume op'
    | Raise e ->
      (* The injected exception unwinds the fiber body, so the fiber
         ends up [Failed e] via the handler's [exnc]. *)
      event st (Ev_raise { pid; at = st.total });
      st.running <- pid;
      discontinue resume e
    | Crash ->
      event st (Ev_crash { pid; at = st.total; restarting = false });
      abandon st pid Crashed resume
    | Crash_restart { delay } ->
      let restarting = st.incarnations.(pid) < st.max_restarts in
      event st (Ev_crash { pid; at = st.total; restarting });
      abandon st pid Crashed resume;
      if restarting then begin
        st.restart_due.(pid) <- st.clock + max 1 delay;
        st.restarts_pending <- st.restarts_pending + 1
      end
    | Stall { steps } ->
      event st (Ev_stall { pid; at = st.total; steps });
      st.stalled_until.(pid) <- st.clock + max 1 steps;
      st.live_stale <- true

  let probe_stops st live =
    match st.probe with
    | None -> false
    | Some p -> (
      match p ~step:st.decisions ~live with `Continue -> false | `Stop -> true)

  let rec loop st sched =
    if st.total < st.max_ops then begin
      if st.restarts_pending > 0 then do_restarts st;
      match pending_pids st with
      | [] ->
        (* Nobody can run now, but time passing may wake someone. *)
        let c = earliest_wake st in
        if c < max_int then begin
          st.clock <- c;
          loop st sched
        end
      | live -> (
        (* The probe may ask to stop before this decision is made. *)
        if not (probe_stops st live) then
          match Rsim_shmem.Schedule.next sched ~live with
          | None -> ()
          | Some (pid, sched') ->
            st.clock <- st.clock + 1;
            st.decisions <- st.decisions + 1;
            (match st.slots.(pid) with
            | Suspended { pending_op; resume } -> (
              match st.control with
              | None -> exec st pid resume pending_op
              | Some c -> direct st c pid resume pending_op)
            | Fresh | Dead _ | Finished _ -> assert false);
            (match st.slots.(pid) with
            | Suspended _ -> ()
            | Fresh | Dead _ | Finished _ -> st.live_stale <- true);
            loop st sched')
    end

  (* Every fiber still suspended is abandoned, after its status has been
     read as [Pending]. *)
  let abandon_suspended st =
    for pid = 0 to st.n - 1 do
      match st.slots.(pid) with
      | Suspended { resume; _ } -> abandon st pid Pending resume
      | Fresh | Dead _ | Finished _ -> ()
    done

  let status_of = function
    | Finished s | Dead s -> s
    | Suspended _ -> Pending
    | Fresh -> Done

  let default_obs_label (_ : M.op) = "op"

  let run ?(max_ops = 1_000_000) ?control ?(max_restarts = 4)
      ?(obs_label = default_obs_label) ?probe ~sched ~apply bodies =
    let bodies = Array.of_list bodies in
    let n = Array.length bodies in
    let st =
      {
        n;
        bodies;
        slots = Array.make n Fresh;
        ops_per_fiber = Array.make n 0;
        apply;
        control;
        max_ops;
        max_restarts;
        obs_label;
        probe;
        traced = Obs.Trace.enabled ();
        handler = no_handler;
        running = -1;
        rev_trace = [];
        rev_events = [];
        total = 0;
        clock = 0;
        decisions = 0;
        stalled_until = Array.make n 0;
        restart_due = Array.make n (-1);
        restarts_pending = 0;
        incarnations = Array.make n 0;
        live = [];
        live_stale = true;
        live_until = max_int;
      }
    in
    st.handler <- handler st;
    (* However the run ends — even by an exception out of [apply],
       [control], [probe] or the schedule — the suspended fibers are
       abandoned and the run's operations counted before [run] returns
       or re-raises. *)
    match
      for pid = 0 to n - 1 do
        start_fiber st pid
      done;
      loop st sched;
      Array.map status_of st.slots
    with
    | statuses ->
      abandon_suspended st;
      count_ops st.total;
      {
        statuses;
        trace = List.rev st.rev_trace;
        ops_per_fiber = st.ops_per_fiber;
        total_ops = st.total;
        events = List.rev st.rev_events;
      }
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      abandon_suspended st;
      count_ops st.total;
      Printexc.raise_with_backtrace e bt
end
