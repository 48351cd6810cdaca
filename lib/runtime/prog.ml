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

type probe = step:int -> live:int list -> [ `Continue | `Stop ]

module type OPS = sig
  type op
  type res
  type note
end

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
  type note

  type 'a t =
    | Return of 'a
    | Op of op * (res -> int -> 'a t)
    | Emit of note * (unit -> 'a t)

  val return : 'a -> 'a t
  val op : op -> (res * int) t
  val emit : note -> unit t
  val bind : 'a t -> ('a -> 'b t) -> 'b t
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t

  type trace_entry = { idx : int; pid : int; op : op; res : res }

  type result = {
    statuses : status array;
    trace : trace_entry list;
    ops_per_fiber : int array;
    total_ops : int;
    events : event list;
  }

  type run

  val start :
    ?max_ops:int ->
    ?control:(pid:int -> nth:int -> op -> op directive) ->
    ?max_restarts:int ->
    ?obs_label:(op -> string) ->
    apply:(pid:int -> op -> res) ->
    emit:(note -> unit) ->
    unit t list ->
    run

  val run :
    ?probe:probe ->
    ?at_end:(unit -> unit) ->
    sched:Rsim_shmem.Schedule.t ->
    run ->
    result

  val current : run -> result

  type saved

  val save : run -> saved
  val restore : run -> saved -> unit
end

module Make (M : OPS) = struct
  type 'a t =
    | Return of 'a
    | Op of M.op * (M.res -> int -> 'a t)
    | Emit of M.note * (unit -> 'a t)

  let return x = Return x
  let op o = Op (o, fun r i -> Return (r, i))
  let emit n = Emit (n, fun () -> Return ())

  let rec bind p f =
    match p with
    | Return x -> f x
    | Op (o, k) -> Op (o, fun r i -> bind (k r i) f)
    | Emit (n, p) -> Emit (n, fun () -> bind (p ()) f)

  let ( let* ) = bind

  type trace_entry = { idx : int; pid : int; op : M.op; res : M.res }

  type result = {
    statuses : status array;
    trace : trace_entry list;
    ops_per_fiber : int array;
    total_ops : int;
    events : event list;
  }

  (* A pid's program waits at its next operation, or is over: finished,
     failed or crashed. *)
  type slot = Suspended of M.op * (M.res -> int -> unit t) | Over of status

  (* One run's state. [clock] counts scheduling decisions: stall windows
     and restart delays are measured against it, so a stalled or
     crashed-restarting pid wakes after others have been offered that
     many turns, or at once if nobody else can run (time fast-forwards).
     [decisions] counts the decisions made; unlike [clock] it never
     jumps, so a probe sees a dense 0,1,2,... step sequence. The
     schedulable pids, ascending, are cached in [live] between the events
     that change them: a program finishing, crashing, stalling or
     restarting sets [live_stale], and a stall running out reaches
     [live_until], the earliest clock at which a pid the cache leaves out
     wakes. Everything a decision changes is in the fields that {!save}
     copies; [hops] counts this run's own applied operations for
     [fiber.ops], and [restored] says whether {!restore} was called since
     [at_end] last was. *)
  type run = {
    n : int;
    programs : unit t array;  (** initial programs, for restarts *)
    slots : slot array;
    ops_per_fiber : int array;
    apply : pid:int -> M.op -> M.res;
    emit : M.note -> unit;
    control : (pid:int -> nth:int -> M.op -> M.op directive) option;
    max_ops : int;
    max_restarts : int;
    obs_label : M.op -> string;
    traced : bool;
    mutable rev_trace : trace_entry list;
    mutable rev_events : event list;
    mutable total : int;
    mutable clock : int;
    mutable decisions : int;
    stalled_until : int array;
    restart_due : int array;  (** [-1]: no restart due *)
    mutable restarts_pending : int;
    incarnations : int array;
    mutable live : int list;
    mutable live_stale : bool;
    mutable live_until : int;
    mutable hops : int;
    mutable restored : bool;
  }

  type saved = {
    s_slots : slot array;
    s_ops_per_fiber : int array;
    s_rev_trace : trace_entry list;
    s_rev_events : event list;
    s_total : int;
    s_clock : int;
    s_decisions : int;
    s_stalled_until : int array;
    s_restart_due : int array;
    s_restarts_pending : int;
    s_incarnations : int array;
  }

  let save st =
    {
      s_slots = Array.copy st.slots;
      s_ops_per_fiber = Array.copy st.ops_per_fiber;
      s_rev_trace = st.rev_trace;
      s_rev_events = st.rev_events;
      s_total = st.total;
      s_clock = st.clock;
      s_decisions = st.decisions;
      s_stalled_until = Array.copy st.stalled_until;
      s_restart_due = Array.copy st.restart_due;
      s_restarts_pending = st.restarts_pending;
      s_incarnations = Array.copy st.incarnations;
    }

  let restore st s =
    let n = st.n in
    Array.blit s.s_slots 0 st.slots 0 n;
    Array.blit s.s_ops_per_fiber 0 st.ops_per_fiber 0 n;
    Array.blit s.s_stalled_until 0 st.stalled_until 0 n;
    Array.blit s.s_restart_due 0 st.restart_due 0 n;
    Array.blit s.s_incarnations 0 st.incarnations 0 n;
    st.rev_trace <- s.s_rev_trace;
    st.rev_events <- s.s_rev_events;
    st.total <- s.s_total;
    st.clock <- s.s_clock;
    st.decisions <- s.s_decisions;
    st.restarts_pending <- s.s_restarts_pending;
    st.live_stale <- true;
    st.restored <- true

  (* Run [pid]'s program up to its next operation or its end, emitting
     its notes; an exception out of a continuation fails the program, as
     one out of direct-style code past the notes would. *)
  let rec settle st pid = function
    | Return () -> st.slots.(pid) <- Over Done
    | Op (o, k) -> st.slots.(pid) <- Suspended (o, k)
    | Emit (n, p) -> (
      st.emit n;
      match p () with
      | p -> settle st pid p
      | exception e -> st.slots.(pid) <- Over (Failed e))

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
        settle st pid st.programs.(pid);
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
        | Over _ -> ()
      done;
      st.live <- !acc;
      st.live_stale <- false;
      st.live_until <- !until
    end;
    st.live

  let earliest_wake st =
    let best = ref max_int in
    for pid = 0 to st.n - 1 do
      (match st.slots.(pid) with
      | Suspended _ when st.stalled_until.(pid) > st.clock ->
        best := min !best st.stalled_until.(pid)
      | Suspended _ | Over _ -> ());
      if st.restart_due.(pid) >= 0 then best := min !best st.restart_due.(pid)
    done;
    !best

  (* Apply [op] for [pid] and continue its program to its next operation
     or its end; an exception out of the continuation fails the program. *)
  let exec st pid k op =
    let res = st.apply ~pid op in
    let idx = st.total in
    st.rev_trace <- { idx; pid; op; res } :: st.rev_trace;
    st.total <- idx + 1;
    st.hops <- st.hops + 1;
    st.ops_per_fiber.(pid) <- st.ops_per_fiber.(pid) + 1;
    if st.traced then
      Obs.Trace.sampled_complete ~name:(st.obs_label op) ~pid ~ts:idx ~dur:1 ();
    match k res idx with
    | p -> settle st pid p
    | exception e -> st.slots.(pid) <- Over (Failed e)

  let direct st c pid k pending_op =
    match c ~pid ~nth:st.ops_per_fiber.(pid) pending_op with
    | Proceed -> exec st pid k pending_op
    | Replace op' ->
      event st (Ev_replace { pid; at = st.total });
      exec st pid k op'
    | Raise e ->
      event st (Ev_raise { pid; at = st.total });
      st.slots.(pid) <- Over (Failed e)
    | Crash ->
      event st (Ev_crash { pid; at = st.total; restarting = false });
      st.slots.(pid) <- Over Crashed
    | Crash_restart { delay } ->
      let restarting = st.incarnations.(pid) < st.max_restarts in
      event st (Ev_crash { pid; at = st.total; restarting });
      st.slots.(pid) <- Over Crashed;
      if restarting then begin
        st.restart_due.(pid) <- st.clock + max 1 delay;
        st.restarts_pending <- st.restarts_pending + 1
      end
    | Stall { steps } ->
      event st (Ev_stall { pid; at = st.total; steps });
      st.stalled_until.(pid) <- st.clock + max 1 steps;
      st.live_stale <- true

  let probe_stops st probe live =
    match probe with
    | None -> false
    | Some p -> (
      match p ~step:st.decisions ~live with `Continue -> false | `Stop -> true)

  (* [probed] is false right after [at_end] restored a saved state: that
     state's decision was probed by the run that saved it, so it is made
     without a second probe call. *)
  let rec loop st probe at_end sched ~probed =
    if st.total >= st.max_ops then ended st probe at_end sched
    else begin
      if st.restarts_pending > 0 then do_restarts st;
      match pending_pids st with
      | [] ->
        let c = earliest_wake st in
        if c < max_int then begin
          st.clock <- c;
          loop st probe at_end sched ~probed
        end
        else ended st probe at_end sched
      | live -> (
        if probed && probe_stops st probe live then ended st probe at_end sched
        else
          (* The probe may have restored a saved state: decide from the
             live set it left. *)
          match Rsim_shmem.Schedule.next sched ~live:(pending_pids st) with
          | None -> ended st probe at_end sched
          | Some (pid, sched') ->
            st.clock <- st.clock + 1;
            st.decisions <- st.decisions + 1;
            (match st.slots.(pid) with
            | Suspended (pending_op, k) -> (
              match st.control with
              | None -> exec st pid k pending_op
              | Some c -> direct st c pid k pending_op)
            | Over _ -> assert false);
            (match st.slots.(pid) with
            | Suspended _ -> ()
            | Over _ -> st.live_stale <- true);
            loop st probe at_end sched' ~probed:true)
    end

  (* The run is at an end: [at_end] may restore a saved state, and the
     run then goes on from it with the schedule as it stands. *)
  and ended st probe at_end sched =
    match at_end with
    | None -> ()
    | Some f ->
      st.restored <- false;
      f ();
      if st.restored then loop st probe at_end sched ~probed:false

  let default_obs_label (_ : M.op) = "op"

  let start ?(max_ops = 1_000_000) ?control ?(max_restarts = 4)
      ?(obs_label = default_obs_label) ~apply ~emit programs =
    let programs = Array.of_list programs in
    let n = Array.length programs in
    let st =
      {
        n;
        programs;
        slots = Array.make n (Over Done);
        ops_per_fiber = Array.make n 0;
        apply;
        emit;
        control;
        max_ops;
        max_restarts;
        obs_label;
        traced = Obs.Trace.enabled ();
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
        hops = 0;
        restored = false;
      }
    in
    Array.iteri (settle st) programs;
    st

  let status_of = function Over s -> s | Suspended _ -> Pending

  let current st =
    {
      statuses = Array.map status_of st.slots;
      trace = List.rev st.rev_trace;
      ops_per_fiber = Array.copy st.ops_per_fiber;
      total_ops = st.total;
      events = List.rev st.rev_events;
    }

  let run ?probe ?at_end ~sched st =
    match loop st probe at_end sched ~probed:true with
    | () ->
      Obs.Metrics.add m_ops st.hops;
      current st
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Obs.Metrics.add m_ops st.hops;
      Printexc.raise_with_backtrace e bt
end
