(** The real system's runtime: persistent programs and their interpreter,
    with single-step scheduling.

    A program is a process written as data: either it has returned, or
    it issues one shared-memory operation and continues with a function
    of that operation's result and trace index, or it emits a note (an
    entry for a log kept beside shared memory) and continues.
    Continuations must close over immutable values only. A program is
    then a value that can be run any number of times, and a process's
    state at a scheduling point is its pending operation and
    continuation: saving a run copies a few small arrays, and resuming it
    on any domain re-runs nothing.

    Every real process runs here: the augmented snapshot's Algorithms
    3–4 ([Aug]), the revisionist simulators built from them ([Harness]),
    the register-level snapshot ([Regsnap]) and safe agreement
    ([Safe_agreement]).

    The interpreter ({!S.start}, {!S.run}) runs one program per pid. A
    {!Rsim_shmem.Schedule.t} decides which pid's pending operation
    executes next; operations are applied atomically, one at a time, so
    the recorded trace {e is} the linearization order of base-object
    operations — exactly the atomic-steps model of the paper (§2).
    Given the same programs, schedule, [apply] and [control], the
    execution and trace are identical. Programs share no mutable state
    other than through [apply] and [emit].

    {b The fault boundary.} Every operation passes through the optional
    [control] hook just before it is applied, and the hook's
    {!directive} decides its fate: execute as-is, execute a substituted
    operation (dropped or corrupted writes), crash the pid (its program
    is dropped while shared memory persists — the paper's crash-fault
    model), crash it and later restart it from its initial program,
    stall it for a window of scheduling decisions, or fail it with an
    exception. A program cannot catch an exception. {!Rsim_faults.Faults}
    compiles declarative fault specs into such a hook; the harness's
    watchdog supervision uses the same mechanism.

    {b Observability.} The always-on [fiber.ops] counter gains a run's
    applied operations when {!S.run} returns or raises. When
    {!Rsim_obs.Obs.Trace} is collecting as the run starts, every applied
    operation emits a one-tick span named by [obs_label] at logical time
    = the operation's trace index. Fault-plane events bump
    [fiber.faults.*] counters and emit instant trace events. (The
    metric names date from an earlier runtime; tools read them as they
    are.) *)

type status =
  | Done  (** the program returned *)
  | Pending  (** had an operation waiting to be scheduled when the run ended *)
  | Failed of exn  (** a continuation raised, or a {!Raise} directive *)
  | Crashed  (** killed by a {!Crash} / {!Crash_restart} directive *)

(** What to do with a pid's pending operation, decided at the apply
    boundary. *)
type 'op directive =
  | Proceed  (** apply the operation unchanged *)
  | Replace of 'op
      (** apply this operation instead (the program still sees the result
          type it expects — e.g. an append of nothing models a dropped
          write) *)
  | Crash
      (** drop the program: it never resumes, shared memory persists;
          status becomes {!Crashed} *)
  | Crash_restart of { delay : int }
      (** crash, then restart the pid from its initial program after
          [delay] scheduling decisions (capped by [max_restarts]) *)
  | Stall of { steps : int }
      (** transient stall: the operation stays pending and the pid is
          hidden from the scheduler for [steps] scheduling decisions *)
  | Raise of exn  (** fail the program with this exception ({!Failed}) *)

(** Fault-plane events recorded during a run, in order. [at] is the
    number of operations executed when the event fired (= the trace index
    the pid's next operation would have had). *)
type event =
  | Ev_crash of { pid : int; at : int; restarting : bool }
  | Ev_restart of { pid : int; at : int; incarnation : int }
  | Ev_stall of { pid : int; at : int; steps : int }
  | Ev_replace of { pid : int; at : int }
  | Ev_raise of { pid : int; at : int }

(** Called once per scheduling decision, just before the schedule is
    consulted: [step] is the number of decisions made so far (a dense
    0,1,2,... sequence, unlike the internal clock, which fast-forwards
    across stall and restart waits) and [live] the schedulable pids in
    ascending order. Returning [`Stop] ends the run at that point as if
    the schedule were exhausted. Exploration engines use it to observe
    reached states, save them and enumerate sibling branches without
    re-executing the prefix. *)
type probe = step:int -> live:int list -> [ `Continue | `Stop ]

module type OPS = sig
  type op
  type res

  type note
  (** what programs emit besides operations *)
end

module type S = sig
  type op
  type res
  type note

  type 'a t =
    | Return of 'a
    | Op of op * (res -> int -> 'a t)
        (** issue the operation, then continue with its result and its
            trace index *)
    | Emit of note * (unit -> 'a t)
        (** emit the note, then continue: what follows a note runs only
            once the note is out, as it would in direct style *)

  val return : 'a -> 'a t

  (** [op o] issues [o] and returns its result and trace index. *)
  val op : op -> (res * int) t

  val emit : note -> unit t
  val bind : 'a t -> ('a -> 'b t) -> 'b t
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t

  type trace_entry = { idx : int; pid : int; op : op; res : res }

  type result = {
    statuses : status array;
    trace : trace_entry list;  (** execution order = linearization order *)
    ops_per_fiber : int array;
        (** operations executed per pid, cumulative across restarts *)
    total_ops : int;
    events : event list;  (** fault-plane events, in firing order *)
  }

  (** One run's state. *)
  type run

  (** [start ?max_ops ?control ?max_restarts ?obs_label ~apply ~emit
      programs] is a run of one program per pid (pid = list position),
      each settled to its first operation, before any scheduling
      decision. [apply] executes an operation atomically against shared
      memory; [emit] receives the notes programs emit, in execution
      order.

      [control] (default: always [Proceed]) is consulted with the pid,
      its executed-operation count [nth] and the pending operation before
      each operation is applied. Crashed-restarting and stalled pids wake
      after their delay in scheduling decisions; if at some point {e
      only} waiting pids remain, time fast-forwards to the earliest
      wake-up rather than deadlocking. A pid is restarted at most
      [max_restarts] (default 4) times. [max_ops] defaults to 1,000,000.
      [obs_label] names each operation in the emitted trace (default
      ["op"]). *)
  val start :
    ?max_ops:int ->
    ?control:(pid:int -> nth:int -> op -> op directive) ->
    ?max_restarts:int ->
    ?obs_label:(op -> string) ->
    apply:(pid:int -> op -> res) ->
    emit:(note -> unit) ->
    unit t list ->
    run

  (** Runs until no program is pending or due to wake, the schedule is
      exhausted, [max_ops] operations have executed, or [probe] returns
      [`Stop]; programs still waiting then read {!Pending}.

      Each time the run reaches such an end, [at_end] (if given) is
      called once. A hook that calls {!restore} continues the run: it
      goes on from the restored state with the schedule as it stands,
      and the restored state's decision is made without another [probe]
      call (the run that saved it probed it). A hook that restores
      nothing ends the run. So one run can walk a whole tree of saved
      states, and {!current} tells the hook what the run reached at
      each end.

      Returns what {!current} would at the final end. [fiber.ops] gains
      the operations this call applied. Exceptions out of [apply],
      [control], [probe], [at_end] or the schedule propagate
      unchanged. *)
  val run :
    ?probe:probe ->
    ?at_end:(unit -> unit) ->
    sched:Rsim_shmem.Schedule.t ->
    run ->
    result

  (** [current r] is what [r] has reached so far, as {!run} would
      return it if the run ended here: the statuses, trace, per-pid
      counts and events up to now. It shares no mutable array with [r],
      so it stays as it is when the run goes on. *)
  val current : run -> result

  (** A run's state at one scheduling decision, immutable. *)
  type saved

  (** [save r], called from [r]'s probe: copies of the pids' programs,
      statuses, operation counts, incarnations and clocks, with the trace
      and the events so far. Shared memory and [emit]'s log are the
      caller's to save. *)
  val save : run -> saved

  (** [restore r s], called from [r]'s probe, puts [r] in state [s]: the
      decision that probe call precedes is made from [s], and the run
      goes on from there. Called from [r]'s [at_end] hook, it continues
      the run from [s] (see {!run}). [s] stays valid, and can be restored
      into any number of runs of the same programs, on any domain. *)
  val restore : run -> saved -> unit
end

module Make (M : OPS) :
  S with type op := M.op and type res := M.res and type note := M.note
