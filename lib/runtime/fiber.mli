(** Cooperative fibers for the real system, with single-step scheduling.

    Real processes (the simulators and the augmented-snapshot code they
    run) are written in direct style. Every operation on the shared base
    object is performed through {!S.op}, which is an OCaml effect: the
    runtime captures the fiber's continuation there, and a {!Schedule}
    decides which fiber's pending operation executes next. Operations are
    applied atomically, one at a time, so the recorded trace *is* the
    linearization order of base-object operations — exactly the
    atomic-steps model of the paper (§2).

    Who still runs on fibers: the code written in direct style — the
    revisionist simulation ([Harness], whose simulators call
    [Aug.scan]/[Aug.block_update], the direct-style drivers of the
    {!Prog} programs), [Regsnap] and [Safe_agreement]. The augmented
    snapshot's explorer workloads and experiments run the same
    Algorithms 3–4 as programs on {!Prog}'s interpreter, which has this
    runtime's semantics and can save and resume a run.

    Determinism: given the same fiber bodies, scheduler, [apply] function
    and [control] function, the execution and trace are identical. Fibers
    must not share mutable state other than through [apply].

    {b The fault boundary.} Every base-object operation passes through
    the optional [control] hook just before it is applied, and the hook's
    {!directive} decides its fate: execute as-is, execute a substituted
    operation (dropped or corrupted writes), crash the fiber (losing its
    local state while shared memory persists — the paper's crash-fault
    model), crash it and later restart it from a fresh body, stall it for
    a window of scheduling decisions, or unwind it with an injected
    exception. {!Rsim_faults.Faults} compiles declarative fault specs
    into such a hook; the harness's watchdog supervision uses the same
    mechanism.

    {b Reclamation.} A fiber that {!S.run} does not run to completion is
    discontinued, so its stack is freed: when it is crashed (with or
    without a restart), and, whichever way [run] returns or raises, when
    it is still suspended at the end. The runtime raises its own private
    exception at the fiber's pending operation; bodies must let it
    propagate. A body that catches it anyway and performs another
    operation is discontinued again at that operation — the operation is
    never applied and never traced — and nothing the body does while
    unwinding changes the status [run] records for it.

    {b Cost.} A run keeps its state in one record and installs one
    effect handler, which every fiber it starts or restarts shares: the
    handler reads from the run's state which fiber is running. A hop
    then allocates its trace entry, the schedule's decision and the
    effect machinery's blocks, and nothing for the run's own
    bookkeeping.

    {b Observability.} The always-on [fiber.ops] counter gains a run's
    applied operations once, when the run returns or raises. When
    {!Rsim_obs.Obs.Trace} is collecting as the run starts (it is read
    once per run), every applied operation emits a one-tick span named
    by [obs_label] at logical time = the operation's trace index.
    Fault-plane events bump [fiber.faults.*] counters and emit instant
    trace events. With tracing off an operation costs no atomic access.
    The [fiber.live] gauge counts fibers started and not yet finished or
    unwound, across all runs in all domains; it reads 0 whenever no
    {!S.run} is in progress. *)

module type OPS = sig
  type op
  type res
end

type status =
  | Done  (** fiber body returned *)
  | Pending
      (** had an operation waiting to be scheduled when the run ended
          (the fiber has since been discontinued) *)
  | Failed of exn  (** fiber body raised *)
  | Crashed  (** killed by a {!Crash} / {!Crash_restart} directive *)

(** What to do with a fiber's pending operation, decided at the apply
    boundary. *)
type 'op directive =
  | Proceed  (** apply the operation unchanged *)
  | Replace of 'op
      (** apply this operation instead (the fiber still sees the result
          type it expects — e.g. an append of nothing models a dropped
          write) *)
  | Crash
      (** kill the fiber: it is discontinued and never resumes, its
          local state is lost, shared memory persists; status becomes
          {!Crashed} *)
  | Crash_restart of { delay : int }
      (** crash, then restart the fiber from a fresh body after [delay]
          scheduling decisions (capped by [max_restarts]) *)
  | Stall of { steps : int }
      (** transient stall: the operation stays pending and the fiber is
          hidden from the scheduler for [steps] scheduling decisions *)
  | Raise of exn  (** unwind the fiber with this exception ({!Failed}) *)

(** Fault-plane events recorded during a run, in order. [at] is the
    number of operations executed when the event fired (= the trace index
    the fiber's next operation would have had). *)
type event =
  | Ev_crash of { pid : int; at : int; restarting : bool }
  | Ev_restart of { pid : int; at : int; incarnation : int }
  | Ev_stall of { pid : int; at : int; steps : int }
  | Ev_replace of { pid : int; at : int }
  | Ev_raise of { pid : int; at : int }

(** Bumps the [fiber.faults.*] counter of an event and, when [traced],
    emits its instant trace event: what both runtimes do with every
    fault-plane event ({!Prog} shares it). *)
val record_event : traced:bool -> event -> unit

(** [count_ops n] adds [n] applied operations to the [fiber.ops]
    counter, which both runtimes feed. *)
val count_ops : int -> unit

(** The runtime at one operation type: what {!Make} returns, and the
    signature every instantiation ([Aug.F], [Regsnap.F],
    [Safe_agreement.F]) exports with [op] and [res] substituted. *)
module type S = sig
  type op
  type res

  (** [op o] performs shared-memory operation [o]; only callable from
      inside a fiber body run by {!run}. *)
  val op : op -> res

  type trace_entry = { idx : int; pid : int; op : op; res : res }

  type result = {
    statuses : status array;
    trace : trace_entry list;  (** execution order = linearization order *)
    ops_per_fiber : int array;
        (** operations executed per fiber, cumulative across restarts *)
    total_ops : int;
    events : event list;  (** fault-plane events, in firing order *)
  }

  (** Called once per scheduling decision, just before the schedule is
      consulted: [step] is the number of decisions made so far (a dense
      0,1,2,... sequence, unlike the internal clock, which fast-forwards
      across stall/restart waits) and [live] the schedulable pids in
      ascending order. Returning [`Stop] ends the run at that point as if
      the schedule were exhausted. Exploration engines use this to
      observe reached states and enumerate sibling branches without
      re-executing the prefix. *)
  type probe = step:int -> live:int list -> [ `Continue | `Stop ]

  (** [run ?max_ops ?control ?max_restarts ~sched ~apply bodies] starts
      one fiber per element of [bodies] (pid = list position; each body
      receives its pid), then repeatedly: asks [sched] for a pid among
      fibers with a pending operation, consults [control] (default:
      always [Proceed]) with the pid, the fiber's executed-operation
      count [nth], and the pending operation, and acts on the directive —
      normally applying the operation via [apply] (which typically
      mutates the shared base object) and resuming the fiber until its
      next operation or completion.

      Crashed-restarting and stalled fibers wake after their delay in
      scheduling decisions; if at some point {e only} waiting fibers
      remain, time fast-forwards to the earliest wake-up rather than
      deadlocking. A fiber is restarted at most [max_restarts] (default
      4) times, with the same body it was started with.

      Stops when no fiber is pending or due to wake, the schedule is
      exhausted, [max_ops] operations have executed, or [probe] returns
      [`Stop]. Fibers still pending then read {!Pending} and are
      discontinued. An exception out of [apply], [control], [probe] or
      [sched] discontinues every pending fiber and is then re-raised
      unchanged.

      [obs_label] names each operation in the emitted trace (default
      ["op"]); pass e.g. {!Rsim_augmented.Aug.op_name} for readable
      per-operation lanes in [chrome://tracing]. *)
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

module Make (M : OPS) : S with type op := M.op and type res := M.res
