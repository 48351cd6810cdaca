(** Cooperative fibers for the real system, with single-step scheduling.

    Real processes (the simulators and the augmented-snapshot code they
    run) are written in direct style. Every operation on the shared base
    object is performed through {!S.op}, which is an OCaml effect: the
    runtime captures the fiber's continuation there, and a {!Schedule}
    decides which fiber's pending operation executes next. Operations are
    applied atomically, one at a time, so the recorded trace *is* the
    linearization order of base-object operations — exactly the
    atomic-steps model of the paper (§2).

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

    {b Observability.} Every applied operation bumps the always-on
    [fiber.ops] counter and, when {!Rsim_obs.Obs.Trace} is collecting,
    emits a one-tick span named by [obs_label] at logical time = the
    operation's trace index; fault-plane events bump [fiber.faults.*]
    counters and emit instant trace events. With tracing off the
    per-operation cost is one atomic increment and one atomic load. *)

module type OPS = sig
  type op
  type res
end

type status =
  | Done  (** fiber body returned *)
  | Pending  (** has an operation waiting to be scheduled *)
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
      (** kill the fiber: it never resumes, its local state is lost,
          shared memory persists; status becomes {!Crashed} *)
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

val pp_event : Format.formatter -> event -> unit

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
      [`Stop].

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
