(** Persistent programs and their interpreter.

    A program is a process written as data: either it has returned, or
    it issues one shared-memory operation and continues with a function
    of that operation's result and trace index, or it emits a note (an
    entry for a log kept beside shared memory) and continues. Continuations
    must close over immutable values only. A program is then a value
    that can be run any number of times, and a process's state at a
    scheduling point is its pending operation and continuation: saving a
    run copies a few small arrays, and resuming it on any domain re-runs
    nothing.

    The interpreter ({!S.start}, {!S.run}) runs one program per pid under
    a {!Rsim_shmem.Schedule.t} with the semantics of
    {!Rsim_runtime.Fiber.S.run}: the same [max_ops], [control] directives,
    [max_restarts], [probe] and [obs_label], the same statuses, trace,
    events and per-pid counts, the same stall and restart clocks, and the
    same [fiber.ops] and [fiber.faults.*] counters and trace events. A
    crash drops the pid's program; a restart starts it again from its
    initial value. [Raise e] fails the program with [e]: a program cannot
    catch an exception. It starts no fiber.

    {!S.drive} performs a program in direct style, for code that still
    runs on fibers: the same program then serves both runtimes. *)

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
  type trace_entry
  type result

  type 'a t =
    | Return of 'a
    | Op of op * (res -> int -> 'a t)
        (** issue the operation, then continue with its result and its
            trace index *)
    | Emit of note * 'a t

  val return : 'a -> 'a t

  (** [op o] issues [o] and returns its result and trace index. *)
  val op : op -> (res * int) t

  val emit : note -> unit t
  val bind : 'a t -> ('a -> 'b t) -> 'b t
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t

  (** [drive ~perform ~index ~emit p] runs [p] in direct style: each
      operation through [perform] (e.g. a fiber runtime's [op]), whose
      trace index [index ()] reads just after it, and each note through
      [emit]. *)
  val drive :
    perform:(op -> res) ->
    index:(unit -> int) ->
    emit:(note -> unit) ->
    'a t ->
    'a

  (** One run's state. *)
  type run

  (** [start ~apply ~emit programs] is a run of one program per pid (pid
      = list position), each settled to its first operation, before any
      scheduling decision. [apply] executes an operation atomically
      against shared memory; [emit] receives the notes programs emit, in
      execution order. The optional arguments are {!Fiber.S.run}'s. *)
  val start :
    ?max_ops:int ->
    ?control:(pid:int -> nth:int -> op -> op Fiber.directive) ->
    ?max_restarts:int ->
    ?obs_label:(op -> string) ->
    apply:(pid:int -> op -> res) ->
    emit:(note -> unit) ->
    unit t list ->
    run

  (** Runs until no program is pending or due to wake, the schedule is
      exhausted, [max_ops] operations have executed, or [probe] returns
      [`Stop], as {!Fiber.S.run} does. [fiber.ops] gains the operations
      this call applied. Exceptions out of [apply], [control], [probe] or
      the schedule propagate unchanged. *)
  val run : ?probe:(step:int -> live:int list -> [ `Continue | `Stop ]) ->
    sched:Rsim_shmem.Schedule.t -> run -> result

  (** A run's state at one scheduling decision, immutable. *)
  type saved

  (** [save r], called from [r]'s probe: copies of the pids' programs,
      statuses, operation counts, incarnations and clocks, with the trace
      and the events so far. Shared memory and [emit]'s log are the
      caller's to save. *)
  val save : run -> saved

  (** [restore r s], called from [r]'s probe, puts [r] in state [s]: the
      decision that probe call precedes is made from [s], and the run
      goes on from there. [s] stays valid, and can be restored into any
      number of runs of the same programs, on any domain. *)
  val restore : run -> saved -> unit
end

module Make
    (M : OPS)
    (F : Fiber.S with type op := M.op and type res := M.res) :
  S
    with type op := M.op
     and type res := M.res
     and type note := M.note
     and type trace_entry := F.trace_entry
     and type result := F.result
