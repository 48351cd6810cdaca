(** End-to-end revisionist simulation (Theorem 21's construction).

    Wires up the real system of Figure 1: [f] simulators — [f − d]
    covering simulators with the lowest identifiers, each simulating [m]
    processes, and [d] direct simulators, each simulating one process —
    over one [m]-component augmented snapshot, which is itself
    implemented from an [f]-component single-writer snapshot whose every
    operation is a scheduling point.

    Requires [(f − d)·m + d ≤ n]: enough simulated processes to go
    around. Simulated process [p] gets the input of its simulator
    (colorless tasks allow duplicated inputs), so if the simulation is
    wait-free and the protocol solves the task for [n] processes, the
    [f] simulators' outputs solve the task for their own inputs — the
    reduction of Theorem 21. *)

open Rsim_value
open Rsim_shmem

type spec = {
  protocol : int -> Value.t -> Proc.t;
      (** factory: simulated pid, input ↦ initial process *)
  n : int;  (** simulated processes available *)
  m : int;  (** components of the simulated snapshot M *)
  f : int;  (** simulators *)
  d : int;  (** direct simulators (the paper's x); the rest cover *)
  inputs : Value.t list;  (** one input per simulator (length [f]) *)
}

(** A simulator crashed in place by the supervision watchdog. *)
type quarantine = { sim : int; at_op : int; reason : string }

(** What the fault plane and the supervision layer did during the run. *)
type fault_report = {
  events : Rsim_runtime.Prog.event list;
      (** injected crashes/restarts/stalls/drops, plus watchdog kills *)
  quarantined : quarantine list;
  watchdog_budget : int;  (** per-simulator H-operation budget in force *)
}

type result = {
  outputs : (int * Value.t) list;
      (** simulator pid ↦ output, from its {!Journal.Jdecided} or
          {!Journal.Jfinal} entry *)
  aug : Rsim_augmented.Aug.t;
  trace : Rsim_augmented.Aug.Prog.trace_entry list;
  journals : Journal.event list array;
      (** per simulator, its revisions, final block and adopted outputs,
          in the order recorded; its M-operations are in [aug]'s log *)
  partition : int array array;  (** simulator ↦ global simulated pids *)
  statuses : Rsim_runtime.Prog.status array;
  ops_per_sim : int array;  (** H-operations per simulator *)
  bu_counts : int array;
      (** M.Block-Updates completed per simulator, counted in [aug]'s log *)
  total_ops : int;
  all_done : bool;
  report : fault_report;
  index : Rsim_augmented.Aug_spec.index;
      (** the §3.3 trace index of [trace] and [aug]'s log, as the
          augmented snapshot had extended it when the result was taken
          ({!Rsim_augmented.Aug.index}); what {!Analysis.check} and the
          explorer's oracles read *)
}

(** The assignment of simulated processes to simulators: covering
    simulator [i < f−d] gets pids [i·m .. i·m+m−1]; direct simulator
    [f−d+j] gets pid [(f−d)·m + j]. *)
val partition : m:int -> f:int -> d:int -> int array array

(** [check_shape ~n ~m ~f ~d] is [Ok ()] when [f ≥ 1], [0 ≤ d ≤ f],
    [m ≥ 1] and [(f − d)·m + d ≤ n], and otherwise [Error] naming the
    first constraint that fails. {!run} raises [Invalid_argument] with
    the same text, prefixed by ["Harness: "]. *)
val check_shape :
  n:int -> m:int -> f:int -> d:int -> (unit, string) Stdlib.result

(** The default watchdog budget: a generous multiple of Lemma 31's
    per-simulator step bound (the lemma covers all-covering simulations;
    direct simulators can legitimately run past the bare bound), capped
    by [max_ops]. *)
val default_watchdog : f:int -> m:int -> max_ops:int -> int

(** Run the simulation to completion (or until [max_ops] H-operations).
    The simulators are persistent programs ({!Covering_sim},
    {!Direct_sim}) run by {!Rsim_augmented.Aug.Prog}'s interpreter.
    [local_cap] bounds each hidden local simulation.

    [faults] (default none) is a fault-plane profile applied at the
    simulators' H-operation boundary ({!Rsim_faults.Faults}): crashed
    simulators lose their local state while [H] persists, exactly the
    paper's crash model. [watchdog] (default {!default_watchdog}) is the
    supervision step budget: a simulator that performs that many
    H-operations is diverging and gets quarantined — crashed in place,
    recorded in [result.report.quarantined] — while the run continues
    with the others. *)
val run :
  ?max_ops:int ->
  ?local_cap:int ->
  ?faults:Rsim_faults.Faults.spec list ->
  ?watchdog:int ->
  sched:Schedule.t ->
  spec ->
  result

(** {2 Resuming saved states}

    [run] is {!start}, {!finish} and {!current}. Exploration engines
    split it to branch without replaying prefixes: a probe saves the
    simulation at a scheduling decision, and another execution restores
    it there. *)

(** A simulation started and not yet finished. *)
type sim

(** [start spec] builds the simulators' programs and the run that
    interprets them, before any scheduling decision. The optional
    arguments are {!run}'s. *)
val start :
  ?max_ops:int ->
  ?local_cap:int ->
  ?faults:Rsim_faults.Faults.spec list ->
  ?watchdog:int ->
  spec ->
  sim

(** [finish ?probe ?at_end ~sched s] runs [s] until it ends, calling
    [probe] before every scheduling decision and [at_end] at every end
    ({!Rsim_runtime.Prog.S.run}). A hook that calls {!restore} continues
    the run from the restored state, so one [finish] can walk several
    saved states, and a hook that restores nothing ends it. *)
val finish :
  ?probe:Rsim_runtime.Prog.probe ->
  ?at_end:(unit -> unit) ->
  sched:Schedule.t ->
  sim ->
  unit

(** [current s] is what [s] has reached, as {!run} would return it if
    the run ended here. Each call builds a new result and counts as one
    run in the metrics. *)
val current : sim -> result

(** A simulation's state at one scheduling decision: the interpreter's
    run, the augmented snapshot with its trace index, the journals, the
    quarantines and the fault plan's fired set. Immutable. *)
type saved

(** [save s], called from [s]'s probe. *)
val save : sim -> saved

(** [restore s v], called from [s]'s probe, puts [s] in state [v] (saved
    from a simulation of the same spec and options): the decision that
    probe call precedes is made from [v]. Called from [finish]'s
    [at_end] hook, it continues the run from [v]. [v] stays valid. *)
val restore : sim -> saved -> unit

(** Why a run's outputs do not validate. [Simulator_crashed] covers
    injected crashes, injected exceptions and watchdog quarantines —
    modeled failures, survivable; [Simulator_raised] is an {e unmodeled}
    exception, i.e. a bug. *)
type invalid =
  | Simulator_raised of { sim : int; exn : string }
  | Simulator_crashed of { sims : int list }
  | Unfinished of { sims : int list }
  | Missing_output of { sims : int list }
  | Invalid_output of { reason : string }

val explain : invalid -> string

(** Check the simulators' outputs against a task, using the simulators'
    inputs.

    By default any crashed/quarantined simulator invalidates the run
    ([Simulator_crashed]). With [~survivors_only:true] the crash-fault
    model applies: crashed simulators are excused, and the task is
    checked over the surviving simulators' outputs against the full
    input set (a crashed simulator's input may have been adopted before
    it died) — task validity among survivors instead of all-or-nothing.
    A simulator that raised an unmodeled exception is never excused. *)
val validate :
  ?survivors_only:bool ->
  spec ->
  result ->
  task:Rsim_tasks.Task.t ->
  (unit, invalid) Stdlib.result

(** ASCII rendering of Figure 1 for this spec. *)
val architecture : spec -> string
