(** Schedule exploration: systematic and parallel randomized model
    checking of real-process workloads.

    Every test and experiment elsewhere in this repository runs a
    hand-picked or fixed-seed schedule through {!Rsim_runtime.Prog.S.run}.
    But the paper's claims (Lemmas 2-19, Theorem 20, Lemmas 26-32) are
    statements over {e all} interleavings, so this module supplies the
    missing quantifier. A {!workload} packages "build a fresh instance,
    run its processes under a given schedule, judge the execution with
    oracles"; two engines drive workloads:

    - {!exhaustive} enumerates every schedule up to a step bound with a
      parallel prefix-sharing frontier: the probe hook enumerates sibling
      branches mid-run, and each sibling's frontier task resumes the run
      state saved at its branching point, so every tree edge is executed
      once and no prefix is replayed; one execution walks a whole
      subtree, going from leaf to the next saved state; states
      already reached by an equivalent interleaving are pruned by
      fingerprint, and walkers hand work to idle [Domain]s through a
      shared frontier, with a deterministic merge;
    - {!sweep} runs seeded randomized schedules — uniform, crashy
      ({!Rsim_shmem.Schedule.with_crashes}), x-obstruction
      ({!Rsim_shmem.Schedule.among}), starvation
      ({!Rsim_shmem.Schedule.phased}) and scripted adversaries — in
      parallel across [Domain]s.

    Any violating execution is shrunk to a (locally) minimal failing
    schedule by greedy step removal and preemption merging, ready to be
    persisted as a replayable JSON artifact ({!Artifact}) and re-run with
    the [rsim replay] CLI subcommand. *)

open Rsim_value
open Rsim_shmem

(** {2 Workloads and outcomes} *)

(** How an execution gets back to a scheduling decision of another one:
    the state saved there by the system the workload explores, keyed by
    the workload's identity. Only the workload whose execution produced
    a node can resume it; any other raises [Invalid_argument]. *)
type node

(** The result of driving one execution under one schedule, at its
    last end. *)
type outcome = {
  trace : Rsim_augmented.Aug.Prog.trace_entry list;
      (** the operations applied, in execution order *)
  live : int list;  (** pids still pending when the run stopped *)
  steps : int;  (** base-object operations executed *)
  errors : string list;  (** oracle violations; [[]] if passing or unchecked *)
}

(** [script_of out] is the pids [out] scheduled, in order: a
    deterministic replay script for {!Rsim_shmem.Schedule.script}. *)
val script_of : outcome -> int list

(** What the exploration engine observes at one scheduling decision of a
    probed execution: the decision index, the schedulable pids, and a
    canonical state fingerprint (two independently-mixed digests of the
    shared state and every process's operation/result history; [None]
    when the workload cannot fingerprint soundly).

    The fingerprint is computed only when [fingerprint ()] is called,
    and it is valid only during the probe call that receives it: a
    workload may build one [fingerprint] per execution that reads the
    state of the current decision. {!exhaustive} calls it only at fresh
    decisions, past the node a task resumes: the states up to there were
    claimed when the task was saved, so their fingerprints would be
    thrown away.

    [save ()] returns the node of this decision, and [restore n], called
    at an execution's first decision, moves the execution to node [n]:
    the decision that probe call precedes is then made at [n], and the
    execution goes on from there, probing only its new decisions.
    Workloads save and restore their run state: nothing is re-executed. *)
type probe_view = {
  step : int;
  live : int list;
  fingerprint : unit -> (int * int) option;
  save : unit -> node;
  restore : node -> unit;
}

(** What the engine observes each time a probed execution reaches an
    end: every process over, the step cap, the schedule exhausted, or a
    decision at which [decide] returned [`Stop]. [complete ()] says
    whether no process is still pending there, and [judge ()] runs the
    workload's oracles on the execution as it stands there and returns
    their errors ([[]]: every oracle passed). Both read state the
    execution goes on to change, so they are valid only during this
    call. They read the statuses and the step count straight off the
    run: a leaf builds the trace and the system's own result only for an
    oracle that reads them. [restore n] moves the execution to node [n]:
    it goes on from there, making [n]'s decision without a further
    [decide] call, so one execution can walk a whole subtree of saved
    nodes. An execution whose [leaf] call restores nothing ends, and
    [exec] returns its outcome. *)
type leaf_view = {
  complete : unit -> bool;
  judge : unit -> string list;
  restore : node -> unit;
}

(** [decide] is called before every scheduling decision; returning
    [`Stop] ends the execution at that decision. [leaf] is called at
    every end. *)
type probe = {
  decide : probe_view -> [ `Continue | `Stop ];
  leaf : leaf_view -> unit;
}

(** How to build an instance, run its processes, and judge the result.
    [exec] must be re-entrant: every call builds its own instance, and
    both engines call it concurrently from several [Domain]s. When
    [check] is false the outcome's [errors] are [[]]; an engine that
    judges its leaves does so through [probe]'s [leaf]. [probe], if
    given, is called before every
    scheduling decision with the reached state's {!probe_view} and at
    every end with a {!leaf_view}; one call can then run many
    executions, moved from node to node by the probe. [certify] is
    ignored by every workload and engine; the label stays only because
    the benchmark's exec wrapper still passes it. *)
type workload = {
  name : string;
  n_procs : int;
  params : (string * int) list;
      (** enough to rebuild the workload when replaying an artifact *)
  inject : string option;  (** seeded bug, if any (see {!Aug_target}) *)
  faults : string option;
      (** fault-plane profile ({!Rsim_faults.Faults.to_string}), if any *)
  exec :
    probe:probe option ->
    certify:bool ->
    sched:Schedule.t ->
    max_ops:int ->
    check:bool ->
    outcome;
}

type violation = {
  script : int list;  (** minimal failing schedule, after shrinking *)
  original : int list;  (** the schedule as first caught *)
  errors : string list;
}

(** {2 Engines} *)

type exhaustive_report = {
  complete : int;  (** executions in which every process finished *)
  truncated : int;  (** executions cut off by the step bound *)
  prefixes : int;  (** tree nodes expanded (schedule prefixes visited) *)
  executions : int;
      (** executions run: one per task, that is per resumed branch, though
          one [exec] call walks many tasks *)
  dedup_hits : int;  (** branches cut at an already-claimed state *)
  pruned : int;
      (** always 0; kept only because the benchmark still reads it *)
  domains : int;  (** parallel workers used *)
  violations : violation list;
}

(** [exhaustive w] explores every schedule of [w] whose length is at most
    [max_steps] (default 64) with the parallel prefix-sharing engine.
    Oracles run on every maximal execution — complete or truncated
    (subject to each oracle's [on_truncated]).

    A worker takes a task (a saved node and the branch to take there)
    from the shared frontier and walks its whole subtree in one [exec]
    call: at each leaf the probe's [leaf] hook judges it and restores
    the next task of the walk's own stack, which holds tasks in the
    order the shared frontier would. Each resumed task counts as one
    execution. While another worker waits for work, a walker donates
    the bottom half of its stack to the shared frontier at each leaf.
    At one domain the walk order is fixed, so even an early-stopped
    report is reproducible there.

    [preemption_bound], if given, only explores schedules with at most
    that many preemptions (a context switch away from a process that could
    still run); bound 0 explores exactly the non-preemptive schedules.
    [domains] (default [min 4 (recommended_domain_count - 1)], at least
    1) sets the number of parallel workers. [dedup] prunes prefixes
    reaching a state already claimed by an equivalent interleaving. It
    defaults to true without a preemption bound and to false with one
    (the state key then carries the preemption count and the last pid,
    so few states merge and claiming costs more than it saves), and it
    switches itself off when the workload has a fault profile (reached
    states then depend on wake-up clocks the fingerprint cannot see).

    Absent an early stop, counts are deterministic functions of the
    workload and [dedup], regardless of [domains]: state claims are
    atomic and equal state keys have equal futures, so they do not
    depend on which racing task wins a claim. Violation scripts can
    depend on [domains] even then: with [dedup] on, the winner of a
    claim race becomes the prefix that represents the merged state.
    Stops early (atomically, across all domains) after [max_violations]
    (default 1) raw violations, keeping whichever arrived first; the raw
    set is then merged (shortest script first), shrunk, and
    deduplicated. Raises [Invalid_argument] if [max_violations < 1], or
    if [dedup] is on under a preemption bound and [max_steps] or the
    bound is so large that a state key, which packs the decision's
    depth with its preemption count and last pid into one int, would
    not fit. Equal states can have different histories, so [dedup]
    can miss a violation of a history-judged oracle at the tightest
    bound that shows it (DESIGN §9). *)
val exhaustive :
  ?max_steps:int ->
  ?preemption_bound:int ->
  ?max_violations:int ->
  ?domains:int ->
  ?dedup:bool ->
  workload ->
  exhaustive_report

type sweep_report = {
  executions : int;  (** schedules actually executed *)
  domains : int;  (** parallel workers used *)
  violations : violation list;
}

(** [sweep ~budget ~seed w] runs [budget] seeded randomized schedules
    split across [domains] parallel [Domain]s (default:
    [min 4 (recommended_domain_count - 1)], at least 1, and never more
    than [budget] — tiny budgets do not spawn idle domains). Schedule
    families are drawn deterministically from the per-execution seed:
    uniform random, random-with-crashes, x-obstruction suffixes
    ([Schedule.among]), starvation (a random victim hidden for an
    opening stretch: [Schedule.phased] over [Schedule.among], then
    [Schedule.random]) and random scripts ([Schedule.drawn], twice
    [max_steps] long, drawn as far as the execution gets). Executions
    are capped at [max_steps] (default 200) operations. Violations are shrunk and
    deduplicated in the calling domain; workers stop early once
    [max_violations] (default 1) have been found. Raises
    [Invalid_argument] if [max_violations < 1]. *)
val sweep :
  ?domains:int ->
  ?max_steps:int ->
  ?max_violations:int ->
  budget:int ->
  seed:int ->
  workload ->
  sweep_report

(** Re-run one schedule script deterministically, with oracles on. *)
val replay : workload -> max_steps:int -> script:int list -> outcome

(** Greedy shrinking: repeatedly delete single steps, then merge separated
    same-pid blocks (removing preemptions), as long as the script keeps
    failing. Returns the input unchanged if it does not fail. *)
val shrink : workload -> max_steps:int -> script:int list -> int list

(** {2 Oracles} *)

module Oracle : sig
  type 'exec t = {
    name : string;
    on_truncated : bool;
        (** also judge executions in which some process never finished *)
    check : 'exec -> string list;  (** [[]] = pass *)
  }
end

(** What an oracle judges of one execution of either system: the
    system's own result ['r] ({!Aug_target.exec}, {!Harness_target.exec})
    and what both have, as both run over an augmented snapshot. The lazy
    fields are built by the first oracle that reads them, so each
    verdict is computed at most once per execution, and an exhaustive
    leaf whose oracles read only the statuses, the step count and the
    index builds no result. An oracle reads them during its [check]
    only: at a leaf they read state the execution goes on to change. *)
type 'r exec = {
  result : 'r Lazy.t;
      (** the system's result ({!Rsim_augmented.Aug.Prog.S.current},
          {!Rsim_simulation.Harness.current}) *)
  noun : string;  (** a process in messages: ["process"] or ["simulator"] *)
  aug : Rsim_augmented.Aug.t;  (** the augmented snapshot the run used *)
  statuses : Rsim_runtime.Prog.status array;
  steps : int;  (** H-operations executed *)
  complete : bool;  (** no process was still pending *)
  index : Rsim_augmented.Aug_spec.index;
      (** the run's trace index, which the augmented snapshot extended
          hop by hop ({!Rsim_augmented.Aug.index}), so its completed
          M-operations already carry their settled verdicts *)
  spec_report : Rsim_augmented.Aug_spec.report Lazy.t;
      (** {!Rsim_augmented.Aug_spec.report} of [index]: its settled
          verdicts, and the checks a later hop could still change judged
          over the whole execution *)
  linearizable : bool Lazy.t;
      (** {!lin_verdict} of [aug] and [index]: [true] when the
          M-operation history linearizes *)
}

(** Seeded-bug names, as persisted in artifacts: ["skip-yield-check"],
    ["yield-on-higher"] and ["spin-on-yield"]. *)
val fault_to_string : Rsim_augmented.Aug.fault -> string

val fault_of_string : string -> Rsim_augmented.Aug.fault option

(** {2 Augmented-snapshot workloads} *)

module Aug_target : sig
  type nonrec exec = Rsim_augmented.Aug.Prog.result exec

  (** No process raised: every [Failed] status is a violation, since
      the fault plane's process faults all end a process [Crashed]. *)
  val no_failure : exec Oracle.t

  (** The full §3 executable specification: {!Rsim_augmented.Aug_spec.report}
      of the run's index. *)
  val spec : exec Oracle.t

  (** Theorem 20's headline consequence: process 0 never yields. *)
  val theorem20 : exec Oracle.t

  (** Linearizability of the M-operation history against a sequential
      [m]-component snapshot: atomic Block-Updates as one
      multi-component update, yielding ones as independent
      single-component updates, Updates of incomplete Block-Updates as
      pending operations (they may take effect or be dropped). Decided by
      {!lin_verdict}: the index's own order when it is a linearization,
      else Wing-Gong's search. *)
  val linearizable : exec Oracle.t

  (** The non-blocking detector: fails a truncated execution whose final
      48 base-object operations contain no M-operation completion while
      some process is still pending. This is the only oracle that catches
      {e blocking} bugs — a process spinning instead of yielding violates
      no safety property. {!Harness_target.fault_oracles} run the same
      oracle over the simulation's augmented snapshot. *)
  val progress : exec Oracle.t

  (** When some process ended [Crashed] (an injected crash or a restart
      past the cap, {!Rsim_faults.Faults}), re-checks the §3 spec and
      the linearizability of the surviving history ({!lin_verdict}), with
      the crashed processes' incomplete Block-Updates as pending
      operations.
      Passes vacuously on crash-free executions. *)
  val crash_robust : exec Oracle.t

  (** The race oracle (DESIGN §10.2): flags every Block-Update by [q]
      that returned [Atomic] although a triple append by some
      lower-identifier process [p < q], writing one of its components,
      landed strictly between its Line-2 scan and its Line-4 X append —
      the single point the block linearizes at (Lemma 11). H is
      single-writer and every H.scan reads every component, so an append
      is observed by the Line-2 scan iff its trace index is smaller: the
      vector-clock happens-before test reduces to index order. Appends
      after the X append serialize after the block and are harmless.
      Clean on the unfaulted object (the Line-9 yield rule forbids
      exactly this); catches [Skip_yield_check] and [Yield_on_higher]. *)
  val race : exec Oracle.t

  (** [[no_failure; spec; theorem20; progress]]. *)
  val default_oracles : exec Oracle.t list

  (** Named workloads, usable from the CLI and rebuildable from
      artifacts: ["bu-conflict"] (every process Block-Updates component
      0), ["bu-scan"] (process 0 Block-Updates, the rest Scan),
      ["bu-then-scan"] (every process Block-Updates then Scans), and
      ["mixed"] (a deterministic pseudo-random mix keyed on [f], [m]).
      Every [exec] call runs the processes' persistent programs
      ({!Rsim_augmented.Aug.Prog}) over a fresh augmented snapshot.
      [faults] is a fault-plane profile, compiled once into a stateless
      hook ({!Rsim_faults.Faults.control}) that every execution shares;
      the run state carries each process's retry count, so replays and
      resumed states see the identical fault environment. A probed
      execution keeps rolling state digests, so the exploration engine's
      probe always gets a fingerprint, and a node holds the run state,
      the object's state and the digests. Returns [None] for an unknown
      name. *)
  val builtin :
    ?inject:Rsim_augmented.Aug.fault ->
    ?faults:Rsim_faults.Faults.spec list ->
    ?oracles:exec Oracle.t list ->
    name:string ->
    f:int ->
    m:int ->
    unit ->
    workload option

  val builtin_names : string list
end

(** {2 Full-simulation workloads} *)

module Harness_target : sig
  type nonrec exec =
    (Rsim_simulation.Harness.spec * Rsim_simulation.Harness.result) exec

  (** No simulator raised; the §3 spec of the run's augmented snapshot
      ({!Aug_target.spec}); the Lemma 26 replay,
      {!Rsim_simulation.Analysis.check}; and the simulators' outputs solve
      consensus. The last two judge complete runs only. *)
  val default_oracles : exec Oracle.t list

  (** The default when a fault profile is in force: no simulator
      raised, the §3 spec, {!Aug_target.progress}, and crash-fault
      validation ({!Rsim_simulation.Harness.validate}[ ~survivors_only:true]:
      crashed and quarantined simulators are excused, the survivors'
      outputs must still solve consensus; complete runs only). A crashed
      simulator leaves its simulation unfinished and the replay refuses
      a restart, so strict validation and the Lemma 26 replay do not
      apply. *)
  val fault_oracles : exec Oracle.t list

  (** The racing-consensus simulation of Theorem 21: [f] simulators
      ([d] of them direct) run {!Rsim_protocols.Racing}'s [m]-register
      protocol for [n] processes, simulator [i] with input [i + 1]. *)
  val racing_spec :
    n:int -> m:int -> f:int -> d:int -> Rsim_simulation.Harness.spec

  (** {!racing_spec}, explorable: [f] simulators ([d] of them direct)
      over an [m]-component augmented snapshot, simulating [n]
      processes. Workload name ["racing"].
      [faults]/[watchdog] are passed to every
      {!Rsim_simulation.Harness.start}; with a non-empty [faults] the
      default oracles switch to {!fault_oracles}. Probed executions get
      no state fingerprint (simulator local state is too rich to digest
      soundly), so the engine shares prefixes but never prunes. A node
      holds the simulation's saved state ({!Rsim_simulation.Harness.save}):
      the journals and the quarantines with the run and the object. *)
  val racing :
    ?oracles:exec Oracle.t list ->
    ?faults:Rsim_faults.Faults.spec list ->
    ?watchdog:int ->
    n:int ->
    m:int ->
    f:int ->
    d:int ->
    unit ->
    workload
end

(** {2 Workloads from their description} *)

(** The one decoder of a workload description, shared by the CLI's
    options and {!Artifact.to_workload}: a [name] from
    {!Aug_target.builtin_names} or ["racing"], its [params] ([f] and [m]
    for a builtin; [n], [m], [f] and [d] for racing; others are
    ignored), a seeded-bug name ({!fault_of_string}) and fault specs.
    Returns [Error msg], and builds nothing, on an unknown name or
    seeded bug, a missing parameter, a builtin with [f < 1] or [m < 1],
    a racing shape {!Rsim_simulation.Harness.check_shape} refuses, a
    seeded bug on racing, or a fault spec whose pid is not in
    [\[0, f)] (one that would never fire). *)
val build_workload :
  name:string ->
  params:(string * int) list ->
  ?inject:string ->
  faults:Rsim_faults.Faults.spec list ->
  unit ->
  (workload, string) result

(**/**)

(** Exposed for the claim-set test: the exhaustive engine's set of
    claimed state keys, a fingerprint [(f1, f2)] with a non-negative
    [k]. [claim s f1 f2 k] is [true] the first time it is called with a
    key and [false] after, on any domain. [hash f1 f2 k]'s bits 56-61
    pick the key's shard and its low bits the first slot probed in
    it; a shard starts with {!initial_slots} slots and doubles once
    more than 3/4 of them are used. *)
module Claims : sig
  type t

  val create : unit -> t
  val claim : t -> int -> int -> int -> bool
  val hash : int -> int -> int -> int
  val initial_slots : int
end

(** The [linearizable] verdict of an execution: [true] when
    {!Rsim_augmented.Aug_spec.lin_witness} passes on the index, or else
    when {!Rsim_shmem.Linearize.check} finds a linearization of
    {!mop_history}. A history whose witness fails and that has more
    entries than the search takes ([Sys.int_size]) passes unjudged and
    counts in [explore.oracle.linearizable.vacuous]. *)
val lin_verdict : Rsim_augmented.Aug.t -> Rsim_augmented.Aug_spec.index -> bool

(** Exposed for the crash-fault tests: the Wing-Gong history of
    M-operations of an execution, from its log and its index, including
    pending entries for incomplete Block-Updates
    ({!Rsim_augmented.Aug_spec.iter_pending}). *)
val mop_history :
  Rsim_augmented.Aug.t ->
  Rsim_augmented.Aug_spec.index ->
  (Value.t array, [ `U of (int * Value.t) list | `S ]) Linearize.spec
  * [ `U of (int * Value.t) list | `S ] Linearize.entry list
