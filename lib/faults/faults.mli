(** The fault plane: declarative, seed-deterministic fault injection at
    the runtime's apply boundary.

    The augmented snapshot's headline guarantee (Theorem 20) is
    {e non-blocking under any schedule and any crash pattern}: some
    [Scan]/[Block-Update] always completes. Model checking that claim
    needs a real adversary, not just schedule truncation. A fault
    {!spec} names a victim process, the index of the victim operation
    (the process's [at_op]-th base-object operation, 0-based, cumulative
    across restarts) and an {!action}; a list of specs — a {e profile} —
    is compiled by {!control} into the [control] hook of
    {!Rsim_runtime.Prog.S.start}, so {e every} workload (augmented
    snapshot, register snapshot, full simulations, explorer workloads)
    can be faulted through one mechanism, without per-module hooks.

    Crash and restart are op-agnostic and handled entirely by the
    runtime. Dropped and corrupted writes must know the workload's
    operation type, so a profile is compiled together with an {!adapter}
    that says how to drop or corrupt an operation (e.g.
    {!Rsim_augmented.Aug.fault_adapter}); faults that the adapter cannot
    express are skipped.

    Profiles round-trip through a compact string grammar
    ({!to_string}/{!of_string}), so artifacts can persist the exact fault
    environment of a counterexample:

    {v
    spec    ::= "crash@"P":"K        crash P at its K-th op
              | "restart@"P":"K"+"D  crash, restart after D decisions
              | "drop@"P":"K         the write at op K is silently lost
              | "corrupt@"P":"K"#"R  the write's value is mutated (seed R)
    profile ::= "" | "none" | spec ("," spec)*
    v} *)

type action =
  | Crash
  | Restart of { delay : int }
  | Drop
  | Corrupt of { seed : int }

type spec = { pid : int; at_op : int; action : action }

(** {2 The profile grammar} *)

val to_string : spec list -> string

(** Parses the grammar above. [""] and ["none"] are the empty profile. *)
val of_string : string -> (spec list, string) result

(** {2 Named seeded families}

    Deterministic profiles drawn from [(n_procs, seed)], restricted to
    the benign kinds (crash / restart) that the non-blocking guarantees
    must survive: ["crashy"], ["restarting"], ["chaos"]. *)

val names : string list

val named : string -> n_procs:int -> seed:int -> spec list option

(** [resolve ~n_procs ~seed s]: [s] is either a named family or a literal
    profile in the grammar. *)
val resolve : n_procs:int -> seed:int -> string -> (spec list, string) result

(** {2 Compilation to a control hook} *)

(** How to express value-plane faults on a concrete operation type.
    [drop op] is the write-nothing form of [op] ([None] if [op] is not a
    write); [corrupt g op] mutates the written value(s) using PRNG [g]. *)
type 'op adapter = {
  drop : 'op -> 'op option;
  corrupt : Rsim_value.Prng.t -> 'op -> 'op option;
}

(** Never drops or corrupts anything (crash and restart still work —
    they are op-agnostic). *)
val null_adapter : 'op adapter

(** [control ~adapter specs] is the control hook to pass to
    {!Rsim_runtime.Prog.S.start}: given [pid]'s [nth] operation and its
    [retry] count, it fires the [retry]-th spec (0-based), in profile
    order, that names that operation, and proceeds if there is none. A
    restarted operation keeps its [nth] and comes back with [retry + 1],
    so each spec fires at most once per run, in profile order. The hook keeps no state: one hook serves any number of runs,
    on any domain, and a run restored from a saved state resumes with it
    exactly. It allocates nothing when no spec fires. *)
val control :
  adapter:'op adapter ->
  spec list ->
  pid:int ->
  nth:int ->
  retry:int ->
  'op ->
  'op Rsim_runtime.Prog.directive
