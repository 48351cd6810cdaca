(** The fault plane: declarative, seed-deterministic fault injection at
    the fiber apply boundary.

    The augmented snapshot's headline guarantee (Theorem 20) is
    {e non-blocking under any schedule and any crash pattern}: some
    [Scan]/[Block-Update] always completes. Model checking that claim
    needs a real adversary, not just schedule truncation. A fault
    {!spec} names a victim process, the index of the victim operation
    (the process's [at_op]-th base-object operation, 0-based, cumulative
    across restarts) and an {!action}; a list of specs — a {e profile} —
    is compiled by {!plan}/{!control} into the [control] hook of
    {!Rsim_runtime.Fiber.S.run}, so {e every} fiber workload
    (augmented snapshot, register snapshot, full simulations, explorer
    workloads) can be faulted through one mechanism, without per-module
    hooks.

    Crash, restart and stall are op-agnostic and handled entirely by the
    fiber runtime. Dropped and corrupted writes must know the workload's
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
              | "stall@"P":"K"*"S    hide P from the scheduler for S decisions
              | "drop@"P":"K         the write at op K is silently lost
              | "corrupt@"P":"K"#"R  the write's value is mutated (seed R)
              | "raise@"P":"K        P's body is unwound with Injected
    profile ::= "" | "none" | spec ("," spec)*
    v} *)

type action =
  | Crash
  | Restart of { delay : int }
  | Stall of { steps : int }
  | Drop
  | Corrupt of { seed : int }
  | Raise_exn

type spec = { pid : int; at_op : int; action : action }

(** The exception delivered by [raise@P:K] faults, carrying [(pid,
    at_op)]. Oracles that tolerate modeled faults should treat a fiber
    [Failed (Injected _)] as a crash, not a bug ({!is_injected}). *)
exception Injected of int * int

val is_injected : exn -> bool

(** {2 The profile grammar} *)

val spec_to_string : spec -> string
val to_string : spec list -> string

(** Parses the grammar above. [""] and ["none"] are the empty profile. *)
val of_string : string -> (spec list, string) result

(** {2 Named seeded families}

    Deterministic profiles drawn from [(n_procs, seed)], restricted to
    the benign kinds (crash / restart / stall) that the non-blocking
    guarantees must survive: ["crashy"], ["stally"], ["restarting"],
    ["chaos"]. *)

val names : string list

val named : string -> n_procs:int -> seed:int -> spec list option

(** [resolve ~n_procs ~seed s]: [s] is either a named family or a literal
    profile in the grammar. *)
val resolve : n_procs:int -> seed:int -> string -> (spec list, string) result

(** {2 Compilation to a fiber control hook} *)

(** How to express value-plane faults on a concrete operation type.
    [drop op] is the write-nothing form of [op] ([None] if [op] is not a
    write); [corrupt g op] mutates the written value(s) using PRNG [g]. *)
type 'op adapter = {
  drop : 'op -> 'op option;
  corrupt : Rsim_value.Prng.t -> 'op -> 'op option;
}

(** Never drops or corrupts anything (crash/restart/stall/raise still
    work — they are op-agnostic). *)
val null_adapter : 'op adapter

(** A compiled profile with its firing state. Mutable and single-run:
    build a fresh plan per execution (each spec fires at most once). *)
type 'op plan

val plan : adapter:'op adapter -> spec list -> 'op plan

(** The specs that actually fired so far, in profile order. *)
val fired : 'op plan -> spec list

(** The control hook to pass to {!Rsim_runtime.Fiber.S.run}. *)
val control :
  'op plan -> pid:int -> nth:int -> 'op -> 'op Rsim_runtime.Fiber.directive
