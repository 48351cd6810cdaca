(** Shared machinery for the experiment harness (EXPERIMENTS.md).

    Every experiment is deterministic: all randomness flows from the
    fixed seeds passed here, so the tables in EXPERIMENTS.md are exactly
    reproducible with [dune exec bench/main.exe]. *)

open Core

(** Run a random augmented-snapshot workload: [f] processes perform
    [n_ops] operations each (a mix of Scans and Block-Updates drawn from
    the seed, {!Aug.random_prog}) under a seeded uniform scheduler, on
    the interpreter. [helping] is {!Aug.create}'s. Returns the object and
    the trace. *)
val aug_workload :
  ?helping:bool ->
  f:int ->
  m:int ->
  n_ops:int ->
  seed:int ->
  unit ->
  Aug.t * Aug.Prog.trace_entry list

(** Run the racing protocol through the full simulation harness. *)
val racing_sim :
  n:int -> m:int -> f:int -> d:int -> seed:int -> Harness.spec * Harness.result

(** Percentage, one decimal. *)
val pct : int -> int -> string
