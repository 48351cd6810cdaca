(** Persisted counterexamples: replayable JSON schedule scripts.

    When an exploration engine ({!Explore.exhaustive} or
    {!Explore.sweep}) finds a violating execution, the shrunk schedule is
    saved as a small JSON document carrying everything needed to rebuild
    the workload and re-run the exact execution later ([rsim replay]):

    {v
    {
      "version": 2,
      "workload": "bu-conflict",
      "params": {"f": 2, "m": 2},
      "inject": "yield-on-higher",
      "faults": "crash@1:3",
      "max_steps": 12,
      "errors": ["theorem20: process 0 yielded (ts [0;1])"],
      "original": [1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
      "script": [1, 0, 0, 0, 0, 0, 1, 1, 1, 1]
    }
    v}

    The schema is versioned: v1 artifacts (with or without the "version"
    field) lack "faults" and keep reading fine; artifacts from a {e
    newer} schema than this build understands are rejected with a
    distinct error, so [rsim replay] can exit 2 (unreadable) rather than
    1 (violation reproduced).

    Serialization goes through the observability plane's dependency-free
    {!Rsim_obs.Obs.Json}. {!load} never raises: unreadable paths —
    including directories and permission-denied files — come back as
    [Error], which the CLI maps to exit code 2. *)

(** The newest schema this build writes and reads (2). *)
val current_version : int

type t = {
  version : int;  (** schema version; {!of_violation} stamps the newest *)
  workload : string;  (** a {!Explore.Aug_target.builtin} name or ["racing"] *)
  params : (string * int) list;
  inject : string option;  (** seeded bug *)
  faults : string option;  (** fault-plane profile (v2+) *)
  max_steps : int;
  errors : string list;
  original : int list;
  script : int list;
}

val of_violation :
  workload:Explore.workload -> max_steps:int -> Explore.violation -> t

(** Rebuild the workload this artifact was produced from — including its
    fault profile, so the replay faults the same ops of the same pids.
    Fails on an unparseable fault profile, on whatever
    {!Explore.build_workload} refuses (an unknown workload or bug,
    missing parameters, an invalid shape), and on a script the replay
    could not run as written: [max_steps < 1], a script longer than
    [max_steps], or a script pid that is not one of the workload's
    [n_procs] processes. *)
val to_workload : t -> (Explore.workload, string) result

val to_json : t -> string
val of_json : string -> (t, string) result
val save : path:string -> t -> unit
val load : path:string -> (t, string) result
