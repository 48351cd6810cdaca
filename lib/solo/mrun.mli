(** Execution engine for derandomized protocols over an m-component
    object (§5.2).

    The analogue of {!Rsim_shmem.Run} for processes produced by
    {!Derandomize.convert}: one shared m-component object whose
    components carry the kinds declared by the protocol, atomic steps,
    pluggable {!Rsim_shmem.Schedule}s, immutable configurations. *)

open Rsim_value

type event = {
  idx : int;
  pid : int;
  step : Ndproto.step;
  response : Value.t;
}

type config

(** All processes must share the same object declaration ([m], kinds). *)
val init : Derandomize.t list -> config

val mem : config -> Value.t array
val proc : config -> int -> Derandomize.t
val live : config -> int list
val trace : config -> event list
val step_pid : config -> int -> config

type outcome = All_done | Step_limit | Schedule_exhausted

val run :
  ?max_steps:int -> sched:Rsim_shmem.Schedule.t -> config -> config * outcome

val outputs : config -> (int * Value.t) list

(** Obstruction-freedom probe: run [pid] solo; [true] iff it outputs
    within the budget. *)
val solo_terminates : ?max_steps:int -> config -> int -> bool
