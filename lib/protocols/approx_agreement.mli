(** Wait-free ε-approximate agreement with one register per process.

    The round-based midpoint algorithm (in the style of [9], [22]): each
    process repeatedly publishes [(round, value)] in its own component
    and scans. A process behind the maximum round it sees jumps to that
    round, adopting the midpoint of the frontier values; a process at the
    front moves to the midpoint of the frontier and advances one round.
    After [rounds] rounds it outputs its value.

    For inputs in [[0, 1]] (the paper's setting, §2), taking
    [rounds = ⌈log₂ 1/ε⌉ + 2] gives outputs within ε of each other, and
    all outputs lie in the convex hull of the inputs (every new value is
    a midpoint of previously published values). Wait-free: a process
    terminates after at most [rounds] scan/update pairs plus jumps, no
    matter what others do.

    Satisfies Assumption 1: alternates scan and update starting with a
    scan. *)

open Rsim_value

(** Number of rounds sufficient for precision [eps] on inputs in [0,1]. *)
val rounds_for : eps:float -> int

(** Factory for the simulation harness with [m = n] components: process
    [pid] writes component [pid]. *)
val protocol : rounds:int -> unit -> int -> Value.t -> Rsim_shmem.Proc.t

(** Space-constrained variant: process [pid] writes component
    [pid mod m], so [n > m] processes share [m] components (last writer
    wins per component). This is the regime Corollary 34's lower bound
    speaks to: convergence degrades gracefully but ε-agreement is no
    longer guaranteed under all schedules — the E10 experiment measures
    it through the simulation. *)
val protocol_shared :
  rounds:int -> m:int -> unit -> int -> Value.t -> Rsim_shmem.Proc.t
