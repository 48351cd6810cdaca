(** Safe agreement — the BG simulation's building block (for contrast).

    The paper's introduction positions the revisionist simulation
    against the BG simulation [15]: in BG, different steps of a
    simulated process can be performed by different simulators, which
    coordinate each simulated step through {e safe agreement} — an
    object with consensus-grade agreement and validity whose price is a
    {e blocking window}: if a proposer crashes between raising its level
    and settling, readers block forever. That is exactly why BG-based
    approaches cannot "revise the past" and why a crashed simulator
    stalls its simulated processes, whereas the revisionist simulation's
    augmented snapshot stays non-blocking (Theorem 20) and lets a single
    simulator own each simulated process.

    This is the classic Borowsky–Gafni construction from a single-writer
    snapshot: [propose v] publishes the value at level 1, snapshots, and
    settles at level 2 unless it saw someone already settled (then it
    retreats to level 0 and adopts later); [read] spins until no process
    is at level 1, then returns the settled value with the smallest
    index.

    Processes run as fibers; every snapshot operation is a scheduling
    point, so the blocking window is schedulable and testable. *)

open Rsim_value

module Ops : sig
  type op = Sa_scan | Sa_write of Value.t  (** own component *)
  type res = Sa_view of Value.t array | Sa_ack
end

module F :
  Rsim_runtime.Fiber.S with type op := Ops.op and type res := Ops.res

type t

val create : f:int -> t
val apply : t -> pid:int -> Ops.op -> Ops.res

(** {2 Operations — inside fibers only} *)

(** [propose t ~me v] — wait-free (a constant number of steps). *)
val propose : t -> me:int -> Value.t -> unit

(** [read t ~me] — returns the agreed value. Blocks (keeps re-scanning)
    while any process sits in its unsafe window; [max_spins] bounds the
    wait, returning [None] on timeout so tests can observe the blocking
    behaviour that the revisionist simulation avoids. *)
val read : t -> me:int -> max_spins:int -> Value.t option
