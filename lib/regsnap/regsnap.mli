(** A wait-free single-writer snapshot implemented from registers.

    The paper's real system communicates through an atomic single-writer
    snapshot [H] (§2.1), which it notes is implementable from registers
    [2] (Afek, Attiya, Dolev, Gafni, Merritt, Shavit: "Atomic snapshots
    of shared memory", JACM 1993). This module closes that gap in our
    stack: the classic AADGMS construction, running on the fiber runtime
    so that every {e register} access is a scheduling point, with an
    operation history recorded for linearizability checking.

    Construction: register [i] (written only by process [i]) holds
    [(value, seq, embedded_view)]. An [update] performs an embedded
    [scan] and then writes its new value with an incremented sequence
    number and the scanned view. A [scan] repeatedly collects all [f]
    registers: two identical consecutive collects give a {e direct} scan
    (linearized between them); otherwise any process observed moving
    {e twice} must have completed a whole update — and hence a whole
    embedded scan — inside our interval, so its embedded view is a valid
    {e borrowed} scan.

    Wait-freedom: each collect is [f] reads; a scan does at most [f + 2]
    collects (every retry marks a new mover), so scans take
    [O(f²)] steps and updates [O(f²) + 1]. *)

open Rsim_value

module Ops : sig
  type op = Read of int | Write of int * Value.t
  type res = Got of Value.t | Ack
end

(** The fiber runtime at register granularity. *)
module F :
  Rsim_runtime.Fiber.S with type op := Ops.op and type res := Ops.res

(** One completed high-level operation, for linearizability checking:
    interval endpoints are register-step indices. *)
type hop =
  | Update_op of {
      proc : int;
      value : Value.t;
      inv : int;
      ret : int;
      n_ops : int;  (** this process's own register steps *)
    }
  | Scan_op of {
      proc : int;
      view : Value.t array;
      inv : int;
      ret : int;
      borrowed : bool;  (** returned another process's embedded view *)
      n_ops : int;
    }

type t

val create : f:int -> t

(** Pass to {!F.run}. *)
val apply : t -> pid:int -> Ops.op -> Ops.res

(** Completed high-level operations, in completion order. *)
val history : t -> hop list

(** Steps a scan may take, for wait-freedom assertions: [(f + 2) · f]
    reads. *)
val scan_step_bound : f:int -> int

(** {2 High-level operations — inside fibers only} *)

(** [update t ~me v] sets this process's component to [v]. *)
val update : t -> me:int -> Value.t -> unit

(** [scan t ~me] returns an atomic view of all [f] components. *)
val scan : t -> me:int -> Value.t array
