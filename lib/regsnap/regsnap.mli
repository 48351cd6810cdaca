(** A wait-free single-writer snapshot implemented from registers.

    The paper's real system communicates through an atomic single-writer
    snapshot [H] (§2.1), which it notes is implementable from registers
    [2] (Afek, Attiya, Dolev, Gafni, Merritt, Shavit: "Atomic snapshots
    of shared memory", JACM 1993). This module closes that gap in our
    stack: the classic AADGMS construction, written as persistent programs
    ({!Rsim_runtime.Prog}) so that every {e register} access is a
    scheduling point, with an operation history emitted as notes for
    linearizability checking.

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

(** One completed high-level operation, for linearizability checking:
    interval endpoints are register-step indices. [inv] is the register
    clock when the operation was invoked (the number of register steps
    applied before it, as its process observed it: see {!scan}); [ret]
    is one past its last step. *)
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

(** Programs at register granularity; each completed high-level
    operation is emitted as a note. *)
module Prog :
  Rsim_runtime.Prog.S
    with type op := Ops.op
     and type res := Ops.res
     and type note := hop

(** The registers and the history of completed operations. *)
type t

val create : f:int -> t

(** The [apply] function to pass to {!Prog.start}. *)
val apply : t -> pid:int -> Ops.op -> Ops.res

(** The [emit] function to pass to {!Prog.start}: logs a completed
    operation. *)
val record : t -> hop -> unit

(** Completed high-level operations, in completion order. *)
val history : t -> hop list

(** Steps a scan may take, for wait-freedom assertions: [(f + 2) · f]
    reads. *)
val scan_step_bound : f:int -> int

(** {2 High-level operations}

    A process threads the register clock [now] through its operations:
    0 before its first one, then what the previous one returned. It is
    the clock at invocation, the [inv] of the operation's {!hop}: a
    process that runs right after its previous step sees every step
    applied so far. (A restarted process starts again from 0, which only
    widens its first interval.) *)

(** [update ~f ~me ~now v] sets this process's component to [v] and
    returns the clock after its last step. *)
val update : f:int -> me:int -> now:int -> Value.t -> int Prog.t

(** [scan ~f ~me ~now] returns an atomic view of all [f] components and
    the clock after its last step. *)
val scan : f:int -> me:int -> now:int -> (Value.t array * int) Prog.t
